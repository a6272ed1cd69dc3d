open Import

(** The daemon's face on {!Rota_scheduler.Replica}: the same state
    machine the simulator decides through, driven by wire operations.

    {!apply} is the live path — clamp the clock to the operation's [now],
    run the transition, and return its trace records (which {e are} the
    durable record: the WAL is a valid ROTB event stream) together with
    the wire reply.  Recovery is {!replay}, inherited unchanged.  Unlike
    the simulator, the daemon always builds the records and forces every
    certificate: the reply carries the digest. *)

include module type of struct
  include Rota_scheduler.Replica
end

val run_label : Admission.policy -> string
(** The [run-started] label the WAL opens with (["serve policy=..."]) —
    the same [policy=] field the auditor reads to key its ledger. *)

val query : t -> string -> Wire.reply
(** The read-only [query] verb: ["residual-digest"], ["now"] or
    ["stats"]. *)

val apply : ?cid:string -> t -> Wire.op -> Events.payload list * Wire.reply
(** Decide one operation.  The returned payloads are in emission order
    and must be appended to the WAL {e before} the reply is sent
    (write-ahead).  Query/Ping/Shutdown return no payloads — they change
    no state, so they are never logged; neither does the release of an
    id the controller does not hold.  [cid] is the daemon's correlation
    id for the request; it is stamped into every {!Events.Decision} the
    operation produces (and echoed in the wire reply by the daemon),
    joining the durable record to the client conversation.  An admit
    observes its deadline slack on {!Telemetry.admit_slack} from the
    certificate it has just forced (a no-op with metrics disabled). *)

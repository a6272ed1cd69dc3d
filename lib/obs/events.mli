(** Typed telemetry events and their stable JSONL encoding.

    Every record carries a process-wide sequence number, the id of the
    engine run that produced it (0 outside any run), the {e simulated}
    time when one applies, and the wall-clock time.  The JSON schema is
    documented in [doc/observability.md]; {!of_json} accepts exactly
    what {!to_json} produces, so every event kind round-trips.

    Parsing is {e forward-compatible} by default: a record whose [kind]
    this binary does not know decodes to {!Unknown}, preserving its
    payload fields verbatim for re-serialization, so old binaries can
    read (and pass through) traces written by newer ones.  Pass
    [~strict:true] to reject unknown kinds instead — the behaviour
    [rota trace validate] wants. *)

type payload =
  | Run_started of { label : string }
      (** A new engine run (or other traced scope) began; subsequent
          simulated times restart from this point. *)
  | Capacity_joined of { quantity : int; terms : Json.t }
      (** Resources joined the open system; [quantity] is the total
          quantity of the joined slice from the join on (older
          simulator traces clipped it to the run's horizon).  [terms] is the
          joined slice as profile rectangles (the certificate [rect]
          list encoding), [Null] in traces from older binaries. *)
  | Decision of {
      id : string;
      policy : string;
      action : string;
          (** ["admit"], ["reject"], ["evict"], or ["repair"]. *)
      slug : string;
          (** Stable outcome taxonomy: {!Slug.of_reason} of the
              decision's reason, the same label the metrics counters
              use. *)
      certificate : Json.t;
          (** Serialized [Rota.Certificate.t] — the theorem evidence the
              decider actually checked — or [Null] when the decision
              carries no certificate. *)
      cid : string option;
          (** The serve daemon's correlation id for the request that
              produced this decision — the same id echoed in the wire
              reply, so a client complaint can be joined to its WAL
              record.  [None] outside the daemon and in traces written
              by older binaries (omitted on the wire when absent). *)
    }
      (** Decision provenance: every admission-control verdict (admit,
          reject, evict, repair) with its machine-checkable certificate —
          the one record per decision.  Traces written before it became
          the only one also carry a legacy [admitted]/[rejected] record
          per verdict; readers decode those as {!Unknown}. *)
  | Shed of { id : string; slug : string; reason : string }
      (** The serve daemon refused this request {e without} deciding it —
          load shedding, not admission control.  [slug] is the stable
          overload taxonomy ({!Rota_server.Shed} mints it: ["queue-full"],
          ["predicted-delay"], ["budget-spent"]).  Telemetry only: sheds
          are never written to the WAL (nothing was decided, there is
          nothing to replay), so the event rides the tracer stream and
          the flight recorder instead. *)
  | Completed of { id : string }
  | Killed of { id : string; owed : int }
      (** Deadline kill; [owed] is the quantity still unfinished. *)
  | Fault_injected of { fault : string; quantity : int; terms : Json.t }
      (** An unannounced fault fired ([Rota_sim.Fault.kind_name]);
          [quantity] is the capacity actually lost (0 for slowdowns,
          negative for nothing — rejoins report the quantity {e
          gained}).  [terms] is the slice actually removed, as profile
          rectangles; [Null] for slowdowns/rejoins and in traces from
          older binaries. *)
  | Commitment_revoked of { id : string; quantity : int }
      (** A fault evicted this commitment from the calendar; [quantity]
          is the reservation quantity it lost. *)
  | Commitment_degraded of { id : string; extra : int; released : bool }
      (** A slowdown fault inflated this computation's remaining work by
          [extra] quantity units.  [released] records whether the engine
          also released its calendar reservation (true when the repair
          ladder will re-admit it; false — and omitted on the wire —
          when the commitment stays put). *)
  | Repaired of { id : string; rung : string; attempt : int;
                  certificate : Json.t }
      (** The repair ladder rescued the computation ([rung] is
          ["reaccommodate"] or ["migrate"]); [attempt] counts backoff
          retries before success (0 = first try).  [certificate] is the
          Theorem-3 re-admission evidence ([Null] in older traces). *)
  | Preempted of { id : string; owed : int }
      (** The repair ladder gave up and killed the victim early,
          releasing its resources; [owed] as in {!Killed}. *)
  | Anomaly of { id : string; reason : string }
      (** The engine hit an internal inconsistency while handling [id]
          and degraded (skipped the work) instead of aborting the run. *)
  | Span of {
      name : string;
      id : int;  (** Process-wide span id, starting at 1 (0 = legacy
                     record without linkage). *)
      parent : int option;  (** Id of the enclosing open span, if any. *)
      depth : int;  (** Nesting level (0 = outermost). *)
      begin_s : float;  (** Wall-clock time the span {e opened}. *)
      duration_s : float;
    }
      (** A timed scope closed.  Emitted at span {e exit}, so a parent
          span's record follows its children's; the [id]/[parent]
          linkage (and [begin_s]) lets readers rebuild the tree and
          attribute self vs total time regardless of emission order. *)
  | Metric_sample of { name : string; value : float; family : string option }
      (** Point-in-time value of one counter or gauge, emitted by the
          engine's periodic sampler so registry series become time
          series inside the trace.  [family] tags the series kind
          (["counter"] or ["gauge"]) so exporters can reconstruct a
          typed snapshot from the trace alone; [None] in traces from
          older binaries (and omitted on the wire when absent). *)
  | Hist_sample of {
      name : string;
      count : int;  (** Observations so far (cumulative). *)
      sum : float;  (** Sum of observations so far. *)
      min_v : float;
      max_v : float;
      p50 : float;
      p95 : float;
      p99 : float;
    }
      (** Point-in-time snapshot of one histogram (count, sum, observed
          range, and estimated quantiles), emitted by the periodic
          sampler alongside {!Metric_sample} so latency series can be
          plotted over time.  Empty histograms are skipped. *)
  | Audit_divergence of {
      id : string;
      action : string;  (** The offending decision's action. *)
      of_seq : int;  (** [seq] of the decision event that diverged. *)
      message : string;  (** One auditor complaint, human-readable. *)
    }
      (** The live audit watchdog re-verified a decision certificate and
          disagreed with the decider.  Emitted back into the same trace,
          one event per complaint, right after the offending decision;
          the auditor itself ignores this kind, so re-auditing a
          watchdogged trace reproduces the original verdicts. *)
  | Unknown of { kind : string; fields : (string * Json.t) list }
      (** A kind this binary does not know (lenient mode only), or a
          legacy [admitted]/[rejected] record (accepted in both modes).
          [fields] holds every non-envelope field verbatim, so the
          record re-serializes unchanged. *)

type t = {
  seq : int;  (** Process-wide emission order, starting at 1. *)
  run : int;  (** Run id stamping this event; 0 before any run. *)
  sim : int option;  (** Simulated time (engine ticks), when meaningful. *)
  wall_s : float;  (** Wall-clock seconds (Unix epoch). *)
  payload : payload;
}

val kind : payload -> string
(** The schema's [kind] discriminator ("run-started", "decision", ...);
    for {!Unknown} the preserved original kind. *)

val label_field : string -> string -> string option
(** [label_field key label] finds a [key=value] token in a
    {!Run_started} label (["engine policy=rota horizon=200"]). *)

val legacy_kind : string -> bool
(** Kinds older binaries wrote and this one reads as {!Unknown} in
    every mode: [admitted] and [rejected], the per-decision records the
    [decision] record replaced. *)

val legacy : kind:string -> id:string -> policy:string -> reason:string -> payload
(** The {!Unknown} a legacy [admitted]/[rejected] record decodes to, in
    either trace format. *)

val payload_fields : payload -> (string * Json.t) list
(** The payload's own JSON fields (everything {!to_json} adds beyond the
    envelope), in schema order. *)

val to_json : t -> Json.t

val of_json : ?strict:bool -> Json.t -> (t, string) result
(** [strict] (default [false]) controls unknown-kind handling: lenient
    parses them to {!Unknown}, strict errors.  Envelope fields and
    known-kind payload shapes are always checked.  Span records missing
    the linkage fields (written by older binaries) decode with [id = 0],
    no parent, and [begin_s] inferred from the emission time. *)

val to_line : t -> string
(** One JSONL line (no trailing newline). *)

val of_line : ?strict:bool -> string -> (t, string) result

val pp : Format.formatter -> t -> unit
(** Human-readable one-liner, e.g. ["t12 admitted c3 (reservation
    committed)"]; simulated time prints as ["t-"] when absent. *)

val pp_payload : sim:int option -> Format.formatter -> payload -> unit
(** Same rendering given just a payload — the single formatting path
    that both the engine's legacy pretty-printer and the console sink
    go through. *)

open Import

(** The admission state machine: an admission controller plus its
    logical clock, and the one place that turns a transition of the
    paper's labelled system over [(Θ, ρ, t)] into new state {e and} the
    trace records that tell it.

    Both runtimes decide through it.  The simulator ([Rota_sim.Engine])
    wraps it in an execution model — who consumes what each tick, which
    repair rung to try, when a deadline kills — and the serve daemon
    wraps it in a wire face ([Rota_server.Replica]) whose WAL is exactly
    the records returned here.  {!replay} folds those records back into
    state without re-running any decision procedure: admissions and
    repairs are re-installed from their own certificates, revocations
    re-derive their evictions through {!Admission.revoke}.  So a
    simulator trace and a daemon WAL recover through the same code, and
    "state after a crash = state the log proves" is a local property.

    Every transition decides at the replica's own clock ({!now}); callers
    move it with {!advance}, which also expires the past, so the
    residual a certificate pins is truncated exactly as the auditor's
    reconstruction at that simulated time is.

    Records are returned lazily: building them forces certificates and
    serializes resource sets, so a caller that is not recording (an
    untraced simulation) never pays for it.  Forcing is free of side
    effects; the state change has already happened. *)

type t

type records = Rota_obs.Events.payload list Lazy.t
(** A transition's trace records, in emission order. *)

val create : ?cost_model:Cost_model.t -> Admission.policy -> t
(** Empty capacity, clock at 0. *)

val policy : t -> Admission.policy
val now : t -> Time.t
val controller : t -> Admission.t

val residual_digest : t -> string
(** {!Certificate.digest} of the controller's current residual — the
    value recovery must reproduce. *)

val advance : t -> Time.t -> unit
(** Move the clock forward to [at] (never back), expiring the past. *)

(** {2 Transitions} *)

val join : t -> Resource_set.t -> Resource_set.t * records
(** Resources joining: the slice, clipped to [now] onward, becomes
    capacity.  Returns the clipped slice; the [capacity-joined] record's
    [quantity] is its total. *)

type revocation = {
  removed : Resource_set.t;
      (** The slice actually withdrawn: the request clipped to [now]
          onward and to what capacity still holds, so duplicate or late
          revocations degrade to no-ops. *)
  evicted : Calendar.entry list;
      (** Commitments the shrunk capacity no longer carries, in id
          order. *)
}

val revoke : ?cid:string -> t -> fault:string -> Resource_set.t -> revocation * records
(** An unannounced capacity leave, labelled [fault] (["revocation"] or
    ["blackout"]).  Records: the [fault] with the removed slice, one
    [commitment-revoked] per eviction, then one [evict] decision each,
    pinned to the post-revocation residual. *)

val blackout : t -> location:Location.t -> until:Time.t -> revocation * records
(** {!revoke} of everything located at [location] — cpu, memory and
    network legs touching it — over [\[now, until)], labelled
    ["blackout"]; capacity declared past [until] survives. *)

val admit : ?cid:string -> t -> Computation.t -> Admission.outcome * records
(** Decide one arrival ({!Admission.request}); the record is its
    [decision], stamped with [cid] (the daemon's correlation id). *)

val admit_session : t -> Session.t -> Admission.outcome * records
(** {!admit} for an interacting-actor session ({!Admission.request_session}). *)

(** How a computation's hold on the controller ends. *)
type ending =
  | Finished  (** Drained its work: [completed]. *)
  | Killed of int  (** Deadline kill owing this quantity: [killed]. *)
  | Preempted of int  (** The repair ladder gave up: [preempted]. *)

val complete : t -> string -> ending -> records
(** Release the computation's reservation or demand record and record
    how it ended. *)

val degrade : t -> string -> extra:int -> released:bool -> records
(** A slowdown inflated the computation's work by [extra]:
    [commitment-degraded].  The reservation is handed back only when
    [released] (the caller is about to re-admit the remainder through
    {!repair}); otherwise the ledger is untouched. *)

val repair : t -> id:string -> attempt:int -> Repair.repaired -> records
(** Install a repair-ladder rescue ({!Repair.attempt} run against
    {!controller}).  Records: [repaired], then the [repair] decision
    carrying the rescue's Theorem-3 certificate. *)

(** {2 Recovery} *)

val replay : t -> Rota_obs.Events.t -> (unit, string) result
(** Feed one record, in stream order — a daemon WAL or a simulator
    trace.  A [run-started] whose label names a policy starts over with
    a fresh controller of that policy.  Records that carry no state
    (rejects, evictions implied by their fault, repair notices implied
    by their decision, telemetry, legacy kinds) are accepted and
    ignored; [Error] means the stream records a transition this replica
    cannot re-install — corruption, not a decision disagreement. *)

(** {2 Snapshots} *)

val snapshot : t -> Rota_obs.Json.t
(** Clock plus {!Admission.snapshot}. *)

val restore : ?cost_model:Cost_model.t -> Rota_obs.Json.t -> (t, string) result

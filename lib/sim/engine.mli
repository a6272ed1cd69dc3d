open Import

(** Discrete-event execution of an open distributed system.

    The engine replays a {!Trace} — resources joining, computations
    arriving — under an admission policy, actually {e executes} the
    admitted computations tick by tick, and reports who finished by their
    deadline.  It is the ground truth the reasoning layer is judged
    against: ROTA's claim is that everything it admits finishes on time.

    The engine is the {e execution model} over
    {!Rota_scheduler.Replica}, the admission state machine the serve
    daemon decides through too.  Every controller update (join, admit,
    revoke, complete, repair, the clock) is a replica transition, and
    every [decision], [capacity-joined], [completed], revocation
    [fault] and [commitment-revoked] record is the one the replica
    returns — so a simulator trace replays through
    {!Rota_scheduler.Replica.replay} like a WAL does.  What stays here is
    execution: the per-computation state, dispatch and consumption,
    session segment release, which repair rung to try when, deadline
    kills, and the report's accounting.

    Records go to the installed {!Rota_obs.Tracer} sink (consumers in
    process install one too, e.g. a {!Rota_obs.Sink.make} callback).
    Without a sink the run forces no certificate and serializes no
    slice.

    Two dispatch modes:

    - {b Reservation}: each admitted computation consumes exactly what its
      committed schedule reserved, tick by tick.  Only meaningful for the
      Rota policies (the others book no reservations).
    - {b Shared}: processor-sharing — each tick, each resource type's rate
      is split evenly among the actors whose current step wants it (the
      remainder going to the earliest deadlines).  This is how a system
      without reservations behaves, and is what the baseline policies are
      executed under. *)

type dispatch = Auto | Reservation | Shared
(** [Auto] picks [Reservation] for Rota-family policies and [Shared]
    otherwise. *)

type outcome = {
  computation : string;
  arrived : Time.t;
  deadline : Time.t;
  admitted : bool;
  reject_reason : string option;  (** When not admitted. *)
  finished : Time.t option;
      (** Tick by which the computation had drained, when it did. *)
  unfinished : (Located_type.t * int) list;
      (** Work still owed when the deadline killed it (empty when it
          finished or was rejected).  Consumed + unfinished is the {e
          true} demand — the signal {!Calibration} uses. *)
  faulted : bool;
      (** A fault touched this computation's commitment (revoked its
          reservation, or inflated its work).  [faulted && on_time] means
          the repair ladder rescued it. *)
}

val on_time : outcome -> bool
(** Admitted, finished, and finished by the deadline. *)

val missed : outcome -> bool
(** Admitted but not finished by the deadline. *)

type type_stat = {
  ltype : Located_type.t;
  capacity : int;  (** Quantity offered within the run. *)
  consumed : int;  (** Quantity actually consumed. *)
}

(** What the fault plan did to the run, and what the repair ladder got
    back.  All zeros when no faults were injected. *)
type fault_stats = {
  injected : int;  (** Faults delivered (all kinds). *)
  revoked_quantity : int;
      (** Capacity quantity actually lost to revocations and blackouts
          (after clipping), within the horizon. *)
  commitments_revoked : int;
      (** Calendar entries evicted because their reservation no longer
          fit the shrunk capacity. *)
  degraded : int;  (** Computations whose work a slowdown inflated. *)
  reaccommodated : int;  (** Rescues on rung 1 (residual re-check). *)
  migrated : int;  (** Rescues on rung 2 (replanned at another site). *)
  retries : int;  (** Backoff retries scheduled (rung 3). *)
  retry_successes : int;  (** Rescues that needed at least one retry. *)
  preempted : int;  (** Victims the ladder gave up on (rung 4). *)
  work_saved : int;
      (** Quantity already consumed by fault-affected computations that
          still finished on time — work repair kept from being thrown
          away at a deadline kill. *)
}

val no_faults : fault_stats
(** The all-zero record — what a fault-free run reports. *)

type report = {
  policy : Admission.policy;
  dispatch_used : dispatch;  (** [Reservation] or [Shared], never [Auto]. *)
  horizon : Time.t;
  offered : int;
  admitted : int;
  rejected : int;
  completed_on_time : int;
  missed_deadlines : int;
  capacity_total : int;
      (** Total resource quantity offered within the run: clipped to the
          horizon, unlike the [quantity] of the trace's
          [capacity-joined]/[fault] records, which totals the whole slice
          from the tick it joined or left. *)
  consumed_total : int;  (** Total quantity actually consumed. *)
  type_stats : type_stat list;
      (** Per-type capacity/consumption breakdown, in type order. *)
  outcomes : outcome list;  (** In arrival order. *)
  faults : fault_stats;
  anomalies : (Time.t * string) list;
      (** Internal inconsistencies the engine survived by degrading
          (each also emitted as an [anomaly] telemetry event); empty on
          a healthy run. *)
  watchdog : Rota_audit.Watchdog.stats option;
      (** What the live audit watchdog verified {e during this run} —
          the stats delta of the installed {!Rota_audit.Watchdog}, or
          [None] when no watchdog was riding the run. *)
}

val utilization : report -> float
(** [consumed_total / capacity_total] (0 when no capacity). *)

val goodput : report -> float
(** Fraction of offered computations that completed on time. *)

val run :
  ?cost_model:Cost_model.t ->
  ?true_cost_model:Cost_model.t ->
  ?dispatch:dispatch ->
  ?faults:Fault.plan ->
  ?repair:bool ->
  policy:Admission.policy ->
  Trace.t ->
  report
(** Replays the trace to its horizon.

    [cost_model] is what the {e reasoning} believes (admission prices
    requirements with it); [true_cost_model] (default: the same) is what
    execution {e actually} costs.  When they differ — the paper's
    "estimates could be used and revised as necessary" — even ROTA
    reservations can fall short and deadlines can be missed; see
    {!Calibration} for closing the gap.

    [faults] (default none) is a plan of unannounced failures delivered
    tick by tick, after the trace's declared events and before dispatch;
    an empty plan leaves the run byte-identical to one without the
    parameter.  [repair] (default [true]) enables the
    {!Rota_scheduler.Repair} ladder for commitments the faults break —
    only meaningful under a Rota-family policy with reservation dispatch
    (the baselines hold no commitments to repair).  Faults touch only
    affected commitments: survivors keep their exact reservations
    (Theorem 4 non-interference, tested as a qcheck invariant). *)

val pp_report : Format.formatter -> report -> unit
(** A one-line summary row. *)

val pp_type_stats : Format.formatter -> report -> unit
(** One line per resource type: capacity, consumed, utilization. *)

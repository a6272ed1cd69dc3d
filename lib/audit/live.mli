open Import

(** The incremental auditor core — one event in, at most one verdict
    out.

    This is the checker side of decision provenance, factored so the
    same code runs in two places: {!Audit.audit_file} drives it over a
    finished trace file, and {!Watchdog} drives it {e inside} the engine
    over events as they are emitted.  Because both are thin drivers over
    {!step}, an offline audit and a live watchdog of the same stream
    cannot disagree.

    State is the reconstructed world as of the last event: the run's
    capacity (joined slices minus fault slices), the commitment ledger
    (reservations and baseline demand windows currently in force) with
    the sum of its reservations kept as one cached set, and per-stream
    counters.  The capacity and the cached sum are truncated at the
    stream's simulated-time frontier, which never moves back within a
    run.  Memory is bounded by the number of {e live} commitments —
    every table entry is created by an admission and removed by its
    lifecycle event — never by stream length, so the watchdog can ride
    an unbounded trace; and a decision's check costs one resource-set
    difference (plus the digest), not a fold over the ledger. *)

type t
(** Mutable auditor state.  One [t] audits one event stream (possibly
    spanning several runs; a [run-started] event resets the ledger). *)

val create : unit -> t

type verdict =
  | Verified  (** The certificate re-verified against the reconstruction. *)
  | Skipped of string
      (** Could not be checked: no certificate recorded, or capacity
          terms missing (traces from older binaries). *)
  | Diverged of string list
      (** The checker disagrees with the decider; one message per
          complaint. *)

type outcome = {
  seq : int;  (** The decision event's sequence number. *)
  run : int;
  sim : int option;
  id : string;  (** The computation the decision was about. *)
  action : string;  (** ["admit"], ["reject"], ["evict"], ["repair"]. *)
  slug : string;  (** The decision's outcome slug, verbatim. *)
  certificate : Json.t;  (** The recorded certificate, verbatim. *)
  verdict : verdict;
}

val step : t -> Events.t -> outcome option
(** Feed one event, in stream order.  Non-decision events update the
    reconstruction and return [None]; a [decision] event is re-verified
    on the spot — {!Certificate.verify}, through the independent
    {!Rota.Accommodation.check_schedule} validator — and returns its
    outcome.  [audit-divergence] events (the watchdog's own reports) are
    ignored, so re-auditing a watchdogged trace reproduces the original
    verdicts and a watchdog observing its own emission cannot recurse. *)

(** {2 Counters} — totals since {!create}. *)

val events : t -> int
(** Events stepped (all kinds). *)

val runs : t -> int
val decisions : t -> int
val verified : t -> int
val skipped : t -> int
val diverged : t -> int
(** Decisions with at least one complaint. *)

val live_commitments : t -> int
(** Current ledger size — the quantity the memory bound is stated in. *)

val residual_digest : t -> (string, string) result
(** {!Certificate.digest} of the reconstructed residual as of the last
    event's simulated time — the recovery check: after replaying a
    write-ahead log, a restored controller's own residual must hash to
    exactly this, or the recovered state diverges from what the stream
    proves.  [Error] when capacity terms were missing from the stream
    (the residual cannot be reconstructed) or the reconstruction itself
    is inconsistent (commitments exceed capacity). *)

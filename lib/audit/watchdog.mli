open Import

(** The live audit watchdog: streaming in-engine certificate
    verification.

    A watchdog wraps a {!Live} auditor as a telemetry {!Sink} — teed
    next to the trace sink, it consumes every event as the engine emits
    it and re-verifies each decision certificate on the spot, through
    the same {!Live.step} the offline {!Audit.audit_file} drives.  A
    decider bug surfaces while the run is still going, not at the
    post-mortem.

    Divergences become first-class telemetry: each complaint is emitted
    back into the same trace as an [audit-divergence] event carrying the
    offending decision's seq/id/message, counted on the
    [audit/divergence] counter, and — in [Fail_fast] mode — raised as
    {!Trip} out of the emitting call. *)

type mode =
  | Warn  (** Report divergences (event + counter) and keep going. *)
  | Fail_fast
      (** Additionally raise {!Trip} at the first divergence, unwinding
          the run that emitted the bad decision. *)

exception Trip of { seq : int; id : string; message : string }
(** The first complaint of the tripping decision.  Raised from inside
    {!observe} — i.e. from inside the decider's own [Tracer.emit] — in
    [Fail_fast] mode. *)

type stats = {
  decisions : int;
  verified : int;
  skipped : int;
  divergences : int;  (** Complaints (a decision can carry several). *)
}

type t

val create :
  ?mode:mode -> ?on_outcome:(Live.outcome -> unit) -> ?live:Live.t -> unit -> t
(** [mode] defaults to [Warn].  [on_outcome] sees every decision's
    outcome as it is verified (before any [Fail_fast] raise) — the hook
    tests and [--follow] use.  [live] is the auditor to continue from
    (default: a fresh one, for a stream observed from its start): a
    restarted daemon passes the [Wal.recovery]'s, which has already
    stepped over the whole WAL, so its first live verdict is checked
    against the recovered state rather than an empty ledger. *)

val observe : t -> Events.t -> unit
(** Feed one event.  Every event is timed into the [audit/step_s]
    histogram (the cost of live assurance, on the scrape).  Counters
    touched per decision: [audit/verified], [audit/skipped], or
    [audit/divergence] (one per complaint), plus the [audit/lag] gauge —
    verification delay behind the event's [wall_s] stamp, in
    microseconds. *)

val sink : t -> Sink.t
(** The watchdog as a sink ({!observe} on emit, no-op close), ready to
    {!Sink.tee} next to the trace sink. *)

val stats : t -> stats
(** Totals since {!create}: only the decisions this watchdog observed.
    Decisions an adopted auditor ([create ~live]) had already verified —
    a recovered WAL's — are not counted; recovery reports those itself
    ([Wal.recovery]'s [verified]/[diverged]). *)

val no_stats : stats

val diff_stats : stats -> stats -> stats
(** [diff_stats later earlier] — the delta a scope (one engine run)
    contributed. *)

val pp_stats : Format.formatter -> stats -> unit
(** One summary line, e.g. ["watchdog: 124 decisions, 124 verified, 0
    skipped, 0 divergent -- every decision re-verified live"]. *)

val live : t -> Live.t
(** The underlying auditor (for {!Live.live_commitments} etc.). *)

(** {2 The process-global instance}

    The CLI installs one watchdog around a whole command (it can span
    several engine runs); the engine only {e snapshots} it, reporting
    the stats delta each run contributed in {!Rota_sim.Engine.report}. *)

val install : t -> unit
val uninstall : unit -> unit
val installed : unit -> t option

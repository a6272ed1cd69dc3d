open Import

(** The independent offline auditor — the checker side of decision
    provenance.

    [rota audit] replays a JSONL trace from nothing but the trace file:
    capacity is rebuilt from [capacity-joined]/[fault] slice terms, the
    commitment ledger from prior decision records and lifecycle events,
    and every decision's certificate is then re-verified against that
    reconstruction with {!Certificate.verify} — which goes through the
    independent {!Rota.Accommodation.check_schedule} validator, never
    through the greedy decision procedures that produced the schedule.
    A decider bug that emits an invalid schedule, or a trace that was
    tampered with after the fact, surfaces as a {e divergence} naming
    the offending decision.

    All the verification lives in {!Live}, the incremental core the
    in-engine {!Watchdog} also runs; this module is the thin
    file-shaped driver over it, so offline and live verdicts cannot
    drift.  The replay is streaming (one event at a time, via
    {!Trace_reader.fold_file}), so trace size is bounded only by
    disk. *)

module Live = Live
(** The incremental core, re-exported so [Audit.Live] names it. *)

type divergence = {
  seq : int;  (** The offending event's sequence number. *)
  run : int;
  id : string;  (** The computation the decision was about. *)
  message : string;
}

type report = {
  events : int;  (** Events replayed (all kinds). *)
  runs : int;
  decisions : int;  (** Decision records seen. *)
  verified : int;  (** Decisions whose certificate re-verified. *)
  skipped : int;
      (** Decisions that could not be checked: no certificate recorded,
          or the capacity terms needed to reconstruct the residual are
          missing (traces from older binaries). *)
  divergences : divergence list;  (** In file order. *)
  suppressed : int;  (** Divergences beyond the reporting cap. *)
  truncated : bool;
      (** The trace ends in a crash-cut partial line; everything before
          it was still audited. *)
}

val ok : report -> bool
(** No divergences (skipped decisions do not fail an audit — they are
    reported as a coverage gap instead; a truncated tail is a note, not
    a failure). *)

val pp_report : Format.formatter -> report -> unit

val fold_decisions :
  string ->
  init:'a ->
  f:('a -> Live.outcome -> 'a) ->
  ('a * Live.t * Trace_reader.tail, Trace_reader.error) result
(** The shared driver: step one fresh {!Live} auditor over the whole
    file and fold [f] over each decision's outcome, in file order.
    Returns the fold result together with the auditor (for its
    counters) and how the file ended. *)

val audit_file :
  ?max_divergences:int -> string -> (report, Trace_reader.error) result
(** Replay and re-verify the whole trace.  [max_divergences] (default
    100) bounds the divergence list; the remainder is counted in
    {!report.suppressed}.  [Error] means the file itself could not be
    read or parsed — verification failures are divergences, not errors. *)

val explain_file : string -> id:string -> (string list, Trace_reader.error) result
(** Every decision record about [id], rendered for humans: action, sim
    time, outcome slug, the certificate's theorem/breakpoint story
    ({!Certificate.pp}), and the auditor's verdict at that point of the
    replay.  Empty list: the trace has no decision about that id. *)

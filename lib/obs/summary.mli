(** Per-run and per-policy rollups of a telemetry event stream — the
    numbers behind [rota trace summarize] and [rota trace diff].

    The admission/completion story is aggregated per engine run
    (matching run-started envelopes), span wall-clock time is attributed
    per span name with {e self} time separated from {e total} time via
    the span id/parent linkage, and metric-sample events are regrouped
    into named time series. *)

type run = {
  run_id : int;
  label : string;  (** The run-started label, verbatim. *)
  policy : string;  (** Parsed from a [policy=...] label token; [""] if absent. *)
  horizon : int option;  (** Parsed from a [horizon=...] label token. *)
  capacity : int;  (** Sum of capacity-joined quantities. *)
  admitted : int;
  rejected : int;
  completed : int;
  killed : int;  (** Deadline kills = deadline misses among admitted. *)
  owed : int;  (** Total quantity still unfinished at kill time. *)
  decisions : int;  (** Decision-provenance records in the run. *)
  certified : int;
      (** Decisions carrying a certificate; [decisions - certified] is
          the coverage gap a full audit would have to skip (traces from
          older binaries, or uncertified policies). *)
  divergences : int;
      (** [audit-divergence] records the live watchdog emitted into the
          run — nonzero means the decider and checker disagreed. *)
  latencies : int array;
      (** Admission-to-completion times in simulated ticks, sorted
          ascending, one per completed computation. *)
  reject_reasons : (string * int) list;
      (** Reject counts bucketed by {!Slug.of_reason} — the same labels
          the metrics counters use — sorted count-descending then by
          name. *)
}

val offered : run -> int
(** [admitted + rejected]. *)

val admit_rate : run -> float
(** 0 when nothing was offered. *)

val latency_quantile : run -> float -> int
(** Nearest-rank quantile of {!field-latencies}; 0 when empty. *)

type span_stat = {
  span_name : string;
  count : int;
  total_s : float;  (** Summed durations (children included). *)
  self_s : float;
      (** Summed durations minus each span's direct children — time
          spent in the span itself.  Legacy spans without linkage
          (id 0) count wholly as self time. *)
  max_s : float;
}

type slow_span = { slow_name : string; slow_run : int; slow_s : float }
type series = { series_name : string; samples : (int option * float) list }

type hist_point = {
  hp_sim : int option;
  hp_count : int;  (** Cumulative observation count at sample time. *)
  hp_sum : float;
  hp_p50 : float;
  hp_p95 : float;
  hp_p99 : float;
  hp_max : float;
}

type hist_series = { hist_name : string; points : hist_point list }
(** One histogram's sampled snapshots ([hist-sample] events) in stream
    order — latency over time for the instrumented hot paths. *)

type t = {
  total_events : int;
  runs : run list;  (** In run-id order. *)
  span_stats : span_stat list;  (** Sorted by total time, descending. *)
  slowest : slow_span list;  (** Top-N individual spans by duration. *)
  series : series list;  (** Metric-sample series, sorted by name. *)
  hist_series : hist_series list;  (** Hist-sample series, sorted by name. *)
}

val of_events : ?top:int -> Events.t list -> t
(** [top] (default 10) bounds {!field-slowest}. *)

(** {1 Per-policy aggregation}

    [rota trace diff] compares two traces policy-by-policy; runs with
    the same [policy=] label are pooled first. *)

type agg = {
  agg_policy : string;
  agg_runs : int;
  agg_offered : int;
  agg_admitted : int;
  agg_completed : int;
  agg_killed : int;
  agg_owed : int;
  agg_latencies : int array;  (** Pooled and sorted ascending. *)
  agg_reject_reasons : (string * int) list;
      (** Pooled reject buckets, same ordering as {!run.reject_reasons}. *)
}

val by_policy : t -> agg list
(** In first-appearance order; runs without a policy label pool under
    ["(unlabelled)"]. *)

val agg_admit_rate : agg -> float
val agg_quantile : agg -> float -> int

open Import

(** The serve daemon's metric families, registered once and shared.

    Everything the daemon's scrape endpoint exports lives here: the
    request/latency histograms, the per-verb and per-shed-slug counters,
    the queue/connection gauges, and the SLO burn-rate gauges the
    {!Rota_obs.Slo} windows feed.  Registration is done at module
    initialisation (handles are interned by name), so the families
    appear in every scrape — zero-valued until traffic arrives — and
    the bench's instrumented/uninstrumented pair exercises exactly the
    code paths the daemon runs.

    All recording respects the global {!Metrics} enabled flag; with the
    registry off every helper is a load-and-branch. *)

(** {2 Histograms} *)

val rtt : Metrics.histogram
(** [server/rtt_s] — receipt to response-queued, seconds, per request. *)

val queue_wait : Metrics.histogram
(** [server/queue_wait_s] — FIFO wait before a decider picked the
    request up, seconds. *)

val fsync : Metrics.histogram
(** [server/fsync_s] — WAL group-commit flush+fsync, seconds, per
    batch. *)

val admit_slack : Metrics.histogram
(** [server/admit_slack] — deadline slack of each admitted computation,
    in simulated {e ticks} (deadline minus the certificate schedule's
    completion bound), with explicit small-integer buckets.  Slack 0
    means the schedule finishes exactly at the deadline; the lower this
    histogram leans, the closer the system sails to its promises. *)

(** {2 Gauges} *)

val queue_depth : Metrics.gauge
(** [server/queue_depth] — requests in the FIFO, sampled per loop tick. *)

val connections : Metrics.gauge
(** [server/connections] — live client connections. *)

val burn_5m : Metrics.gauge
val burn_1h : Metrics.gauge
(** [slo/burn_5m] / [slo/burn_1h] — error-budget burn rate over the
    trailing window, in {e milli-burns} (1000 = burning exactly at
    budget) because gauges are integers. *)

val set_burn : Metrics.gauge -> float -> unit
(** Store a {!Rota_obs.Slo.burn} reading on a burn gauge (×1000,
    rounded). *)

(** {2 Counters} *)

val wal_bytes : Metrics.counter
(** [server/wal_bytes] — bytes appended to the WAL. *)

val request_counter : string -> Metrics.counter
(** [server/requests.<verb>] — interned per verb. *)

val shed_counter : string -> Metrics.counter
(** [server/shed.<slug>] — interned per {!Shed} reject slug. *)

val verb_of_op : Wire.op -> string
(** The counter slug for an operation (["admit"], ["release"], ...);
    unparseable requests are counted under ["invalid"]. *)

val count_request : string -> unit
(** Bump [server/requests.<verb>]. *)

val count_shed : string -> unit
(** Bump [server/shed.<slug>]. *)

(** {2 Deadline slack} *)

val completion_bound : Certificate.t -> Time.t option
(** The latest simulated time the certificate's evidence says the
    computation can still be executing: the max schedule-step stop for
    constructive ({!Certificate.Schedules}) evidence, the window stop
    for the aggregate/optimistic baselines, [None] for reject
    evidence. *)

val observe_admit_slack : deadline:Time.t -> Certificate.t -> unit
(** Observe [deadline - completion_bound cert] on {!admit_slack}.  Free
    when the registry is disabled; skips certificates that carry reject
    evidence. *)

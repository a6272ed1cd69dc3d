(** The process-global event stream: one installed {!Sink}, a sequence
    counter, a run counter, and a span stack.

    With no sink installed every operation is a cheap no-op — one load
    and branch for {!emit}, and {!with_span} is exactly the thunk call —
    so instrumented code can emit unconditionally. *)

val install : Sink.t -> unit
(** Make [sink] the destination.  Any previously installed sink is
    closed first. *)

val uninstall : unit -> unit
(** Close and remove the installed sink (no-op when none). *)

val active : unit -> bool
(** Whether a sink is installed. *)

val emit : ?sim:int -> Events.payload -> unit
(** Stamp (seq, run, {!Clock.wall_s}) and deliver to the sink, if any. *)

val new_run : ?sim:int -> string -> int
(** Start a new run scope: increments the run id, emits
    {!Events.Run_started} with [label], returns the new id.  The id
    advances even with no sink installed, so runs stay distinguishable
    if a sink is installed mid-process. *)

val run_id : unit -> int
(** The current run id (0 before the first {!new_run}). *)

val with_span : ?sim:int -> string -> (unit -> 'a) -> 'a
(** Time the thunk and emit a {!Events.Span} record when it finishes
    (also on exceptions).  Spans nest: each open span is assigned a
    fresh process-wide id at entry and records the id of the span it
    nests inside, so the record carries its nesting depth {e and} the
    [id]/[parent] linkage plus the begin timestamp. *)

val alloc_span_id : unit -> int
(** Reserve a fresh process-wide span id without opening a span — for
    callers that time a scope manually across asynchronous boundaries
    (the serve daemon's per-request span) and build its record with
    {!span}.  Advances even with no sink installed, like {!new_run}. *)

val span :
  ?parent:int -> ?id:int -> ?depth:int -> string -> Clock.t -> Clock.t ->
  Events.payload
(** [span name t0 t1] is the one place a {!Events.Span} record is built:
    the scope ran from reading [t0] to reading [t1], so [begin_s] is
    [Clock.stamp t0] and [duration_s] is [Clock.between t0 t1] (never
    negative).  [id] defaults to a fresh {!alloc_span_id}; [depth] to 0
    without a [parent] and 1 with one (manually timed spans nest one
    level and do not use the span stack).  {!with_span} emits exactly
    this; so does the serve daemon for its request spans. *)

val set_sample_period : int -> unit
(** Cadence, in simulated ticks, at which the engine emits
    {!Events.Metric_sample} / {!Events.Hist_sample} events for every
    registered series.  0 (the default) disables sampling.  Negative
    values clamp to 0. *)

val sample_period : unit -> int

val samples_of_view : Metrics.view -> Events.payload list
(** The sample payloads a registry snapshot expands to: one
    {!Events.Metric_sample} per counter and gauge (tagged with its
    family), then one {!Events.Hist_sample} per non-empty histogram.
    Pure — {!sample_metrics} emits exactly this list, and the serve
    daemon's [metrics] verb returns it over the wire. *)

val sample_metrics : ?sim:int -> unit -> unit
(** Emit one {!Events.Metric_sample} per registered counter and gauge
    (tagged with its family) at their current values, then one
    {!Events.Hist_sample} per non-empty histogram (count, sum, observed
    range, p50/p95/p99).  A no-op unless a sink is installed {e and}
    the metrics registry is enabled (disabled metrics would sample
    frozen zeros). *)

val reset : unit -> unit
(** Uninstall any sink and zero the sequence/run/depth/span-id counters
    and the sample period.  Test helper. *)

(** The process's own resource footprint as registry series.

    Each {!update} folds the [Gc.quick_stat] delta since the previous
    call into [runtime/*] counters and gauges, so the periodic trace
    sampler ({!Tracer.sample_metrics}) and the OpenMetrics exporter see
    the engine's allocation and collection behaviour next to the
    admission series it is paying for:

    - [runtime/minor_words], [runtime/major_words],
      [runtime/promoted_words] — words allocated/promoted since the
      first update (counters; deltas accumulated per call);
    - [runtime/minor_collections], [runtime/major_collections],
      [runtime/compactions] — GC cycles since the first update;
    - [runtime/heap_words], [runtime/top_heap_words] — current and peak
      major-heap size (gauges);
    - [runtime/wall_us_per_tick] — real (monotonic) microseconds per simulated
      tick between the two most recent updates that both carried a
      [sim] stamp (gauge): the wall-vs-sim drift an overloaded engine
      shows first.

    Handles register lazily on the first {!update}, so processes that
    never sample never see [runtime/*] rows.  A no-op (beyond one flag
    read) while the metrics registry is disabled. *)

val update : ?sim:int -> unit -> unit
(** Take a [Gc.quick_stat] sample and fold the delta into the registry.
    The first call only establishes the baseline. *)

val reset : unit -> unit
(** Forget the baseline (the next {!update} starts a fresh delta
    window).  Test helper; also called between engine runs so drift
    never spans runs. *)

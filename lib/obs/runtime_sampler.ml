(* The engine's own resource footprint, folded into the metrics
   registry so the periodic sampler sweeps it into the trace alongside
   the admission series.

   Handles are registered lazily on the first [update] — a process that
   never samples never grows runtime/* rows in its metrics tables. *)

type handles = {
  c_minor_words : Metrics.counter;
  c_major_words : Metrics.counter;
  c_promoted_words : Metrics.counter;
  c_minor_collections : Metrics.counter;
  c_major_collections : Metrics.counter;
  c_compactions : Metrics.counter;
  g_heap_words : Metrics.gauge;
  g_top_heap_words : Metrics.gauge;
  g_wall_us_per_tick : Metrics.gauge;
}

let handles =
  lazy
    {
      c_minor_words = Metrics.counter "runtime/minor_words";
      c_major_words = Metrics.counter "runtime/major_words";
      c_promoted_words = Metrics.counter "runtime/promoted_words";
      c_minor_collections = Metrics.counter "runtime/minor_collections";
      c_major_collections = Metrics.counter "runtime/major_collections";
      c_compactions = Metrics.counter "runtime/compactions";
      g_heap_words = Metrics.gauge "runtime/heap_words";
      g_top_heap_words = Metrics.gauge "runtime/top_heap_words";
      g_wall_us_per_tick = Metrics.gauge "runtime/wall_us_per_tick";
    }

type baseline = {
  b_stat : Gc.stat;
  b_wall : Clock.t;
  b_sim : int option;
}

let last : baseline option ref = ref None

let reset () = last := None

(* Allocation totals are floats of words; the registry counts ints.
   Truncation loses less than a word per sample, which is noise next to
   the 10^5-word-per-tick signal. *)
let words f = int_of_float f

let update ?sim () =
  if Metrics.enabled () then begin
    let h = Lazy.force handles in
    let q = Gc.quick_stat () in
    let wall = Clock.now () in
    (match !last with
    | None -> ()
    | Some b ->
        let d f = f q -. f b.b_stat in
        Metrics.add h.c_minor_words (words (d (fun s -> s.Gc.minor_words)));
        Metrics.add h.c_major_words (words (d (fun s -> s.Gc.major_words)));
        Metrics.add h.c_promoted_words
          (words (d (fun s -> s.Gc.promoted_words)));
        Metrics.add h.c_minor_collections
          (q.Gc.minor_collections - b.b_stat.Gc.minor_collections);
        Metrics.add h.c_major_collections
          (q.Gc.major_collections - b.b_stat.Gc.major_collections);
        Metrics.add h.c_compactions (q.Gc.compactions - b.b_stat.Gc.compactions);
        (* Wall-vs-sim drift: real microseconds burned per
           simulated tick since the previous sample.  Needs two samples
           with advancing simulated time; otherwise the gauge keeps its
           last value. *)
        (match (sim, b.b_sim) with
        | Some t1, Some t0 when t1 > t0 ->
            Metrics.set h.g_wall_us_per_tick
              (int_of_float
                 (1e6 *. Clock.between b.b_wall wall /. float_of_int (t1 - t0)))
        | _ -> ()));
    Metrics.set h.g_heap_words q.Gc.heap_words;
    Metrics.set h.g_top_heap_words q.Gc.top_heap_words;
    last := Some { b_stat = q; b_wall = wall; b_sim = sim }
  end

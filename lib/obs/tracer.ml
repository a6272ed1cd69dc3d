let sink : Sink.t option ref = ref None
let seq = ref 0
let run = ref 0
let depth = ref 0
let next_span_id = ref 0
let open_spans : int list ref = ref []  (* innermost first *)
let period = ref 0

let uninstall () =
  match !sink with
  | Some s ->
      sink := None;
      s.Sink.close ()
  | None -> ()

let install s =
  uninstall ();
  sink := Some s

let active () = Option.is_some !sink

let emit ?sim payload =
  match !sink with
  | None -> ()
  | Some s ->
      incr seq;
      s.Sink.emit
        {
          Events.seq = !seq;
          run = !run;
          sim;
          wall_s = Clock.wall_s ();
          payload;
        }

let new_run ?sim label =
  incr run;
  emit ?sim (Events.Run_started { label });
  !run

let run_id () = !run

let alloc_span_id () =
  incr next_span_id;
  !next_span_id

let span ?parent ?id ?depth name t0 t1 =
  let id = match id with Some i -> i | None -> alloc_span_id () in
  let depth =
    match depth with Some d -> d | None -> if parent = None then 0 else 1
  in
  Events.Span
    {
      name;
      id;
      parent;
      depth;
      begin_s = Clock.stamp t0;
      duration_s = Clock.between t0 t1;
    }

let with_span ?sim name f =
  match !sink with
  | None -> f ()
  | Some _ ->
      let d = !depth in
      let parent = match !open_spans with [] -> None | p :: _ -> Some p in
      let id = alloc_span_id () in
      depth := d + 1;
      open_spans := id :: !open_spans;
      let t0 = Clock.now () in
      let finally () =
        depth := d;
        (open_spans :=
           match !open_spans with
           | s :: rest when s = id -> rest
           | stack -> stack);
        emit ?sim (span ?parent ~id ~depth:d name t0 (Clock.now ()))
      in
      Fun.protect ~finally f

let set_sample_period n = period := max 0 n
let sample_period () = !period

let samples_of_view (view : Metrics.view) =
  let scalar family (name, v) =
    Events.Metric_sample
      { name; value = float_of_int v; family = Some family }
  in
  List.concat
    [
      List.map (scalar "counter") view.Metrics.counters;
      List.map (scalar "gauge") view.Metrics.gauges;
      List.filter_map
        (fun (h : Metrics.histogram_view) ->
          if h.count = 0 then None
          else
            Some
              (Events.Hist_sample
                 {
                   name = h.hname;
                   count = h.count;
                   sum = h.sum;
                   min_v = h.min_v;
                   max_v = h.max_v;
                   p50 = h.p50;
                   p95 = h.p95;
                   p99 = h.p99;
                 }))
        view.Metrics.histograms;
    ]

let sample_metrics ?sim () =
  if active () && Metrics.enabled () then
    List.iter (emit ?sim) (samples_of_view (Metrics.snapshot ()))

let reset () =
  uninstall ();
  seq := 0;
  run := 0;
  depth := 0;
  next_span_id := 0;
  open_spans := [];
  period := 0

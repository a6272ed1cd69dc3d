(* Tests for the live telemetry plane: OpenMetrics rendering and
   linting, the trace-sampled histogram snapshots (hist-sample), the
   runtime sampler, and the [rota top] dashboard fold. *)

module Metrics = Rota_obs.Metrics
module Events = Rota_obs.Events
module Tracer = Rota_obs.Tracer
module Sink = Rota_obs.Sink
module Openmetrics = Rota_obs.Openmetrics
module Summary = Rota_obs.Summary
module Top = Rota_obs.Top
module Runtime_sampler = Rota_obs.Runtime_sampler

(* Metrics and the tracer are process-global; every test starts from a
   clean slate and leaves recording off. *)
let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())

let with_tracer f =
  Tracer.reset ();
  Fun.protect f ~finally:Tracer.reset

let event ?sim ?(seq = 1) ?(run = 1) payload =
  { Events.seq; run; sim; wall_s = 1754500000.0625; payload }

let count_true hay needle =
  let n = String.length needle in
  let found = ref false in
  for i = 0 to String.length hay - n do
    if String.sub hay i n = needle then found := true
  done;
  !found

let check_lints what text =
  match Openmetrics.lint text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s failed lint: %s\n%s" what msg text

(* --- OpenMetrics rendering ------------------------------------------------- *)

(* The full rendering contract in one golden string: name sanitisation
   (['/'] and spaces to ['_'], leading digits prefixed), the trailing
   [.slug] to a label with value escaping, counter [_total] suffixes,
   and cumulative histogram buckets ending in +Inf == _count.  Values
   are dyadic so the float formatting is exact. *)
let test_render_golden () =
  with_metrics @@ fun () ->
  Metrics.add (Metrics.counter "engine/runs") 3;
  Metrics.incr (Metrics.counter "test/esc.a\"b\\c");
  Metrics.set (Metrics.gauge "9queue depth") 7;
  let h = Metrics.histogram ~buckets:[| 0.25; 2. |] "test/decide_s.rota" in
  List.iter (Metrics.observe h) [ 0.125; 0.5; 4.0 ];
  let expected =
    "# TYPE engine_runs counter\n"
    ^ "engine_runs_total 3\n"
    ^ "# TYPE test_esc counter\n"
    ^ "test_esc_total{slug=\"a\\\"b\\\\c\"} 1\n"
    ^ "# TYPE _9queue_depth gauge\n"
    ^ "_9queue_depth 7\n"
    ^ "# TYPE test_decide_s histogram\n"
    ^ "test_decide_s_bucket{slug=\"rota\",le=\"0.25\"} 1\n"
    ^ "test_decide_s_bucket{slug=\"rota\",le=\"2\"} 2\n"
    ^ "test_decide_s_bucket{slug=\"rota\",le=\"+Inf\"} 3\n"
    ^ "test_decide_s_sum{slug=\"rota\"} 4.625\n"
    ^ "test_decide_s_count{slug=\"rota\"} 3\n"
    ^ "# EOF\n"
  in
  let out = Openmetrics.render (Metrics.snapshot ()) in
  Alcotest.(check string) "golden render" expected out;
  check_lints "golden" out

let test_render_empty_registry () =
  (* A literal empty view: the process registry keeps registrations
     alive across tests, so an in-registry check would be order
     dependent. *)
  let out =
    Openmetrics.render { Metrics.counters = []; gauges = []; histograms = [] }
  in
  Alcotest.(check string) "empty registry" "# EOF\n" out;
  check_lints "empty" out

let test_render_slug_family_sharing () =
  (* Per-policy series share one family: two slugs, one # TYPE. *)
  with_metrics @@ fun () ->
  Metrics.incr (Metrics.counter "admission/admitted.rota");
  Metrics.add (Metrics.counter "admission/admitted.optimistic") 2;
  let out = Openmetrics.render (Metrics.snapshot ()) in
  let count_substr needle hay =
    let n = String.length needle in
    let found = ref 0 in
    for i = 0 to String.length hay - n do
      if String.sub hay i n = needle then incr found
    done;
    !found
  in
  Alcotest.(check int) "one family declaration" 1
    (count_substr "# TYPE admission_admitted counter" out);
  Alcotest.(check int) "two slug samples" 2
    (count_substr "admission_admitted_total{slug=" out);
  check_lints "slug sharing" out

let test_render_type_collision_renames () =
  (* A counter and a gauge collapsing onto one family name: the later
     family is renamed so no family is declared twice, and the result
     still lints. *)
  with_metrics @@ fun () ->
  Metrics.incr (Metrics.counter "test/clash");
  Metrics.set (Metrics.gauge "test/clash") 4;
  let out = Openmetrics.render (Metrics.snapshot ()) in
  Alcotest.(check bool) "renamed gauge family present" true
    (count_true out "# TYPE test_clash_gauge gauge");
  check_lints "type collision" out

(* --- lint rejects what scrapers reject ------------------------------------- *)

let test_lint_rejections () =
  let bad what text =
    match Openmetrics.lint text with
    | Ok () -> Alcotest.failf "lint accepted %s:\n%s" what text
    | Error _ -> ()
  in
  bad "missing EOF" "# TYPE a counter\na_total 1\n";
  bad "content after EOF" "# EOF\na 1\n";
  bad "blank line" "\n# EOF\n";
  bad "invalid name" "2bad 1\n# EOF\n";
  bad "family declared twice" "# TYPE a counter\n# TYPE a counter\n# EOF\n";
  bad "unterminated labels" "a{x=\"y\" 1\n# EOF\n";
  bad "missing value" "a\n# EOF\n";
  bad "decreasing buckets"
    ("# TYPE h histogram\n" ^ "h_bucket{le=\"1\"} 5\n"
   ^ "h_bucket{le=\"2\"} 3\n" ^ "h_bucket{le=\"+Inf\"} 5\n" ^ "h_sum 1\n"
   ^ "h_count 5\n" ^ "# EOF\n");
  bad "+Inf bucket missing"
    ("# TYPE h histogram\n" ^ "h_bucket{le=\"1\"} 5\n" ^ "h_sum 1\n"
   ^ "h_count 5\n" ^ "# EOF\n");
  bad "+Inf <> count"
    ("# TYPE h histogram\n" ^ "h_bucket{le=\"1\"} 2\n"
   ^ "h_bucket{le=\"+Inf\"} 4\n" ^ "h_sum 1\n" ^ "h_count 5\n" ^ "# EOF\n")

(* QCheck: whatever ends up in the registry, the render lints.  Names
   draw from a pool that exercises slug splitting, sanitisation, and
   family collisions; values are arbitrary. *)
let name_pool =
  [
    "a";
    "9starts/with digit";
    "test/clash";
    "test/clash.rota";
    "test/clash.opt\"imistic";
    "weird name.with\\slug";
    "x_s.rota";
    "x_s";
    "...";
  ]

let prop_render_always_lints =
  let gen =
    QCheck.(
      small_list
        (triple (int_range 0 (List.length name_pool - 1)) (int_range 0 2)
           (float_range 0. 10.)))
  in
  QCheck.Test.make ~name:"every registry snapshot renders lint-clean" ~count:200
    gen (fun ops ->
      with_metrics @@ fun () ->
      List.iter
        (fun (name_i, kind, v) ->
          let name = List.nth name_pool name_i in
          match kind with
          | 0 -> Metrics.add (Metrics.counter name) (int_of_float v)
          | 1 -> Metrics.set (Metrics.gauge name) (int_of_float v)
          | _ -> Metrics.observe (Metrics.histogram name) v)
        ops;
      match Openmetrics.lint (Openmetrics.render (Metrics.snapshot ())) with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "lint: %s" msg)

(* --- trace reconstruction -------------------------------------------------- *)

let test_render_events () =
  let events =
    [
      event ~seq:1
        (Events.Metric_sample
           { name = "engine/ticks"; value = 100.; family = Some "counter" });
      (* Later sample wins. *)
      event ~seq:2
        (Events.Metric_sample
           { name = "engine/ticks"; value = 160.; family = Some "counter" });
      (* Untagged (old trace) renders as a gauge. *)
      event ~seq:3
        (Events.Metric_sample
           { name = "legacy/level"; value = 5.; family = None });
      event ~seq:4
        (Events.Hist_sample
           {
             name = "test/decide_s.rota";
             count = 8;
             sum = 0.5;
             min_v = 0.015625;
             max_v = 0.25;
             p50 = 0.03125;
             p95 = 0.125;
             p99 = 0.25;
           });
    ]
  in
  let out = Openmetrics.render_events events in
  let has needle = count_true out needle in
  Alcotest.(check bool) "counter typed from family tag" true
    (has "# TYPE engine_ticks counter" && has "engine_ticks_total 160");
  Alcotest.(check bool) "untagged sample is a gauge" true
    (has "# TYPE legacy_level gauge" && has "legacy_level 5");
  (* No bucket bounds in the trace: histograms come back as summaries. *)
  Alcotest.(check bool) "hist-sample renders as summary" true
    (has "# TYPE test_decide_s summary"
    && has "test_decide_s{slug=\"rota\",quantile=\"0.5\"} 0.03125"
    && has "test_decide_s_count{slug=\"rota\"} 8");
  check_lints "render_events" out

(* --- sampling plumbing ----------------------------------------------------- *)

let test_sampler_emits_hist_samples () =
  with_tracer @@ fun () ->
  with_metrics @@ fun () ->
  let sink, captured = Sink.memory () in
  Tracer.install sink;
  Metrics.add (Metrics.counter "test/c") 2;
  Metrics.set (Metrics.gauge "test/g") 9;
  let h = Metrics.histogram ~buckets:[| 1.; 2. |] "test/h_s" in
  Metrics.observe h 0.5;
  Metrics.observe h 1.5;
  (* An empty histogram must not produce a hist-sample. *)
  ignore (Metrics.histogram ~buckets:[| 1. |] "test/empty_s");
  Tracer.sample_metrics ~sim:42 ();
  let events = captured () in
  let find p = List.filter_map (fun e -> p e.Events.payload) events in
  (match
     find (function
       | Events.Metric_sample { name = "test/c"; value; family } ->
           Some (value, family)
       | _ -> None)
   with
  | [ (2., Some "counter") ] -> ()
  | _ -> Alcotest.fail "counter sample missing or mistagged");
  (match
     find (function
       | Events.Metric_sample { name = "test/g"; value; family } ->
           Some (value, family)
       | _ -> None)
   with
  | [ (9., Some "gauge") ] -> ()
  | _ -> Alcotest.fail "gauge sample missing or mistagged");
  (match
     find (function
       | Events.Hist_sample { name = "test/h_s"; count; sum; p50; _ } ->
           Some (count, sum, p50)
       | _ -> None)
   with
  | [ (2, 2.0, p50) ] ->
      Alcotest.(check bool) "p50 within observed range" true
        (p50 >= 0.5 && p50 <= 1.5)
  | _ -> Alcotest.fail "hist-sample missing or wrong");
  Alcotest.(check int) "empty histogram skipped" 0
    (List.length
       (find (function
         | Events.Hist_sample { name = "test/empty_s"; _ } -> Some ()
         | _ -> None)));
  (* Every sampled event carries the sim stamp. *)
  List.iter
    (fun e ->
      match e.Events.payload with
      | Events.Metric_sample _ | Events.Hist_sample _ ->
          Alcotest.(check (option int)) "sim stamp" (Some 42) e.Events.sim
      | _ -> ())
    events

let test_summary_hist_series () =
  let hist ~seq ~sim ~count ~p95 =
    event ~seq ~sim
      (Events.Hist_sample
         {
           name = "test/h_s";
           count;
           sum = float_of_int count;
           min_v = 0.5;
           max_v = 2.;
           p50 = 1.;
           p95;
           p99 = 2.;
         })
  in
  let s =
    Summary.of_events
      [
        event ~seq:1 ~sim:0 (Events.Run_started { label = "engine policy=rota" });
        hist ~seq:2 ~sim:10 ~count:3 ~p95:1.5;
        hist ~seq:3 ~sim:20 ~count:7 ~p95:1.75;
      ]
  in
  match s.Summary.hist_series with
  | [ { Summary.hist_name = "test/h_s"; points = [ p1; p2 ] } ] ->
      Alcotest.(check (option int)) "first sim" (Some 10) p1.Summary.hp_sim;
      Alcotest.(check int) "first count" 3 p1.Summary.hp_count;
      Alcotest.(check (float 0.)) "first p95" 1.5 p1.Summary.hp_p95;
      Alcotest.(check int) "second count" 7 p2.Summary.hp_count;
      Alcotest.(check (float 0.)) "second p95" 1.75 p2.Summary.hp_p95
  | hs ->
      Alcotest.failf "expected one series with two points, got %d series"
        (List.length hs)

let test_metric_sample_backward_compat () =
  (* A metric-sample line written before the family tag existed: parses
     with [family = None] and re-serializes byte-identically. *)
  let old_line =
    "{\"seq\":3,\"run\":1,\"sim\":40,\"wall_s\":1.5,\"kind\":\"metric-sample\",\
     \"name\":\"engine/ticks\",\"value\":160.0}"
  in
  (match Events.of_line ~strict:true old_line with
  | Error msg -> Alcotest.failf "old line failed to parse: %s" msg
  | Ok e -> (
      (match e.Events.payload with
      | Events.Metric_sample { name = "engine/ticks"; value = 160.; family } ->
          Alcotest.(check (option string)) "family defaults to None" None family
      | _ -> Alcotest.fail "expected a metric-sample payload");
      Alcotest.(check string) "old line reserializes byte-identically" old_line
        (Events.to_line e)));
  (* And a new untagged event never invents a family field. *)
  let line =
    Events.to_line
      (event
         (Events.Metric_sample
            { name = "engine/ticks"; value = 160.; family = None }))
  in
  let contains hay needle = count_true hay needle in
  Alcotest.(check bool) "no family field when untagged" false
    (contains line "family")

(* --- runtime sampler ------------------------------------------------------- *)

let test_runtime_sampler_series () =
  with_metrics @@ fun () ->
  Runtime_sampler.reset ();
  Runtime_sampler.update ~sim:0 ();
  (* Allocate enough to move the minor-words counter. *)
  let junk = ref [] in
  for i = 0 to 50_000 do
    junk := (i, float_of_int i) :: !junk
  done;
  ignore (Sys.opaque_identity !junk);
  Runtime_sampler.update ~sim:100 ();
  let c name = Metrics.counter_value (Metrics.counter name) in
  let g name = Metrics.gauge_value (Metrics.gauge name) in
  Alcotest.(check bool) "minor words counted" true
    (c "runtime/minor_words" > 0);
  Alcotest.(check bool) "heap gauge set" true (g "runtime/heap_words" > 0);
  Alcotest.(check bool) "drift gauge nonnegative" true
    (g "runtime/wall_us_per_tick" >= 0)

let test_runtime_sampler_disabled_is_silent () =
  Metrics.reset ();
  Metrics.set_enabled false;
  Runtime_sampler.reset ();
  Runtime_sampler.update ~sim:0 ();
  Runtime_sampler.update ~sim:10 ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      Alcotest.(check int) "no words recorded while disabled" 0
        (Metrics.counter_value (Metrics.counter "runtime/minor_words")))

(* --- snapshot sink --------------------------------------------------------- *)

let test_snapshot_sink_writes_periodically () =
  with_metrics @@ fun () ->
  Metrics.add (Metrics.counter "test/snap") 1;
  let path = Filename.temp_file "rota-om-test" ".prom" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Sys.remove path;
  let sink = Openmetrics.snapshot_sink ~every:2 path in
  let e = event (Events.Completed { id = "c1" }) in
  sink.Sink.emit e;
  Alcotest.(check bool) "below threshold, no write yet" false
    (Sys.file_exists path);
  sink.Sink.emit e;
  Alcotest.(check bool) "written after every-th event" true
    (Sys.file_exists path);
  Metrics.add (Metrics.counter "test/snap") 9;
  sink.Sink.close ();
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Alcotest.(check bool) "close refreshes the snapshot" true
    (count_true contents "test_snap_total 10");
  check_lints "snapshot file" contents

(* --- rota top -------------------------------------------------------------- *)

let test_top_frame () =
  let t = Top.create ~source:"e11.jsonl" () in
  let feed seq sim payload = Top.step t (event ~seq ~sim payload) in
  feed 1 0 (Events.Run_started { label = "engine policy=rota horizon=160" });
  let decision id action =
    Events.Decision
      { id; policy = "rota"; action; slug = "ok"; certificate = Rota_obs.Json.Null;
        cid = None }
  in
  feed 2 1 (decision "c1" "admit");
  feed 3 1 (decision "c2" "admit");
  feed 4 2 (decision "c3" "reject");
  feed 5 8 (Events.Completed { id = "c1" });
  feed 6 12 (Events.Killed { id = "c2"; owed = 3 });
  feed 7 20
    (Events.Metric_sample
       { name = "audit/verified"; value = 11.; family = Some "counter" });
  feed 8 20
    (Events.Metric_sample
       { name = "audit/lag"; value = 2.; family = Some "gauge" });
  feed 9 20
    (Events.Hist_sample
       {
         name = "admission/decision_s.rota";
         count = 3;
         sum = 0.000732421875;
         min_v = 6.103515625e-05;
         max_v = 0.00048828125;
         p50 = 0.0001220703125;
         p95 = 0.00048828125;
         p99 = 0.00048828125;
       });
  feed 10 30
    (Events.Audit_divergence
       { id = "c9"; action = "admit"; of_seq = 4; message = "certificate lies" });
  let frame = Top.render ~width:72 ~following:false t in
  let has needle =
    Alcotest.(check bool) (needle ^ " in frame") true (count_true frame needle)
  in
  has "e11.jsonl";
  has "once";
  has "engine policy=rota horizon=160";
  has "admitted 2";
  has "rejected 1";
  has "completed 1";
  has "killed 1";
  has "divergent 1";
  has "verified 11";
  has "lag 2";
  has "admission/decision_s.rota";
  has "audit/lag";
  (* Identical events, identical frame — the --once/live equivalence the
     module promises. *)
  Alcotest.(check string) "render is pure" frame
    (Top.render ~width:72 ~following:false t)

(* --------------------------------------------------------------------------- *)

let () =
  Alcotest.run "telemetry"
    [
      ( "openmetrics",
        [
          Alcotest.test_case "golden render" `Quick test_render_golden;
          Alcotest.test_case "empty registry" `Quick test_render_empty_registry;
          Alcotest.test_case "slugs share a family" `Quick
            test_render_slug_family_sharing;
          Alcotest.test_case "type collisions rename" `Quick
            test_render_type_collision_renames;
          Alcotest.test_case "lint rejections" `Quick test_lint_rejections;
          QCheck_alcotest.to_alcotest prop_render_always_lints;
        ] );
      ( "trace reconstruction",
        [
          Alcotest.test_case "render_events" `Quick test_render_events;
          Alcotest.test_case "sampler emits hist-samples" `Quick
            test_sampler_emits_hist_samples;
          Alcotest.test_case "summary hist series" `Quick
            test_summary_hist_series;
          Alcotest.test_case "metric-sample backward compat" `Quick
            test_metric_sample_backward_compat;
        ] );
      ( "runtime sampler",
        [
          Alcotest.test_case "gc series" `Quick test_runtime_sampler_series;
          Alcotest.test_case "disabled is silent" `Quick
            test_runtime_sampler_disabled_is_silent;
        ] );
      ( "export",
        [
          Alcotest.test_case "snapshot sink" `Quick
            test_snapshot_sink_writes_periodically;
        ] );
      ( "top",
        [ Alcotest.test_case "dashboard frame" `Quick test_top_frame ] );
    ]

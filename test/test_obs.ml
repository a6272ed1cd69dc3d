(* Tests for the telemetry layer (Rota_obs): metrics registry semantics,
   span nesting, the JSONL codec, and the engine's event stream through
   an installed sink. *)

open Rota_interval
open Rota_resource
open Rota_actor
open Rota_scheduler
open Rota_sim
module Metrics = Rota_obs.Metrics
module Events = Rota_obs.Events
module Json = Rota_obs.Json
module Sink = Rota_obs.Sink
module Tracer = Rota_obs.Tracer
module Clock = Rota_obs.Clock

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

(* --- Counters & gauges ----------------------------------------------------- *)

let test_counter_semantics () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "test/counter" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "incr + add" 5 (Metrics.counter_value c);
  (* Interned: same name, same cell. *)
  Metrics.incr (Metrics.counter "test/counter");
  Alcotest.(check int) "interned by name" 6 (Metrics.counter_value c);
  (* Disabled mutations are dropped. *)
  Metrics.set_enabled false;
  Metrics.incr c;
  Metrics.add c 100;
  Alcotest.(check int) "disabled is a no-op" 6 (Metrics.counter_value c);
  Metrics.set_enabled true;
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes, handle survives" 0 (Metrics.counter_value c)

let test_gauge_semantics () =
  with_metrics @@ fun () ->
  let g = Metrics.gauge "test/gauge" in
  Metrics.set g 7;
  Metrics.set g 3;
  Alcotest.(check int) "last write wins" 3 (Metrics.gauge_value g);
  Metrics.set_enabled false;
  Metrics.set g 99;
  Alcotest.(check int) "disabled set dropped" 3 (Metrics.gauge_value g)

(* --- Histograms ------------------------------------------------------------ *)

let test_histogram_basic () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram ~buckets:[| 1.; 2.; 4. |] "test/hist-basic" in
  Alcotest.(check int) "empty count" 0 (Metrics.hist_count h);
  Alcotest.(check (float 0.)) "empty mean" 0. (Metrics.hist_mean h);
  Alcotest.(check (float 0.)) "empty quantile" 0. (Metrics.quantile h 0.5);
  List.iter (Metrics.observe h) [ 0.5; 1.0; 2.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 7.5 (Metrics.hist_sum h);
  Alcotest.(check (float 1e-9)) "mean" 1.875 (Metrics.hist_mean h);
  Metrics.set_enabled false;
  Metrics.observe h 100.;
  Alcotest.(check int) "disabled observe dropped" 4 (Metrics.hist_count h)

let test_histogram_quantile_boundaries () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram ~buckets:[| 1.; 2.; 4. |] "test/hist-bounds" in
  (* Cells: (0,1] gets 0.5 and 1.0; (1,2] gets 2.0; (2,4] gets 4.0. *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 2.0; 4.0 ];
  let q p = Metrics.quantile h p in
  (* Ranks landing exactly on a cumulative-count boundary return the
     bucket's upper bound exactly — no interpolation fuzz. *)
  Alcotest.(check (float 0.)) "q0.5 on bucket boundary" 1.0 (q 0.5);
  Alcotest.(check (float 0.)) "q0.75 on bucket boundary" 2.0 (q 0.75);
  Alcotest.(check (float 0.)) "q1.0 is the max" 4.0 (q 1.0);
  (* Interior ranks interpolate linearly inside the covering bucket. *)
  Alcotest.(check (float 1e-9)) "q0.25 interpolates" 0.5 (q 0.25);
  Alcotest.(check (float 0.)) "q0 is the min" 0.5 (q 0.)

let test_histogram_overflow_and_clamp () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram ~buckets:[| 1.; 2.; 4. |] "test/hist-over" in
  (* Past the last bucket: the overflow cell reports the true maximum. *)
  Metrics.observe h 100.;
  Alcotest.(check (float 0.)) "overflow reports true max" 100.
    (Metrics.quantile h 0.9);
  Metrics.reset ();
  (* A single observation low in a wide bucket: interpolation would
     reach toward the bucket's upper bound; clamping caps it at the
     observed max. *)
  Metrics.observe h 2.5;
  Alcotest.(check (float 0.)) "estimate clamped to observed max" 2.5
    (Metrics.quantile h 0.9)

let test_histogram_validation () =
  Alcotest.check_raises "empty buckets"
    (Invalid_argument "Metrics.histogram: empty bucket array") (fun () ->
      ignore (Metrics.histogram ~buckets:[||] "test/hist-empty"));
  Alcotest.check_raises "unsorted buckets"
    (Invalid_argument "Metrics.histogram: buckets must be strictly ascending")
    (fun () -> ignore (Metrics.histogram ~buckets:[| 2.; 1. |] "test/hist-bad"))

let test_histogram_bucket_mismatch () =
  (* Regression: re-registering a name with different buckets used to
     silently return the old histogram, dropping the caller's buckets. *)
  let h = Metrics.histogram ~buckets:[| 1.; 2.; 4. |] "test/hist-rereg" in
  Alcotest.check_raises "different buckets raise"
    (Invalid_argument
       "Metrics.histogram: \"test/hist-rereg\" re-registered with different \
        buckets") (fun () ->
      ignore (Metrics.histogram ~buckets:[| 1.; 3. |] "test/hist-rereg"));
  (* Same buckets and bucket-less lookups still intern. *)
  Alcotest.(check bool) "same buckets ok" true
    (h == Metrics.histogram ~buckets:[| 1.; 2.; 4. |] "test/hist-rereg");
  Alcotest.(check bool) "no buckets finds existing" true
    (h == Metrics.histogram "test/hist-rereg")

let test_time_records_duration () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "test/hist-time" in
  let x = Metrics.time h (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk result" 42 x;
  Alcotest.(check int) "one observation" 1 (Metrics.hist_count h);
  Alcotest.(check bool) "nonnegative duration" true (Metrics.hist_sum h >= 0.);
  (* Observes even when the thunk raises. *)
  (try Metrics.time h (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "observed on raise too" 2 (Metrics.hist_count h)

(* --- Spans ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_tracer @@ fun () ->
  let sink, captured = Sink.memory () in
  Tracer.install sink;
  let r =
    Tracer.with_span "outer" (fun () ->
        Tracer.with_span ~sim:3 "inner" (fun () -> "done"))
  in
  Alcotest.(check string) "value passes through" "done" r;
  match captured () with
  | [ e_inner; e_outer ] -> (
      Alcotest.(check bool) "seq increases" true (e_inner.Events.seq < e_outer.Events.seq);
      Alcotest.(check (option int)) "inner sim time" (Some 3) e_inner.Events.sim;
      match (e_inner.Events.payload, e_outer.Events.payload) with
      | ( Events.Span
            {
              name = "inner";
              depth = 1;
              duration_s = d_in;
              id = id_in;
              parent = p_in;
              begin_s = b_in;
            },
          Events.Span
            {
              name = "outer";
              depth = 0;
              duration_s = d_out;
              id = id_out;
              parent = p_out;
              begin_s = b_out;
            } ) ->
          Alcotest.(check bool) "outer spans at least as long" true (d_out >= d_in);
          (* The id/parent linkage reconstructs the nesting regardless of
             emission order (parents are emitted after children). *)
          Alcotest.(check (option int)) "inner's parent is outer" (Some id_out) p_in;
          Alcotest.(check (option int)) "outer has no parent" None p_out;
          Alcotest.(check bool) "ids distinct and positive" true
            (id_in > 0 && id_out > 0 && id_in <> id_out);
          Alcotest.(check bool) "outer begins first" true (b_out <= b_in)
      | _ -> Alcotest.fail "expected inner (depth 1) then outer (depth 0)")
  | es -> Alcotest.failf "expected 2 span events, got %d" (List.length es)

(* A manually timed span: its record comes from two clock readings, the
   begin stamp epoch-like and the duration their monotonic difference. *)
let test_span_from_readings () =
  let t0 = Clock.now () in
  let t1 = Clock.now () in
  Alcotest.(check bool) "readings never run backwards" true (Clock.between t0 t1 >= 0.);
  Alcotest.(check bool) "stamps are epoch seconds" true
    (Float.abs (Clock.wall_s () -. Unix.gettimeofday ()) < 3600.);
  match Tracer.span ~parent:7 "manual" t0 t1 with
  | Events.Span { name = "manual"; parent = Some 7; depth = 1; id; begin_s; duration_s } ->
      Alcotest.(check (float 0.)) "begin is the start stamp" (Clock.stamp t0) begin_s;
      Alcotest.(check (float 0.)) "duration is the reading difference"
        (Clock.between t0 t1) duration_s;
      Alcotest.(check bool) "fresh id" true (id > 0)
  | _ -> Alcotest.fail "expected a depth-1 span under parent 7"

let test_span_without_sink () =
  with_tracer @@ fun () ->
  Alcotest.(check bool) "no sink" false (Tracer.active ());
  Alcotest.(check int) "with_span is the thunk" 9
    (Tracer.with_span "quiet" (fun () -> 9))

(* --- JSONL codec ------------------------------------------------------------ *)

(* A serialized certificate as the engine would attach it; the codec
   carries it verbatim, so any JSON object exercises the path. *)
let cert_json =
  Json.Obj
    [
      ("theorem", Json.String "T4");
      ("digest", Json.String "4909ae3863d70ea6");
      ("evidence", Json.Obj [ ("kind", Json.String "infeasible") ]);
    ]

let rects_json =
  Json.List
    [
      Json.Obj
        [
          ("type", Json.String "cpu@l1");
          ("start", Json.Int 0);
          ("stop", Json.Int 40);
          ("rate", Json.Int 2);
        ];
    ]

let all_payloads =
  [
    Events.Run_started { label = "engine policy=rota" };
    Events.Capacity_joined { quantity = 120; terms = Json.Null };
    Events.Capacity_joined { quantity = 80; terms = rects_json };
    (* Legacy per-decision records: strict mode still accepts them, as
       pass-through Unknown payloads. *)
    Events.Unknown
      {
        kind = "admitted";
        fields =
          [
            ("id", Json.String "c001");
            ("policy", Json.String "rota");
            ("reason", Json.String "reservation committed");
          ];
      };
    Events.Decision
      {
        id = "c002";
        policy = "rota";
        action = "reject";
        slug = "no-accommodating-schedule";
        certificate = cert_json;
        cid = None;
      };
    Events.Decision
      {
        id = "c009";
        policy = "optimistic";
        action = "admit";
        slug = "admitted-without-schedule-check";
        certificate = Json.Null;
        cid = Some "s-42";
      };
    Events.Shed
      {
        id = "c010";
        slug = "queue-full";
        reason = "queue full (64 outstanding)";
      };
    Events.Completed { id = "c001" };
    Events.Killed { id = "c003"; owed = 7 };
    Events.Fault_injected { fault = "revocation"; quantity = 30; terms = rects_json };
    Events.Fault_injected { fault = "slowdown"; quantity = 0; terms = Json.Null };
    Events.Commitment_revoked { id = "c004"; quantity = 12 };
    Events.Commitment_degraded { id = "c005"; extra = 4; released = true };
    Events.Commitment_degraded { id = "c006"; extra = 2; released = false };
    Events.Repaired { id = "c004"; rung = "migrate"; attempt = 1; certificate = cert_json };
    Events.Preempted { id = "c007"; owed = 3 };
    Events.Anomaly { id = "c008"; reason = "repair pass skipped" };
    Events.Span
      {
        name = "engine/run";
        id = 4;
        parent = Some 2;
        depth = 0;
        begin_s = 1754499999.5;
        duration_s = 0.001953125;
      };
    Events.Metric_sample { name = "engine/ticks"; value = 160.; family = None };
    Events.Metric_sample
      { name = "engine/runs"; value = 1.; family = Some "counter" };
    Events.Hist_sample
      {
        name = "admission/decision_s.rota";
        count = 42;
        sum = 0.001953125;
        min_v = 6.103515625e-05;
        max_v = 0.000244140625;
        p50 = 0.0001220703125;
        p95 = 0.000244140625;
        p99 = 0.000244140625;
      };
  ]

let test_jsonl_roundtrip () =
  List.iteri
    (fun i payload ->
      let sim = if i mod 2 = 0 then Some (i * 5) else None in
      let e =
        { Events.seq = i + 1; run = 1; sim; wall_s = 1754500000.0625; payload }
      in
      match Events.of_line ~strict:true (Events.to_line e) with
      | Ok e' ->
          Alcotest.(check bool)
            (Printf.sprintf "%s round-trips" (Events.kind payload))
            true (e = e')
      | Error msg ->
          Alcotest.failf "%s failed to parse: %s" (Events.kind payload) msg)
    all_payloads

let test_jsonl_rejects_garbage () =
  let bad s =
    match Events.of_line s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "not json";
  bad "{\"seq\":1}";
  (* An unknown kind is only an error in strict mode. *)
  (match
     Events.of_line ~strict:true
       "{\"seq\":1,\"run\":0,\"sim\":null,\"wall_s\":0.0,\"kind\":\"martian\"}"
   with
  | Ok _ -> Alcotest.fail "strict mode accepted an unknown kind"
  | Error _ -> ())

let test_unknown_kind_forward_compat () =
  (* A trace written by a newer binary parses leniently to Unknown and
     re-serializes with its payload fields intact. *)
  let line =
    "{\"seq\":7,\"run\":2,\"sim\":9,\"wall_s\":1.5,\"kind\":\"martian\",\
     \"temp\":3,\"tag\":\"x\"}"
  in
  match Events.of_line line with
  | Error msg -> Alcotest.failf "lenient parse failed: %s" msg
  | Ok e -> (
      (match e.Events.payload with
      | Events.Unknown { kind = "martian"; fields } ->
          Alcotest.(check int) "payload fields preserved" 2 (List.length fields)
      | _ -> Alcotest.fail "expected Unknown payload");
      Alcotest.(check int) "envelope seq" 7 e.Events.seq;
      Alcotest.(check (option int)) "envelope sim" (Some 9) e.Events.sim;
      (* Round-trip: the re-serialized line parses back to the same event. *)
      match Events.of_line (Events.to_line e) with
      | Ok e' -> Alcotest.(check bool) "unknown round-trips" true (e = e')
      | Error msg -> Alcotest.failf "re-parse failed: %s" msg)

let test_legacy_span_defaults () =
  (* Span lines written before the linkage fields existed still parse,
     with id 0, no parent, and begin inferred from the emission time. *)
  let line =
    "{\"seq\":1,\"run\":1,\"sim\":null,\"wall_s\":10.5,\"kind\":\"span\",\
     \"name\":\"engine/run\",\"depth\":0,\"duration_s\":0.5}"
  in
  match Events.of_line ~strict:true line with
  | Error msg -> Alcotest.failf "legacy span failed to parse: %s" msg
  | Ok e -> (
      match e.Events.payload with
      | Events.Span { id = 0; parent = None; begin_s; duration_s = 0.5; _ } ->
          Alcotest.(check (float 1e-9)) "begin inferred" 10.0 begin_s
      | _ -> Alcotest.fail "expected a legacy span with defaults")

let test_jsonl_file_sink () =
  with_tracer @@ fun () ->
  let path = Filename.temp_file "rota-obs-test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Tracer.install (Sink.jsonl_file path);
  ignore (Tracer.new_run ~sim:0 "test run");
  Tracer.emit ~sim:2 (Events.Completed { id = "b" });
  Tracer.emit ~sim:5 (Events.Completed { id = "a" });
  Tracer.uninstall ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let events =
    List.rev_map
      (fun line ->
        match Events.of_line line with
        | Ok e -> e
        | Error msg -> Alcotest.failf "bad line %S: %s" line msg)
      !lines
  in
  Alcotest.(check int) "three lines" 3 (List.length events);
  (match List.map (fun e -> Events.kind e.Events.payload) events with
  | [ "run-started"; "completed"; "completed" ] -> ()
  | ks -> Alcotest.failf "unexpected kinds: %s" (String.concat "," ks));
  let sims = List.filter_map (fun e -> e.Events.sim) events in
  Alcotest.(check (list int)) "sim times" [ 0; 2; 5 ] sims

(* --- Engine event stream (E6-style smoke) ----------------------------------- *)

let iv a b = Interval.of_pair a b
let l1 = Location.make "l1"
let cpu1 = Located_type.cpu l1
let a1 = Actor_name.make "a1"

let job ~id ~start ~deadline =
  Computation.make ~id ~start ~deadline
    [ Program.make ~name:a1 ~home:l1 [ Action.evaluate 1; Action.ready ] ]

let smoke_trace =
  lazy
    (Trace.of_events
       ((0, Trace.Join (Resource_set.of_terms [ Term.v 1 (iv 0 40) cpu1 ]))
       :: List.map
            (fun (j : Computation.t) -> (j.Computation.start, Trace.Arrive j))
            [
              job ~id:"c1" ~start:0 ~deadline:12;
              job ~id:"c2" ~start:0 ~deadline:12;
              job ~id:"c3" ~start:14 ~deadline:30;
            ]))

let test_engine_stream_ordered () =
  (* An E6-style smoke run: several policies over one workload, all
     through one installed sink.  Within each engine run the simulated
     timestamps must be nondecreasing, and the stream must agree with
     the engine's own report. *)
  with_tracer @@ fun () ->
  let sink, captured = Sink.memory () in
  Tracer.install sink;
  let reports =
    List.map
      (fun policy -> Engine.run ~policy (Lazy.force smoke_trace))
      [ Admission.Rota; Admission.Optimistic; Admission.Aggregate ]
  in
  let events = captured () in
  Alcotest.(check bool) "stream is non-empty" true (events <> []);
  (* Every run announces itself, once per policy. *)
  let starts =
    List.filter
      (fun e ->
        match e.Events.payload with Events.Run_started _ -> true | _ -> false)
      events
  in
  Alcotest.(check int) "one run-started per policy" 3 (List.length starts);
  (* Simulated time is nondecreasing within each run (spans are emitted
     at exit and carry no ordering promise; everything else does). *)
  let by_run = Hashtbl.create 4 in
  List.iter
    (fun e ->
      match (e.Events.payload, e.Events.sim) with
      | Events.Span _, _ | _, None -> ()
      | _, Some t ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt by_run e.Events.run) in
          if t < prev then
            Alcotest.failf "run %d: sim time went backwards (%d after %d)"
              e.Events.run t prev;
          Hashtbl.replace by_run e.Events.run t)
    events;
  (* The stream agrees with the reports, in aggregate. *)
  let count p = List.length (List.filter p events) in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  Alcotest.(check int) "admitted events match reports"
    (total (fun r -> r.Engine.admitted))
    (count (fun e ->
         match e.Events.payload with
         | Events.Decision { action = "admit"; _ } -> true
         | _ -> false));
  Alcotest.(check int) "rejected events match reports"
    (total (fun r -> r.Engine.rejected))
    (count (fun e ->
         match e.Events.payload with
         | Events.Decision { action = "reject"; _ } -> true
         | _ -> false));
  (* Conservation: every admitted computation either completes or is
     killed at its deadline. *)
  Alcotest.(check int) "completions + kills = admissions"
    (total (fun r -> r.Engine.admitted))
    (count (fun e ->
         match e.Events.payload with
         | Events.Completed _ | Events.Killed _ -> true
         | _ -> false))

let test_engine_metrics_counters () =
  with_tracer @@ fun () ->
  with_metrics @@ fun () ->
  let report = Engine.run ~policy:Admission.Rota (Lazy.force smoke_trace) in
  let c name = Metrics.counter_value (Metrics.counter name) in
  Alcotest.(check int) "engine/runs" 1 (c "engine/runs");
  Alcotest.(check int) "engine/completions" report.Engine.completed_on_time
    (c "engine/completions");
  Alcotest.(check int) "admission admit counter" report.Engine.admitted
    (c "admission/admitted.rota");
  Alcotest.(check int) "admission reject counter" report.Engine.rejected
    (c "admission/rejected.rota");
  Alcotest.(check bool) "solver was exercised" true
    (c "accommodation/schedule_concurrent" > 0)

(* --- Metrics report -------------------------------------------------------- *)

let test_metrics_report_sections () =
  with_metrics @@ fun () ->
  Metrics.incr (Metrics.counter "test/report-counter");
  Metrics.observe (Metrics.histogram "test/report_s") 0.002;
  Metrics.observe
    (Metrics.histogram ~buckets:[| 1.; 10.; 100. |] "test/report-size")
    5.;
  let titles =
    List.map fst (Rota_experiments.Metrics_report.tables (Metrics.snapshot ()))
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " section present") true (List.mem t titles))
    [ "counters"; "latency histograms (us)"; "value histograms" ]

(* --- SLO burn-rate windows -------------------------------------------------- *)

module Slo = Rota_obs.Slo

(* The burn rate is (bad fraction in the trailing window) / budget:
   burning at exactly 1.0 means the error budget is being consumed
   precisely as fast as it accrues. *)
let test_slo_burn_arithmetic () =
  let s = Slo.create ~budget:0.1 () in
  Alcotest.(check (float 1e-9)) "empty window burns nothing" 0.
    (Slo.burn s ~now:1000. ~window_s:300);
  for _ = 1 to 9 do
    Slo.record s ~now:1000.2 ~good:true
  done;
  Slo.record s ~now:1000.7 ~good:false;
  Alcotest.(check (float 1e-9)) "1 bad in 10 at 10% budget = burn 1.0" 1.0
    (Slo.burn s ~now:1000.9 ~window_s:300);
  Alcotest.(check (float 1e-9)) "half the bad fraction, half the burn" 0.5
    (let s = Slo.create ~budget:0.1 () in
     for _ = 1 to 19 do
       Slo.record s ~now:50.0 ~good:true
     done;
     Slo.record s ~now:50.5 ~good:false;
     Slo.burn s ~now:51. ~window_s:60)

(* Multi-window semantics: a burst leaves the short window as time
   passes but stays visible in the long one — the basis for paging on
   (burn_5m high AND burn_1h high) style alerts. *)
let test_slo_windows_slide () =
  let s = Slo.create ~budget:0.5 () in
  Slo.record s ~now:100.0 ~good:false;
  Slo.record s ~now:100.0 ~good:true;
  Alcotest.(check (float 1e-9)) "burst visible in the 10s window" 1.0
    (Slo.burn s ~now:105. ~window_s:10);
  Alcotest.(check (float 1e-9)) "burst aged out of a 3s window" 0.
    (Slo.burn s ~now:105. ~window_s:3);
  Alcotest.(check (float 1e-9)) "still visible one hour-window wide" 1.0
    (Slo.burn s ~now:105. ~window_s:3600);
  (* Sub-second timestamps share the floor second's bucket. *)
  let g, b = Slo.totals s ~now:100.9 ~window_s:1 in
  Alcotest.(check (pair int int)) "one-second bucket holds both" (1, 1) (g, b)

(* Circular-slot aliasing: an observation landing a whole horizon later
   reuses the same slot; the stale counts must not leak into the new
   second's totals. *)
let test_slo_slot_reuse () =
  let s = Slo.create ~budget:0.01 ~horizon_s:60 () in
  Slo.record s ~now:10. ~good:false;
  Alcotest.(check (float 1e-9)) "bad burst burns" 100.
    (Slo.burn s ~now:10. ~window_s:5);
  (* 60 seconds later the same slot is written: old tallies reset. *)
  Slo.record s ~now:70. ~good:true;
  Alcotest.(check (float 1e-9)) "aliased slot was reset" 0.
    (Slo.burn s ~now:70. ~window_s:5);
  let g, b = Slo.totals s ~now:70. ~window_s:60 in
  Alcotest.(check (pair int int)) "horizon-wide totals see only the fresh second"
    (1, 0) (g, b);
  (* Windows are clamped to the horizon. *)
  let g', b' = Slo.totals s ~now:70. ~window_s:10_000 in
  Alcotest.(check (pair int int)) "oversized window clamps" (g, b) (g', b')

(* --------------------------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "slo",
        [
          Alcotest.test_case "burn arithmetic" `Quick test_slo_burn_arithmetic;
          Alcotest.test_case "windows slide" `Quick test_slo_windows_slide;
          Alcotest.test_case "slot reuse resets" `Quick test_slo_slot_reuse;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram basics" `Quick test_histogram_basic;
          Alcotest.test_case "quantiles at bucket boundaries" `Quick
            test_histogram_quantile_boundaries;
          Alcotest.test_case "overflow and clamping" `Quick
            test_histogram_overflow_and_clamp;
          Alcotest.test_case "bucket validation" `Quick test_histogram_validation;
          Alcotest.test_case "bucket mismatch on re-registration" `Quick
            test_histogram_bucket_mismatch;
          Alcotest.test_case "time records duration" `Quick
            test_time_records_duration;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "no sink, no cost" `Quick test_span_without_sink;
          Alcotest.test_case "spans from clock readings" `Quick
            test_span_from_readings;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "every kind round-trips" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_jsonl_rejects_garbage;
          Alcotest.test_case "unknown kinds forward-compatible" `Quick
            test_unknown_kind_forward_compat;
          Alcotest.test_case "legacy span defaults" `Quick
            test_legacy_span_defaults;
          Alcotest.test_case "file sink round-trip" `Quick test_jsonl_file_sink;
        ] );
      ( "engine stream",
        [
          Alcotest.test_case "E6 smoke: ordered events" `Quick
            test_engine_stream_ordered;
          Alcotest.test_case "engine + admission counters" `Quick
            test_engine_metrics_counters;
        ] );
      ( "report",
        [
          Alcotest.test_case "table sections" `Quick test_metrics_report_sections;
        ] );
    ]

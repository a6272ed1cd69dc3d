(* End-to-end tests for the trace analysis toolkit: an E6-style smoke
   run streamed through a JSONL file sink must satisfy the trace
   contract (Trace_reader.validate), and the analysis modules (Summary,
   Timeline, Chrome) must agree with the engine's own reports. *)

open Rota_interval
open Rota_resource
open Rota_actor
open Rota_scheduler
open Rota_sim
module Events = Rota_obs.Events
module Json = Rota_obs.Json
module Metrics = Rota_obs.Metrics
module Sink = Rota_obs.Sink
module Tracer = Rota_obs.Tracer
module Trace_reader = Rota_obs.Trace_reader
module Summary = Rota_obs.Summary
module Timeline = Rota_obs.Timeline
module Chrome = Rota_obs.Chrome

let iv a b = Interval.of_pair a b
let l1 = Location.make "l1"
let cpu1 = Located_type.cpu l1
let a1 = Actor_name.make "a1"

let job ~id ~start ~deadline =
  Computation.make ~id ~start ~deadline
    [ Program.make ~name:a1 ~home:l1 [ Action.evaluate 1; Action.ready ] ]

(* An overloaded window: four computations contending for one cpu with
   tight deadlines, so optimistic over-admission produces kills while
   rota's admitted set completes on time. *)
let smoke_trace =
  lazy
    (Trace.of_events
       ((0, Trace.Join (Resource_set.of_terms [ Term.v 1 (iv 0 40) cpu1 ]))
       :: List.map
            (fun (j : Computation.t) -> (j.Computation.start, Trace.Arrive j))
            [
              job ~id:"c1" ~start:0 ~deadline:10;
              job ~id:"c2" ~start:0 ~deadline:10;
              job ~id:"c3" ~start:1 ~deadline:11;
              job ~id:"c4" ~start:14 ~deadline:30;
            ]))

(* Run the smoke workload under both policies through a JSONL file sink
   (with metric sampling on), hand the resulting path and reports to
   [k], and clean up afterwards. *)
let with_smoke_jsonl k =
  Tracer.reset ();
  Metrics.reset ();
  let path = Filename.temp_file "rota-trace-tools" ".jsonl" in
  let finally () =
    Tracer.reset ();
    Metrics.set_enabled false;
    Metrics.reset ();
    Sys.remove path
  in
  Fun.protect ~finally @@ fun () ->
  Tracer.install (Sink.jsonl_file path);
  Tracer.set_sample_period 10;
  Metrics.set_enabled true;
  let reports =
    List.map
      (fun policy -> (policy, Engine.run ~policy (Lazy.force smoke_trace)))
      [ Admission.Rota; Admission.Optimistic ]
  in
  Tracer.uninstall ();
  k path reports

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_events path =
  match Trace_reader.read_file path with
  | Ok (events, Trace_reader.Complete) -> events
  | Ok (_, Trace_reader.Truncated _) -> Alcotest.fail "unexpected truncated trace"
  | Error e ->
      Alcotest.failf "read_file: %s" (Format.asprintf "%a" Trace_reader.pp_error e)

(* --- the trace contract, end to end ---------------------------------------- *)

let test_e2e_validate () =
  with_smoke_jsonl @@ fun path _reports ->
  let v = Trace_reader.validate_file path in
  List.iter (fun e -> Printf.eprintf "validate: %s\n" e) v.Trace_reader.errors;
  Alcotest.(check (list string)) "no contract violations" [] v.Trace_reader.errors;
  Alcotest.(check int) "two runs" 2 v.Trace_reader.runs;
  Alcotest.(check bool) "events seen" true (v.Trace_reader.events > 0)

let test_validate_catches_violations () =
  (* Each contract clause trips on a hand-built bad trace. *)
  let path = Filename.temp_file "rota-trace-bad" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let line seq run sim kind extra =
    Printf.fprintf oc
      "{\"seq\":%d,\"run\":%d,\"sim\":%s,\"wall_s\":1.0,\"kind\":%S%s}\n" seq
      run sim kind extra
  in
  line 1 1 "0" "run-started" ",\"label\":\"engine policy=rota\"";
  line 1 1 "5" "completed" ",\"id\":\"c1\"";  (* seq not increasing *)
  line 3 1 "2" "completed" ",\"id\":\"c2\"";  (* sim goes backwards *)
  line 4 1 "null" "martian" "";  (* unknown kind is strict-invalid *)
  (* span whose parent id never appears *)
  line 5 1 "null" "span"
    ",\"name\":\"x\",\"id\":9,\"parent\":77,\"depth\":0,\"begin_s\":0.5,\"duration_s\":0.1";
  (* second span reusing id 9 *)
  line 6 1 "null" "span"
    ",\"name\":\"y\",\"id\":9,\"depth\":0,\"begin_s\":0.6,\"duration_s\":0.1";
  close_out oc;
  let v = Trace_reader.validate_file path in
  let expect_substring sub =
    Alcotest.(check bool)
      (Printf.sprintf "an error mentions %S" sub)
      true
      (List.exists (contains ~sub) v.Trace_reader.errors)
  in
  expect_substring "seq";
  expect_substring "sim time";
  expect_substring "unknown event kind";
  expect_substring "parent id 77";
  expect_substring "duplicate span id 9";
  Alcotest.(check bool) "invalid" false (Trace_reader.valid v)

(* The span clause: a child must lie within its parent's interval (to
   1 us) and no span may run backwards.  Parents are emitted after their
   children, as the serve daemon's [server/request] is. *)
let test_validate_span_intervals () =
  let validate spans =
    let path = Filename.temp_file "rota-trace-spans" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    let oc = open_out path in
    List.iteri
      (fun i (name, id, parent, begin_s, duration_s) ->
        Printf.fprintf oc
          "{\"seq\":%d,\"run\":1,\"sim\":null,\"wall_s\":1.0,\"kind\":\"span\",\
           \"name\":%S,\"id\":%d,\"parent\":%s,\"depth\":%d,\"begin_s\":%.7f,\
           \"duration_s\":%.7f}\n"
          (i + 1) name id
          (match parent with Some p -> string_of_int p | None -> "null")
          (if parent = None then 0 else 1)
          begin_s duration_s)
      spans;
    close_out oc;
    Trace_reader.validate_file path
  in
  let parent = ("server/request", 1, None, 1754500000.0, 0.002) in
  let nested =
    validate
      [
        ("server/parse", 2, Some 1, 1754500000.0, 0.0001);
        (* ends exactly with the parent, up to half a microsecond *)
        ("server/encode", 3, Some 1, 1754500000.0015, 0.0005005);
        parent;
      ]
  in
  Alcotest.(check (list string)) "nested spans are valid" [] nested.Trace_reader.errors;
  let escaping =
    validate
      [ ("server/decide", 2, Some 1, 1754500000.001, 0.005); parent ]
  in
  Alcotest.(check bool)
    "a child escaping its parent is flagged" true
    (List.exists (contains ~sub:"escapes its parent 1") escaping.Trace_reader.errors);
  let early =
    validate [ ("server/parse", 2, Some 1, 1754499999.999, 0.0001); parent ]
  in
  Alcotest.(check bool)
    "a child starting before its parent is flagged" true
    (List.exists (contains ~sub:"escapes its parent 1") early.Trace_reader.errors);
  let backwards = validate [ ("engine/run", 1, None, 1754500000.0, -0.001) ] in
  Alcotest.(check bool)
    "a negative duration is flagged" true
    (List.exists (contains ~sub:"negative duration") backwards.Trace_reader.errors)

(* Decision provenance in the trace: every admit/reject verdict the
   engine reports has exactly one decision record, strict-parseable,
   whose embedded certificate decodes and is internally well-formed (the
   full replay audit lives in test_audit.ml). *)
let test_e2e_decision_records () =
  with_smoke_jsonl @@ fun path reports ->
  let events = read_events path in
  let decisions =
    List.filter_map
      (fun (e : Events.t) ->
        match e.Events.payload with
        | Events.Decision { id; policy; action; slug; certificate; cid = _ } ->
            Some (id, policy, action, slug, certificate)
        | _ -> None)
      events
  in
  Alcotest.(check int) "one decision per admit/reject verdict"
    (List.fold_left (fun acc (_, r) -> acc + r.Engine.offered) 0 reports)
    (List.length decisions);
  Alcotest.(check bool) "decisions present" true (decisions <> []);
  List.iter
    (fun (id, _policy, action, slug, certificate) ->
      (match action with
      | "admit" | "reject" -> ()
      | _ -> Alcotest.failf "unexpected action %S" action);
      Alcotest.(check bool) "slug non-empty" true (slug <> "");
      match Rota.Certificate.of_json certificate with
      | Error msg -> Alcotest.failf "%s: certificate: %s" id msg
      | Ok cert -> (
          match Rota.Certificate.well_formed cert with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: ill-formed certificate: %s" id msg))
    decisions;
  (* Rota backs its verdicts with theorem evidence; the optimistic
     baseline's certificates record that nothing was checked. *)
  let theorems policy =
    List.filter_map
      (fun (_, p, _, _, certificate) ->
        if p = policy then
          match Rota.Certificate.of_json certificate with
          | Ok c -> Some (Rota.Certificate.theorem_name c.Rota.Certificate.theorem)
          | Error _ -> None
        else None)
      decisions
  in
  Alcotest.(check bool) "rota cites T4" true (List.mem "T4" (theorems "rota"));
  Alcotest.(check bool) "optimistic checks nothing" true
    (List.for_all (( = ) "unchecked") (theorems "optimistic"));
  (* The Chrome export renders decisions as instants. *)
  match Chrome.export events with
  | Json.List entries ->
      let decision_instants =
        List.filter
          (fun e ->
            match Json.member "name" e with
            | Some (Json.String n) ->
                String.length n >= 8 && String.sub n 0 8 = "decision"
            | _ -> false)
          entries
      in
      Alcotest.(check int) "decision instants exported"
        (List.length decisions)
        (List.length decision_instants)
  | _ -> Alcotest.fail "export is not a JSON array"

let test_e2e_summary_matches_reports () =
  with_smoke_jsonl @@ fun path reports ->
  let s = Summary.of_events (read_events path) in
  Alcotest.(check int) "one summary run per engine run" (List.length reports)
    (List.length s.Summary.runs);
  List.iter2
    (fun (policy, (r : Engine.report)) (sr : Summary.run) ->
      let name = Admission.policy_name policy in
      Alcotest.(check string) (name ^ " policy parsed") name sr.Summary.policy;
      Alcotest.(check int) (name ^ " offered") r.Engine.offered
        (Summary.offered sr);
      Alcotest.(check int) (name ^ " admitted") r.Engine.admitted
        sr.Summary.admitted;
      Alcotest.(check int) (name ^ " missed") r.Engine.missed_deadlines
        sr.Summary.killed)
    reports s.Summary.runs;
  (* The E6 claim, read straight off the trace: rota-admitted
     computations never miss; optimistic over-admits and pays in kills. *)
  let agg p =
    List.find
      (fun (g : Summary.agg) -> g.Summary.agg_policy = p)
      (Summary.by_policy s)
  in
  Alcotest.(check int) "rota misses nothing" 0 (agg "rota").Summary.agg_killed;
  Alcotest.(check bool) "optimistic admits everything offered" true
    (Summary.agg_admit_rate (agg "optimistic") = 1.);
  Alcotest.(check bool) "optimistic pays with deadline kills" true
    ((agg "optimistic").Summary.agg_killed > (agg "rota").Summary.agg_killed);
  (* Span self-time attribution: engine/run's self time excludes its
     children, so it is strictly below its total but still positive. *)
  match
    List.find_opt
      (fun (st : Summary.span_stat) -> st.Summary.span_name = "engine/run")
      s.Summary.span_stats
  with
  | None -> Alcotest.fail "no engine/run span rollup"
  | Some st ->
      Alcotest.(check bool) "self < total for a parent span" true
        (st.Summary.self_s < st.Summary.total_s);
      Alcotest.(check bool) "self time positive" true (st.Summary.self_s > 0.)

let test_e2e_metric_series () =
  with_smoke_jsonl @@ fun path _ ->
  let s = Summary.of_events (read_events path) in
  match
    List.find_opt
      (fun (se : Summary.series) -> se.Summary.series_name = "engine/ticks")
      s.Summary.series
  with
  | None -> Alcotest.fail "no engine/ticks series sampled"
  | Some se ->
      (* Period 10 over a 40-tick horizon, two runs: 4 samples each. *)
      Alcotest.(check int) "sample count" 8 (List.length se.Summary.samples);
      let values = List.map snd se.Summary.samples in
      Alcotest.(check bool) "counter series nondecreasing" true
        (List.for_all2 ( <= )
           (List.filteri (fun i _ -> i < List.length values - 1) values)
           (List.tl values))

let test_e2e_timeline () =
  with_smoke_jsonl @@ fun path _ ->
  let out = Timeline.render ~width:40 (read_events path) in
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "timeline mentions %S" sub)
        true (contains ~sub out))
    [ "run 1"; "run 2"; "capacity"; "c1"; "c4"; "legend" ];
  (* The optimistic run over-admits and kills: an X must appear in some
     computation row. *)
  Alcotest.(check bool) "a kill is drawn" true (String.contains out 'X')

let test_e2e_chrome_export () =
  with_smoke_jsonl @@ fun path _ ->
  let events = read_events path in
  let json = Chrome.export events in
  match json with
  | Json.List entries ->
      Alcotest.(check bool) "non-empty" true (entries <> []);
      (* Round-trip through the Json codec: the export is valid JSON. *)
      (match Json.parse (Chrome.to_string events) with
      | Ok (Json.List reparsed) ->
          Alcotest.(check int) "array form round-trips" (List.length entries)
            (List.length reparsed)
      | Ok _ -> Alcotest.fail "export did not reparse as an array"
      | Error msg -> Alcotest.failf "export is not valid JSON: %s" msg);
      (* Every span slice carries the id/parent linkage, and parents
         resolve within the export. *)
      let member name j = Json.member name j in
      let spans =
        List.filter
          (fun e -> member "ph" e = Some (Json.String "X"))
          entries
      in
      Alcotest.(check bool) "spans exported" true (spans <> []);
      let ids =
        List.filter_map
          (fun e ->
            Option.bind (member "args" e) (fun args ->
                match member "id" args with
                | Some (Json.Int i) -> Some i
                | _ -> None))
          spans
      in
      Alcotest.(check int) "every span has an id" (List.length spans)
        (List.length ids);
      List.iter
        (fun e ->
          match Option.bind (member "args" e) (member "parent") with
          | Some (Json.Int p) ->
              Alcotest.(check bool)
                (Printf.sprintf "parent %d resolves" p)
                true (List.mem p ids)
          | Some Json.Null | None -> ()
          | Some _ -> Alcotest.fail "parent is neither int nor null")
        spans
  | _ -> Alcotest.fail "export is not a JSON array"

(* --- crash-cut traces -------------------------------------------------------- *)

(* A trace whose final line was cut mid-write (no newline, unparseable
   fragment) must yield every complete line plus a structured
   [Truncated] tail — not a parse error — while the validator flags the
   cut as a contract violation.  Dropping only the newline keeps the
   line parseable, so nothing is lost and the tail stays [Complete]. *)
let test_truncated_final_line () =
  with_smoke_jsonl @@ fun path _ ->
  let full = In_channel.with_open_bin path In_channel.input_all in
  let complete = read_events path in
  let n = List.length complete in
  let cut = Filename.temp_file "rota-truncated" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove cut) @@ fun () ->
  let write_prefix len =
    Out_channel.with_open_bin cut (fun oc ->
        Out_channel.output_string oc (String.sub full 0 len))
  in
  (* Chop the newline and the line's closing bytes: a crash mid-write. *)
  write_prefix (String.length full - 10);
  (match Trace_reader.read_file cut with
  | Ok (events, Trace_reader.Truncated { line; bytes }) ->
      Alcotest.(check int) "every complete line delivered" (n - 1)
        (List.length events);
      Alcotest.(check int) "fragment is the final line" n line;
      Alcotest.(check bool) "fragment length reported" true (bytes > 0)
  | Ok (_, Trace_reader.Complete) -> Alcotest.fail "cut line not detected"
  | Error e ->
      Alcotest.failf "crash-cut trace must still read: %s"
        (Format.asprintf "%a" Trace_reader.pp_error e));
  let v = Trace_reader.validate_file cut in
  Alcotest.(check bool) "validate flags the cut" true
    (List.exists (contains ~sub:"truncated final line") v.Trace_reader.errors);
  (* Missing newline alone loses nothing: the line still parses. *)
  write_prefix (String.length full - 1);
  match Trace_reader.read_file cut with
  | Ok (events, Trace_reader.Complete) ->
      Alcotest.(check int) "unterminated final line still parsed" n
        (List.length events)
  | Ok (_, Trace_reader.Truncated _) ->
      Alcotest.fail "parseable final line must not count as truncated"
  | Error e ->
      Alcotest.failf "read_file: %s" (Format.asprintf "%a" Trace_reader.pp_error e)

(* The follow cursor only ever parses completed lines: a partial final
   line stays buffered across polls and is delivered once its remaining
   bytes (and newline) land. *)
let test_follow_partial_lines () =
  let path = Filename.temp_file "rota-follow" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  let line i =
    Printf.sprintf
      "{\"seq\":%d,\"run\":1,\"sim\":%d,\"wall_s\":1.0,\"kind\":\"completed\",\"id\":\"c%d\"}"
      i i i
  in
  let cursor =
    match Trace_reader.Follow.open_file path with
    | Ok c -> c
    | Error e ->
        Alcotest.failf "open_file: %s"
          (Format.asprintf "%a" Trace_reader.pp_error e)
  in
  Fun.protect ~finally:(fun () -> Trace_reader.Follow.close cursor)
  @@ fun () ->
  let poll () =
    match Trace_reader.Follow.poll cursor with
    | Ok events -> List.map (fun (e : Events.t) -> e.Events.seq) events
    | Error e ->
        Alcotest.failf "poll: %s" (Format.asprintf "%a" Trace_reader.pp_error e)
  in
  Alcotest.(check (list int)) "empty file, nothing yet" [] (poll ());
  (* One complete line plus the first half of the next. *)
  output_string oc (line 1);
  output_char oc '\n';
  let l2 = line 2 in
  output_string oc (String.sub l2 0 12);
  flush oc;
  Alcotest.(check (list int)) "only the completed line" [ 1 ] (poll ());
  Alcotest.(check bool) "partial line buffered" true
    (Trace_reader.Follow.pending_bytes cursor > 0);
  Alcotest.(check (list int)) "re-poll mid-write yields nothing" [] (poll ());
  (* The writer finishes the line: it is delivered exactly once. *)
  output_string oc (String.sub l2 12 (String.length l2 - 12));
  output_char oc '\n';
  output_string oc (line 3);
  output_char oc '\n';
  flush oc;
  Alcotest.(check (list int)) "resumed line and its successor" [ 2; 3 ] (poll ());
  Alcotest.(check int) "no pending bytes after the newline" 0
    (Trace_reader.Follow.pending_bytes cursor)

(* --- buffered file sink ----------------------------------------------------- *)

let test_buffered_sink () =
  Tracer.reset ();
  let path = Filename.temp_file "rota-buffered" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Tracer.reset (); Sys.remove path)
  @@ fun () ->
  Tracer.install (Sink.jsonl_file ~flush_every:64 path);
  for i = 1 to 10 do
    Tracer.emit ~sim:i (Events.Completed { id = Printf.sprintf "c%d" i })
  done;
  (* Fewer events than the buffer: close (via uninstall) must flush. *)
  Tracer.uninstall ();
  let events = read_events path in
  Alcotest.(check int) "all events on disk after close" 10 (List.length events);
  Alcotest.check_raises "flush_every must be positive"
    (Invalid_argument "Sink.jsonl: flush_every must be >= 1") (fun () ->
      ignore (Sink.jsonl ~flush_every:0 stdout))

(* --------------------------------------------------------------------------- *)

let () =
  Alcotest.run "trace-tools"
    [
      ( "contract",
        [
          Alcotest.test_case "E6 smoke validates" `Quick test_e2e_validate;
          Alcotest.test_case "span intervals nest" `Quick
            test_validate_span_intervals;
          Alcotest.test_case "violations are caught" `Quick
            test_validate_catches_violations;
          Alcotest.test_case "decision records carry certificates" `Quick
            test_e2e_decision_records;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "summary matches engine reports" `Quick
            test_e2e_summary_matches_reports;
          Alcotest.test_case "metric time series" `Quick test_e2e_metric_series;
          Alcotest.test_case "timeline renders lifecycles" `Quick
            test_e2e_timeline;
          Alcotest.test_case "chrome export: valid, linked" `Quick
            test_e2e_chrome_export;
        ] );
      ( "crash-cut",
        [
          Alcotest.test_case "truncated final line tolerated, flagged" `Quick
            test_truncated_final_line;
          Alcotest.test_case "follow never parses a partial line" `Quick
            test_follow_partial_lines;
        ] );
      ( "sink",
        [ Alcotest.test_case "buffered flush" `Quick test_buffered_sink ] );
    ]

(* The ROTB binary trace codec's contract, property-tested: a trace of
   random events of every kind must survive JSONL -> binary -> JSONL
   unchanged (the exact pipeline `--trace-format=binary` plus
   `rota trace convert` runs), and a crash-cut binary file must read
   back as a clean prefix plus a structured [Truncated] tail, mirroring
   the JSONL crash-cut behaviour tested in test_trace_tools.ml. *)

module Events = Rota_obs.Events
module Json = Rota_obs.Json
module Binary = Rota_obs.Binary
module Sink = Rota_obs.Sink
module Trace_reader = Rota_obs.Trace_reader

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- generators ------------------------------------------------------------- *)

(* Strings exercise the JSON escaper: quotes, backslashes, newlines and
   raw control bytes all appear. *)
let gen_string =
  QCheck.Gen.(
    string_size ~gen:
      (frequency
         [
           (8, char_range 'a' 'z');
           (2, char_range '0' '9');
           (2, oneofl [ '/'; '-'; '_'; '.'; ' '; '@' ]);
           (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\001' ]);
         ])
      (int_bound 12))

(* Finite floats across many magnitudes, integral values included (the
   two rendering branches of the JSON float writer). *)
let gen_float =
  QCheck.Gen.(
    map2
      (fun m e -> Float.ldexp (float_of_int m) (e - 20))
      (int_range (-1_000_000) 1_000_000)
      (int_bound 40))

let gen_json =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) small_signed_int;
        map (fun f -> Json.Float f) gen_float;
        map (fun s -> Json.String s) gen_string;
      ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun l -> Json.List l)
                  (list_size (int_bound 3) (self (depth - 1))));
            ( 1,
              map (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 3)
                   (pair (oneofl [ "rect"; "q"; "w"; "why" ])
                      (self (depth - 1)))) );
          ])
    2

(* Every payload constructor, including the forward-compat [Unknown]
   carrier (whose kind and field names must stay off the envelope's). *)
let gen_payload =
  let open QCheck.Gen in
  let s = gen_string in
  let unknown =
    let* kind = oneofl [ "x-custom"; "future-thing" ] in
    let* n = int_bound 2 in
    let keys = List.filteri (fun i _ -> i < n) [ "note"; "extra"; "payload" ] in
    let* values = flatten_l (List.map (fun _ -> gen_json) keys) in
    return (Events.Unknown { kind; fields = List.combine keys values })
  in
  oneof
    [
      map (fun label -> Events.Run_started { label }) s;
      map2
        (fun quantity terms -> Events.Capacity_joined { quantity; terms })
        small_nat gen_json;
      (let* id = s and* policy = s and* slug = s in
       let* action = oneofl [ "admit"; "reject"; "evict"; "repair" ] in
       let* certificate = gen_json in
       let* cid = opt s in
       return (Events.Decision { id; policy; action; slug; certificate; cid }));
      map3 (fun id slug reason -> Events.Shed { id; slug; reason }) s s s;
      map (fun id -> Events.Completed { id }) s;
      map2 (fun id owed -> Events.Killed { id; owed }) s small_nat;
      (let* fault = s and* quantity = small_signed_int and* terms = gen_json in
       return (Events.Fault_injected { fault; quantity; terms }));
      map2
        (fun id quantity -> Events.Commitment_revoked { id; quantity })
        s small_nat;
      map3
        (fun id extra released ->
          Events.Commitment_degraded { id; extra; released })
        s small_nat bool;
      (let* id = s and* rung = oneofl [ "reaccommodate"; "migrate" ] in
       let* attempt = int_bound 3 and* certificate = gen_json in
       return (Events.Repaired { id; rung; attempt; certificate }));
      map2 (fun id owed -> Events.Preempted { id; owed }) s small_nat;
      map2 (fun id reason -> Events.Anomaly { id; reason }) s s;
      (let* name = s and* id = int_range 1 1000 in
       let* parent = opt (int_range 1 1000) and* depth = int_bound 5 in
       let* begin_s = gen_float and* duration_s = gen_float in
       return (Events.Span { name; id; parent; depth; begin_s; duration_s }));
      (let* name = s in
       let* value = gen_float in
       let* family = opt (oneofl [ "counter"; "gauge" ]) in
       return (Events.Metric_sample { name; value; family }));
      (let* name = s and* count = small_nat and* sum = gen_float in
       let* min_v = gen_float and* max_v = gen_float in
       let* p50 = gen_float and* p95 = gen_float and* p99 = gen_float in
       return
         (Events.Hist_sample { name; count; sum; min_v; max_v; p50; p95; p99 }));
      (let* id = s and* message = s and* of_seq = small_nat in
       let* action = oneofl [ "admit"; "reject"; "evict"; "repair" ] in
       return (Events.Audit_divergence { id; action; of_seq; message }));
      unknown;
    ]

let gen_event =
  QCheck.Gen.(
    let* run = small_nat and* sim = opt small_nat in
    let* wall_s = gen_float and* payload = gen_payload in
    return { Events.seq = 0; run; sim; wall_s; payload })

let gen_trace =
  QCheck.Gen.(
    map
      (List.mapi (fun i e -> { e with Events.seq = i + 1 }))
      (list_size (int_range 1 25) gen_event))

let arb_trace = QCheck.make ~print:(fun es ->
    String.concat "\n" (List.map Events.to_line es))
    gen_trace

(* --- round-trip properties -------------------------------------------------- *)

(* Per-event: encode + decode is the identity (the check `rota trace
   validate` runs on every binary record). *)
let prop_binary_roundtrip =
  QCheck.Test.make ~count:200 ~name:"binary codec: encode/decode identity"
    (QCheck.make ~print:Events.to_line gen_event) (fun e ->
      match Binary.roundtrip e with
      | Ok e' -> e' = e
      | Error msg -> QCheck.Test.fail_reportf "roundtrip: %s" msg)

let read_all path =
  match Trace_reader.read_file path with
  | Ok (events, Trace_reader.Complete) -> events
  | Ok (_, Trace_reader.Truncated { line; bytes }) ->
      QCheck.Test.fail_reportf "unexpected truncation at %d (%d bytes)" line
        bytes
  | Error e ->
      QCheck.Test.fail_reportf "read_file: %s"
        (Format.asprintf "%a" Trace_reader.pp_error e)

let with_temp_files k =
  let jsonl = Filename.temp_file "rota-binary-prop" ".jsonl" in
  let rotb = Filename.temp_file "rota-binary-prop" ".rotb" in
  let back = Filename.temp_file "rota-binary-prop" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ jsonl; rotb; back ])
    (fun () -> k jsonl rotb back)

let write_jsonl path events =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun e ->
          Out_channel.output_string oc (Events.to_line e);
          Out_channel.output_char oc '\n')
        events)

let write_binary path events =
  let sink = Sink.binary_file path in
  List.iter sink.Sink.emit events;
  sink.Sink.close ()

(* Whole-trace pipeline: JSONL file -> reader -> binary file -> reader
   -> JSONL file -> reader, every leg the identity.  This is exactly
   what a binary-traced run followed by `rota trace convert` does, with
   the reader's format auto-detection in the middle. *)
let prop_pipeline_roundtrip =
  QCheck.Test.make ~count:50
    ~name:"trace pipeline: JSONL -> binary -> JSONL identity" arb_trace
    (fun events ->
      with_temp_files @@ fun jsonl rotb back ->
      write_jsonl jsonl events;
      let from_jsonl = read_all jsonl in
      if from_jsonl <> events then
        QCheck.Test.fail_report "JSONL leg is not the identity";
      if Binary.file_is_binary jsonl then
        QCheck.Test.fail_report "JSONL misdetected as binary";
      write_binary rotb from_jsonl;
      if not (Binary.file_is_binary rotb) then
        QCheck.Test.fail_report "binary file not detected by magic";
      let from_binary = read_all rotb in
      if from_binary <> events then
        QCheck.Test.fail_report "binary leg is not the identity";
      write_jsonl back from_binary;
      read_all back = events)

(* --- the flight recorder ---------------------------------------------------- *)

module Flight = Rota_obs.Flight

(* Like the daemon's stream: span ids are allocator-unique, parents may
   point anywhere (often at records the ring has since evicted), and no
   [Unknown] carriers — the daemon only emits kinds it knows, and the
   validator rejects unknown ones by design. *)
let gen_flight_stream =
  QCheck.Gen.(
    let* raw = list_size (int_range 1 60) gen_event in
    let _, rev =
      List.fold_left
        (fun (i, acc) ev ->
          match ev.Events.payload with
          | Events.Span s ->
              ( i + 1,
                { ev with
                  Events.payload = Events.Span { s with id = 50_000 + i } }
                :: acc )
          | Events.Unknown _ ->
              ( i,
                { ev with
                  Events.payload =
                    Events.Anomaly { id = "gen"; reason = "stand-in" } }
                :: acc )
          | _ -> (i, ev :: acc))
        (0, []) raw
    in
    return (List.rev rev))

(* A dump taken after ANY event sequence is a standalone valid trace
   holding exactly the last-[capacity] suffix — payloads verbatim except
   the documented repairs (evicted or non-containing span parents
   dropped, negative span durations clamped to 0, backward
   simulated-time steps clamped forward). *)
let prop_flight_dump =
  QCheck.Test.make ~count:100
    ~name:"flight recorder: dump = valid trace of the last-N suffix"
    (QCheck.make
       ~print:(fun es -> String.concat "\n" (List.map Events.to_line es))
       gen_flight_stream)
    (fun stream ->
      let capacity = 16 in
      let f = Flight.create ~capacity () in
      List.iter (Flight.record f) stream;
      let path = Filename.temp_file "rota-flight" ".rotb" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      @@ fun () ->
      match Flight.dump f path with
      | Error m -> QCheck.Test.fail_reportf "dump: %s" m
      | Ok n ->
          let len = List.length stream in
          let expect = min capacity len in
          if n <> expect then
            QCheck.Test.fail_reportf "dumped %d events, want %d" n expect;
          if Flight.recorded f <> expect then
            QCheck.Test.fail_reportf "ring holds %d, want %d"
              (Flight.recorded f) expect;
          let v = Trace_reader.validate_file path in
          if not (Trace_reader.valid v) then
            QCheck.Test.fail_reportf "dump does not validate: %s"
              (String.concat "; " v.Trace_reader.errors);
          let dumped = read_all path in
          let suffix = List.filteri (fun i _ -> i >= len - expect) stream in
          List.iter2
            (fun (d : Events.t) (s : Events.t) ->
              if d.Events.run <> s.Events.run then
                QCheck.Test.fail_report "run not preserved";
              if d.Events.wall_s <> s.Events.wall_s then
                QCheck.Test.fail_report "wall_s not preserved";
              (match (d.Events.sim, s.Events.sim) with
              | None, None -> ()
              | Some d', Some s' when d' >= s' -> ()  (* clamp is forward *)
              | _ -> QCheck.Test.fail_report "sim not preserved-or-clamped");
              match (d.Events.payload, s.Events.payload) with
              | Events.Span dsp, Events.Span ssp ->
                  if
                    dsp.name <> ssp.name || dsp.id <> ssp.id
                    || dsp.depth <> ssp.depth
                    || dsp.begin_s <> ssp.begin_s
                    || (dsp.duration_s <> ssp.duration_s
                       && not (dsp.duration_s = 0. && ssp.duration_s < 0.))
                    || (dsp.parent <> ssp.parent && dsp.parent <> None)
                  then QCheck.Test.fail_report "span changed beyond repair"
              | dp, sp ->
                  if dp <> sp then
                    QCheck.Test.fail_report "payload not preserved verbatim")
            dumped suffix;
          true)

(* --- non-finite floats ------------------------------------------------------ *)

(* JSON cannot say nan/inf, but the binary format carries the raw IEEE
   bits: the codec must preserve them exactly. *)
let test_nonfinite_floats () =
  List.iter
    (fun value ->
      let e =
        {
          Events.seq = 1;
          run = 0;
          sim = None;
          wall_s = 0.5;
          payload = Events.Metric_sample { name = "m"; value; family = None };
        }
      in
      match Binary.roundtrip e with
      | Error msg -> Alcotest.failf "roundtrip: %s" msg
      | Ok { Events.payload = Events.Metric_sample { value = v; _ }; _ } ->
          Alcotest.(check int64)
            (Printf.sprintf "bits of %h preserved" value)
            (Int64.bits_of_float value) (Int64.bits_of_float v)
      | Ok _ -> Alcotest.fail "payload shape changed")
    [ Float.nan; Float.infinity; Float.neg_infinity; -0.0 ]

(* --- crash-cut binary traces ------------------------------------------------ *)

let sample_events n =
  List.init n (fun i ->
      {
        Events.seq = i + 1;
        run = 1;
        sim = Some i;
        wall_s = float_of_int i *. 0.25;
        payload = Events.Completed { id = Printf.sprintf "c%d" i };
      })

(* A binary trace cut mid final record must yield every complete record
   plus a [Truncated] tail with the 1-based record ordinal, and the
   validator must flag the cut. *)
let test_truncated_final_record () =
  let n = 10 in
  let path = Filename.temp_file "rota-binary-cut" ".rotb" in
  let cut = Filename.temp_file "rota-binary-cut" ".rotb" in
  Fun.protect ~finally:(fun () -> Sys.remove path; Sys.remove cut)
  @@ fun () ->
  write_binary path (sample_events n);
  let full = In_channel.with_open_bin path In_channel.input_all in
  (* Chop a few bytes off the last record: a write cut short by a crash. *)
  Out_channel.with_open_bin cut (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 3)));
  (match Trace_reader.read_file cut with
  | Ok (events, Trace_reader.Truncated { line; bytes }) ->
      Alcotest.(check int) "every complete record delivered" (n - 1)
        (List.length events);
      Alcotest.(check int) "tail names the final record" n line;
      Alcotest.(check bool) "dangling byte count reported" true (bytes > 0)
  | Ok (_, Trace_reader.Complete) -> Alcotest.fail "cut record not detected"
  | Error e ->
      Alcotest.failf "crash-cut binary trace must still read: %s"
        (Format.asprintf "%a" Trace_reader.pp_error e));
  let v = Trace_reader.validate_file cut in
  Alcotest.(check bool) "validate flags the cut" true
    (List.exists (contains ~sub:"truncated final record") v.Trace_reader.errors);
  Alcotest.(check bool) "cut trace is invalid" false (Trace_reader.valid v)

(* The intact file, for contrast, validates clean end to end. *)
let test_intact_file_validates () =
  let path = Filename.temp_file "rota-binary-ok" ".rotb" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_binary path
    ({
       Events.seq = 0;
       run = 1;
       sim = Some 0;
       wall_s = 0.0;
       payload = Events.Run_started { label = "engine policy=rota" };
     }
     :: List.map
          (fun e -> { e with Events.seq = e.Events.seq + 1 })
          (sample_events 5));
  let v = Trace_reader.validate_file path in
  Alcotest.(check (list string)) "no violations" [] v.Trace_reader.errors;
  Alcotest.(check int) "events counted" 6 v.Trace_reader.events

(* Tailing a binary trace: complete records stream out as they are
   appended, a record cut mid-write stays pending (with its dangling
   byte count) until the rest of its bytes arrive. *)
let test_follow_tails_binary () =
  let path = Filename.temp_file "rota-binary-follow" ".rotb" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_binary path (sample_events 3);
  match Trace_reader.Follow.open_file path with
  | Error { Trace_reader.message; _ } ->
      Alcotest.failf "binary trace must open for tailing: %s" message
  | Ok c ->
      Fun.protect ~finally:(fun () -> Trace_reader.Follow.close c)
      @@ fun () ->
      (match Trace_reader.Follow.poll c with
      | Ok events ->
          Alcotest.(check int) "existing records delivered" 3
            (List.length events)
      | Error { Trace_reader.line; message } ->
          Alcotest.failf "poll: record %d: %s" line message);
      (* Append one whole record and the first half of another: only the
         whole one may come out, the half must be reported pending. *)
      let next = sample_events 5 |> List.filteri (fun i _ -> i >= 3) in
      let buf = Buffer.create 256 in
      List.iter (Binary.encode buf) next;
      let tail = Buffer.contents buf in
      let whole =
        (* First record's length: re-encode it alone. *)
        let b = Buffer.create 64 in
        Binary.encode b (List.hd next);
        Buffer.length b
      in
      let oc = Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path in
      Out_channel.output_string oc (String.sub tail 0 (whole + 4));
      Out_channel.close oc;
      (match Trace_reader.Follow.poll c with
      | Ok events ->
          Alcotest.(check int) "only the complete record" 1
            (List.length events);
          Alcotest.(check int) "dangling bytes pending" 4
            (Trace_reader.Follow.pending_bytes c)
      | Error { Trace_reader.line; message } ->
          Alcotest.failf "poll: record %d: %s" line message);
      (* The rest of the cut record arrives: it completes. *)
      let oc = Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path in
      Out_channel.output_string oc
        (String.sub tail (whole + 4) (String.length tail - whole - 4));
      Out_channel.close oc;
      (match Trace_reader.Follow.poll c with
      | Ok events ->
          Alcotest.(check int) "cut record completes" 1 (List.length events);
          Alcotest.(check int) "nothing pending" 0
            (Trace_reader.Follow.pending_bytes c)
      | Error { Trace_reader.line; message } ->
          Alcotest.failf "poll: record %d: %s" line message)

(* --------------------------------------------------------------------------- *)

let () =
  Alcotest.run "binary-codec"
    [
      ( "round-trip",
        List.map QCheck_alcotest.to_alcotest
          [ prop_binary_roundtrip; prop_pipeline_roundtrip; prop_flight_dump ]
        @ [
            Alcotest.test_case "non-finite floats keep their bits" `Quick
              test_nonfinite_floats;
          ] );
      ( "crash-cut",
        [
          Alcotest.test_case "truncated final record tolerated, flagged"
            `Quick test_truncated_final_record;
          Alcotest.test_case "intact binary trace validates" `Quick
            test_intact_file_validates;
          Alcotest.test_case "follow tails binary" `Quick
            test_follow_tails_binary;
        ] );
    ]

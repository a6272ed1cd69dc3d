(* The serve daemon's replicated core, tested without sockets: wire
   codec round-trips, the shedding policy's bounded-delay arithmetic,
   replica snapshots, and the central durability property — truncating
   the WAL at ANY byte offset and recovering yields exactly the state
   the surviving prefix proves (residual digest and ledger contents),
   which is what makes an acknowledged decision crash-proof.  Also the
   one-state-machine properties: simulator traces replay through the
   same [Replica.replay] as WALs, the daemon decides a serialized
   simulator run identically, and traces written by older binaries
   still load. *)

module Interval = Rota_interval.Interval
module Resource_set = Rota_resource.Resource_set
module Computation = Rota_actor.Computation
module Certificate = Rota.Certificate
module Admission = Rota_scheduler.Admission
module Calendar = Rota_scheduler.Calendar
module Trace = Rota_sim.Trace
module Scenario = Rota_workload.Scenario
module Json = Rota_obs.Json
module Binary = Rota_obs.Binary
module Wire = Rota_server.Wire
module Shed = Rota_server.Shed
module Replica = Rota_server.Replica
module Wal = Rota_server.Wal
module Engine = Rota_sim.Engine
module Events = Rota_obs.Events
module Sink = Rota_obs.Sink
module Tracer = Rota_obs.Tracer
module Summary = Rota_obs.Summary
module Trace_reader = Rota_obs.Trace_reader
module Audit = Rota_audit.Audit
module Live = Rota_audit.Audit.Live
module Watchdog = Rota_audit.Watchdog

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let params ~seed =
  {
    Scenario.default_params with
    seed;
    locations = 2;
    horizon = 120;
    arrivals = 14;
    churn_joins = 4;
  }

(* A workload exercising every event kind the daemon logs: joins and
   admits from the scenario trace, then a mid-horizon revocation of the
   first joined slice (evictions, fault terms) and a couple of
   releases. *)
let ops_of ~seed =
  let p = params ~seed in
  let trace = Scenario.trace p in
  let base =
    List.filter_map
      (fun (at, ev) ->
        match ev with
        | Trace.Join theta ->
            Some (Wire.Join { now = at; terms = Certificate.rects_of_set theta })
        | Trace.Arrive computation ->
            Some (Wire.Admit { now = at; computation; budget_ms = None })
        | Trace.Arrive_session _ -> None)
      (Trace.events trace)
  in
  let horizon = Trace.horizon trace in
  let revoke =
    match Trace.joins trace with
    | (_, theta) :: _ ->
        [ Wire.Revoke
            { now = horizon / 2; terms = Certificate.rects_of_set theta } ]
    | [] -> []
  in
  let releases =
    match Trace.arrivals trace with
    | (_, c0) :: (_, c1) :: _ ->
        [
          Wire.Release { now = (horizon / 2) + 1; id = c0.Computation.id };
          Wire.Release { now = (horizon / 2) + 2; id = c1.Computation.id };
        ]
    | _ -> []
  in
  base @ revoke @ releases

(* Drive [ops] through a live replica exactly as the daemon does:
   apply, append the payloads, sync.  Returns the replica with the WAL
   on disk in [dir]. *)
let build_wal ~dir ~policy ops =
  match Wal.recover ~dir ~policy () with
  | Error m -> failwith ("build_wal: " ^ m)
  | Ok r ->
      let replica = r.Wal.replica and w = r.Wal.writer in
      List.iter
        (fun op ->
          let payloads, _reply = Replica.apply replica op in
          if payloads <> [] then
            ignore (Wal.append w ~sim:(Replica.now replica) payloads))
        ops;
      Wal.sync w;
      Wal.close w;
      replica

(* The specification side of the truncation property: replay the
   complete records of [path] into a fresh replica, by hand. *)
let replay_prefix ~path ~policy =
  let replica = Replica.create policy in
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  (match Binary.read_header ic with
  | Ok () -> ()
  | Error m -> failwith ("replay_prefix: " ^ m));
  let rec loop n =
    match Binary.read_item ic with
    | Binary.Event e -> (
        match Replica.replay replica e with
        | Ok () -> loop (n + 1)
        | Error m -> failwith (Printf.sprintf "replay_prefix: seq %d: %s" e.Rota_obs.Events.seq m))
    | Binary.Eof | Binary.Cut _ -> n
    | Binary.Malformed m -> failwith ("replay_prefix: malformed: " ^ m)
  in
  let n = loop 0 in
  (replica, n)

let entries_summary replica =
  List.map
    (fun (e : Calendar.entry) -> (e.Calendar.computation, e.Calendar.reservation))
    (Calendar.entries (Admission.calendar (Replica.controller replica)))

let demands_summary replica =
  Admission.admitted_demands (Replica.controller replica)

let same_state a b =
  String.equal (Replica.residual_digest a) (Replica.residual_digest b)
  && List.equal
       (fun (ida, ra) (idb, rb) ->
         String.equal ida idb && Resource_set.equal ra rb)
       (entries_summary a) (entries_summary b)
  && demands_summary a = demands_summary b

(* --- the truncation property ------------------------------------------------ *)

let prop_truncation_recovers =
  QCheck.Test.make ~count:40
    ~name:"wal: recovery after truncation at any byte = replay of the prefix"
    (* Half the cuts land in the first 64 bytes: the header, the
       opening [run-started] record, and the start of the next. *)
    QCheck.(pair (int_bound 1000) (oneof [ int_bound 64; int_bound 10_000 ]))
    (fun (seed, cut_raw) ->
      let build = temp_dir "rota-wal-build" in
      let crash = temp_dir "rota-wal-crash" in
      Fun.protect ~finally:(fun () -> rm_rf build; rm_rf crash)
      @@ fun () ->
      let policy = Admission.Rota in
      let _live = build_wal ~dir:build ~policy (ops_of ~seed) in
      let full =
        In_channel.with_open_bin (Wal.wal_path ~dir:build)
          In_channel.input_all
      in
      let len = String.length full in
      (* Any offset from 0 to the full file: a cut before the end of
         the opening [run-started] record leaves no complete record,
         and recovery must then start a fresh WAL. *)
      let cut = cut_raw mod (len + 1) in
      Out_channel.with_open_bin (Wal.wal_path ~dir:crash) (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      match Wal.recover ~dir:crash ~policy () with
      | Error m -> QCheck.Test.fail_reportf "recover at cut %d: %s" cut m
      | Ok r ->
          Wal.close r.Wal.writer;
          (* Recovery must have truncated the dangling tail on disk, or
             rewritten the header and [run-started] of a fresh WAL. *)
          let spec, complete_records =
            replay_prefix ~path:(Wal.wal_path ~dir:crash) ~policy
          in
          if complete_records <> max 1 r.Wal.scanned then
            QCheck.Test.fail_reportf
              "cut %d: %d records on disk after recovery, %d scanned" cut
              complete_records r.Wal.scanned;
          if not (same_state r.Wal.replica spec) then
            QCheck.Test.fail_reportf
              "cut %d: recovered state differs from the prefix's (digest %s \
               vs %s)"
              cut
              (Replica.residual_digest r.Wal.replica)
              (Replica.residual_digest spec);
          true)

(* A WAL that lost every record after a snapshot was taken: a snapshot
   is saved only after a sync, so acknowledged decisions are missing
   from the log, and recovery refuses to start fresh — for an empty WAL
   and a missing one alike — naming the snapshot and keeping it.  With
   the snapshot moved aside, the same WAL starts fresh. *)
let test_empty_wal_beside_snapshot_refused () =
  let dir = temp_dir "rota-wal-empty" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let policy = Admission.Rota in
  let snap_seq =
    match Wal.recover ~dir ~policy () with
    | Error m -> Alcotest.failf "recover: %s" m
    | Ok r ->
        let replica = r.Wal.replica and w = r.Wal.writer in
        List.iter
          (fun op ->
            let payloads, _ = Replica.apply replica op in
            if payloads <> [] then
              ignore (Wal.append w ~sim:(Replica.now replica) payloads))
          (ops_of ~seed:7);
        Wal.sync w;
        (match Wal.save_snapshot ~path:(Wal.snapshot_path ~dir) w replica with
        | Ok () -> ()
        | Error m -> Alcotest.failf "save_snapshot: %s" m);
        Wal.close w;
        Wal.seq w
  in
  let refused what =
    match Wal.recover ~dir ~policy () with
    | Ok r ->
        Wal.close r.Wal.writer;
        Alcotest.failf "%s beside a snapshot must be refused" what
    | Error m ->
        let mentions sub =
          let n = String.length sub in
          let rec at i =
            i + n <= String.length m && (String.sub m i n = sub || at (i + 1))
          in
          at 0
        in
        Alcotest.(check bool)
          (what ^ ": error names the snapshot's seq") true
          (mentions (Printf.sprintf "covers seq %d at wal offset" snap_seq));
        Alcotest.(check bool) (what ^ ": snapshot kept") true
          (Sys.file_exists (Wal.snapshot_path ~dir))
  in
  Out_channel.with_open_bin (Wal.wal_path ~dir) ignore;
  refused "an empty WAL";
  Sys.remove (Wal.wal_path ~dir);
  refused "a missing WAL";
  Out_channel.with_open_bin (Wal.wal_path ~dir) ignore;
  Sys.rename (Wal.snapshot_path ~dir) (Filename.concat dir "snapshot.aside");
  match Wal.recover ~dir ~policy () with
  | Error m -> Alcotest.failf "recover an empty WAL, no snapshot: %s" m
  | Ok r ->
      Wal.close r.Wal.writer;
      Alcotest.(check int) "nothing scanned" 0 r.Wal.scanned;
      let spec, records = replay_prefix ~path:(Wal.wal_path ~dir) ~policy in
      Alcotest.(check int) "run-started rewritten" 1 records;
      Alcotest.(check bool) "empty state" true (same_state spec r.Wal.replica)

(* Snapshot-assisted recovery agrees with the from-scratch replay, and a
   snapshot past the surviving prefix is abandoned for the WAL. *)
let test_snapshot_recovery () =
  let dir = temp_dir "rota-wal-snap" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let policy = Admission.Rota in
  let ops = ops_of ~seed:42 in
  let n = List.length ops in
  let live =
    match Wal.recover ~dir ~policy () with
    | Error m -> Alcotest.failf "recover: %s" m
    | Ok r ->
        let replica = r.Wal.replica and w = r.Wal.writer in
        List.iteri
          (fun i op ->
            let payloads, _ = Replica.apply replica op in
            if payloads <> [] then
              ignore (Wal.append w ~sim:(Replica.now replica) payloads);
            if i = n / 2 then begin
              Wal.sync w;
              match Wal.save_snapshot ~path:(Wal.snapshot_path ~dir) w replica with
              | Ok () -> ()
              | Error m -> Alcotest.failf "save_snapshot: %s" m
            end)
          ops;
        Wal.sync w;
        Wal.close w;
        replica
  in
  (match Wal.recover ~dir ~policy () with
  | Error m -> Alcotest.failf "recover with snapshot: %s" m
  | Ok r ->
      Wal.close r.Wal.writer;
      Alcotest.(check bool) "snapshot was used" true r.Wal.from_snapshot;
      Alcotest.(check bool)
        "tail shorter than stream" true
        (r.Wal.replayed < r.Wal.scanned);
      Alcotest.(check string) "digest agrees with the live state"
        (Replica.residual_digest live)
        r.Wal.digest;
      Alcotest.(check bool) "ledger agrees" true (same_state live r.Wal.replica));
  (* Cut the WAL back to before the snapshot point: recovery must fall
     back to the from-scratch replay of the surviving prefix. *)
  let full = In_channel.with_open_bin (Wal.wal_path ~dir) In_channel.input_all in
  Out_channel.with_open_bin (Wal.wal_path ~dir) (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full / 4)));
  match Wal.recover ~dir ~policy () with
  | Error m -> Alcotest.failf "recover past-snapshot cut: %s" m
  | Ok r ->
      Wal.close r.Wal.writer;
      Alcotest.(check bool) "snapshot abandoned" false r.Wal.from_snapshot;
      let spec, _ = replay_prefix ~path:(Wal.wal_path ~dir) ~policy in
      Alcotest.(check bool) "prefix state recovered" true
        (same_state spec r.Wal.replica)

(* A restarted daemon's watchdog continues from recovery's auditor: cut
   the WAL inside its last record (a crash mid-append), recover, build
   the watchdog on [recovery.live], and every decision after the restart
   re-verifies.  A watchdog started empty, as before, flags them. *)
let test_seeded_watchdog () =
  let dir = temp_dir "rota-wal-seeded" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let policy = Admission.Rota in
  let ops = ops_of ~seed:42 in
  let half = List.length ops / 2 in
  let before = List.filteri (fun i _ -> i < half) ops
  and after = List.filteri (fun i _ -> i >= half) ops in
  ignore (build_wal ~dir ~policy before);
  let wal = Wal.wal_path ~dir in
  let full = In_channel.with_open_bin wal In_channel.input_all in
  Out_channel.with_open_bin wal (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 3)));
  match Wal.recover ~dir ~policy () with
  | Error m -> Alcotest.failf "recover: %s" m
  | Ok r ->
      Alcotest.(check bool) "the cut record was dropped" true (r.Wal.truncated > 0);
      let seeded = Watchdog.create ~live:r.Wal.live () and empty = Watchdog.create () in
      let decisions = ref 0 in
      List.iter
        (fun op ->
          let payloads, _ = Replica.apply r.Wal.replica op in
          List.iter
            (fun (e : Events.t) ->
              (match e.Events.payload with
              | Events.Decision _ -> incr decisions
              | _ -> ());
              Watchdog.observe seeded e;
              Watchdog.observe empty e)
            (Wal.append r.Wal.writer ~sim:(Replica.now r.Wal.replica) payloads))
        after;
      Wal.close r.Wal.writer;
      let s = Watchdog.stats seeded in
      Alcotest.(check bool) "decisions after the restart" true (!decisions > 0);
      Alcotest.(check int) "stats count only the observed decisions" !decisions
        s.Watchdog.decisions;
      Alcotest.(check int) "every one verified" !decisions s.Watchdog.verified;
      Alcotest.(check int) "no divergence" 0 s.Watchdog.divergences;
      Alcotest.(check bool) "an empty watchdog diverges" true
        ((Watchdog.stats empty).Watchdog.divergences > 0)

(* --- the shedding policy ----------------------------------------------------- *)

(* The two checkpoints enforce the invariant the daemon advertises: an
   accepted request's queue delay never exceeds its budget, and the
   queue cannot grow past the point where the predicted delay blows the
   default budget. *)
let test_shed_bounded_delay () =
  let s = Shed.create ~default_budget_s:0.05 ~max_queue:10 () in
  Shed.observe s 0.02;
  Alcotest.(check (float 1e-9)) "first sample seeds the estimate" 0.02
    (Shed.estimate_s s);
  (match Shed.on_enqueue s ~queue_len:0 ~budget_ms:None with
  | Shed.Accept -> ()
  | Shed.Reject { message; _ } ->
      Alcotest.failf "empty queue must accept: %s" message);
  (match Shed.on_enqueue s ~queue_len:4 ~budget_ms:None with
  | Shed.Reject _ -> ()
  | Shed.Accept ->
      Alcotest.fail "5 queued x 20ms estimate > 50ms budget must shed");
  (match Shed.on_enqueue s ~queue_len:4 ~budget_ms:(Some 1000.) with
  | Shed.Accept -> ()
  | Shed.Reject { message; _ } ->
      Alcotest.failf "generous budget must accept: %s" message);
  (match Shed.on_enqueue s ~queue_len:10 ~budget_ms:(Some 1e9) with
  | Shed.Reject _ -> ()
  | Shed.Accept -> Alcotest.fail "full queue must shed regardless of budget");
  (match Shed.on_dequeue s ~waited_s:0.06 ~budget_ms:None with
  | Shed.Reject _ -> ()
  | Shed.Accept -> Alcotest.fail "blown budget at dequeue must shed");
  match Shed.on_dequeue s ~waited_s:0.01 ~budget_ms:None with
  | Shed.Accept -> ()
  | Shed.Reject { message; _ } ->
      Alcotest.failf "in-budget wait must be decided: %s" message

(* Whatever latency history, a request the dequeue checkpoint lets
   through has waited at most its budget: the p99-bounding argument is
   this inequality, not the estimator. *)
let prop_dequeue_bounds_wait =
  QCheck.Test.make ~count:200 ~name:"shed: accepted wait <= budget"
    QCheck.(triple (list (QCheck.float_bound_inclusive 1.0))
              (QCheck.float_bound_inclusive 1.0)
              (QCheck.float_bound_inclusive 0.5))
    (fun (samples, waited, budget) ->
      QCheck.assume (budget > 0.);
      let s = Shed.create ~default_budget_s:budget () in
      List.iter (Shed.observe s) samples;
      match Shed.on_dequeue s ~waited_s:waited ~budget_ms:None with
      | Shed.Accept -> waited <= budget
      | Shed.Reject _ -> waited > budget)

(* --- wire codec -------------------------------------------------------------- *)

let roundtrip_request r =
  match Wire.request_of_line (Wire.request_to_line r) with
  | Ok r' -> r' = r
  | Error m -> Alcotest.failf "request did not parse back: %s" m

let test_wire_roundtrip () =
  let computations = Scenario.computations (params ~seed:9) in
  Alcotest.(check bool) "some computations generated" true (computations <> []);
  List.iter
    (fun c ->
      match Wire.computation_of_json (Wire.computation_to_json c) with
      | Ok c' ->
          Alcotest.(check bool)
            (Printf.sprintf "computation %s round-trips" c.Computation.id)
            true (c' = c)
      | Error m -> Alcotest.failf "computation codec: %s" m)
    computations;
  let slice = Scenario.capacity_of (params ~seed:9) in
  let requests =
    [
      { Wire.tag = Json.Null;
        op = Wire.Admit
            { now = 3; computation = List.hd computations; budget_ms = Some 40. } };
      { Wire.tag = Json.Int 7;
        op = Wire.Join { now = 0; terms = Certificate.rects_of_set slice } };
      { Wire.tag = Json.String "r1";
        op = Wire.Revoke { now = 9; terms = Certificate.rects_of_set slice } };
      { Wire.tag = Json.Null; op = Wire.Release { now = 4; id = "c01" } };
      { Wire.tag = Json.Null; op = Wire.Query "residual-digest" };
      { Wire.tag = Json.Null; op = Wire.Ping };
      { Wire.tag = Json.Null; op = Wire.Shutdown };
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "request round-trips" true (roundtrip_request r))
    requests;
  let responses =
    [
      { Wire.tag = Json.Null;
        cid = None;
        reply =
          Wire.Decided
            { id = "c1"; action = "admit"; slug = "committed";
              reason = "fits"; digest = "abc123" } };
      { Wire.tag = Json.Int 7;
        cid = None;
        reply = Wire.Shed { id = "c2"; reason = "queue full" } };
      { Wire.tag = Json.Null; cid = None;
        reply = Wire.Released { id = "c3"; existed = true } };
      { Wire.tag = Json.Null;
        cid = None;
        reply = Wire.Revoked { quantity = 12; evicted = [ "a"; "b" ] } };
      { Wire.tag = Json.Null; cid = None; reply = Wire.Joined { quantity = 5 } };
      { Wire.tag = Json.Null;
        cid = None;
        reply = Wire.Info [ ("digest", Json.String "ff") ] };
      { Wire.tag = Json.Null; cid = None; reply = Wire.Pong };
      { Wire.tag = Json.Null; cid = None; reply = Wire.Draining };
      { Wire.tag = Json.Null; cid = None; reply = Wire.Failed "nope" };
    ]
  in
  List.iter
    (fun r ->
      match Wire.response_of_line (Wire.response_to_line r) with
      | Ok r' ->
          Alcotest.(check bool) "response round-trips" true (r' = r)
      | Error m -> Alcotest.failf "response did not parse back: %s" m)
    responses;
  (* A shed response is, on the wire, a reject carrying the shed slug. *)
  match
    Json.parse
      (Wire.response_to_line
         { Wire.tag = Json.Null;
           cid = None;
           reply = Wire.Shed { id = "x"; reason = "late" } })
  with
  | Ok json ->
      Alcotest.(check bool) "shed slug on the wire" true
        (Json.member "slug" json = Some (Json.String Wire.shed_slug))
  | Error m -> Alcotest.failf "shed response unparsable: %s" m

(* --- correlation ids ---------------------------------------------------------- *)

(* The daemon's cid travels two ways: echoed in the reply envelope (and
   as the tag for untagged requests) and stamped into the WAL decision
   record — so a client log line, a scrape, and a WAL entry can be
   joined on one key. *)
let test_wire_cid_echo () =
  let with_cid =
    { Wire.tag = Json.Int 3; cid = Some "r42-7"; reply = Wire.Pong }
  in
  (match Wire.response_of_line (Wire.response_to_line with_cid) with
  | Ok r -> Alcotest.(check bool) "cid round-trips" true (r = with_cid)
  | Error m -> Alcotest.failf "cid response did not parse: %s" m);
  (match Json.parse (Wire.response_to_line with_cid) with
  | Ok json ->
      Alcotest.(check bool) "cid on the wire" true
        (Json.member "cid" json = Some (Json.String "r42-7"))
  | Error m -> Alcotest.failf "cid response unparsable: %s" m);
  let without =
    { Wire.tag = Json.Null; cid = None; reply = Wire.Draining }
  in
  (match Wire.response_of_line (Wire.response_to_line without) with
  | Ok r -> Alcotest.(check bool) "absent cid is None" true (r = without)
  | Error m -> Alcotest.failf "cid-less response did not parse: %s" m);
  let snapshot =
    { Wire.tag = Json.Null;
      cid = Some "r1-1";
      reply =
        Wire.Metrics_snapshot
          { exposition = "# EOF\n";
            samples =
              [ Json.Obj [ ("kind", Json.String "metric-sample") ] ] } }
  in
  match Wire.response_of_line (Wire.response_to_line snapshot) with
  | Ok r -> Alcotest.(check bool) "metrics snapshot round-trips" true (r = snapshot)
  | Error m -> Alcotest.failf "metrics snapshot did not parse: %s" m

let test_cid_stamped_in_decision () =
  let replica = Replica.create Admission.Rota in
  let computation = List.hd (Scenario.computations (params ~seed:9)) in
  let payloads, _reply =
    Replica.apply ~cid:"r9-1" replica
      (Wire.Admit { now = 0; computation; budget_ms = None })
  in
  let cids =
    List.filter_map
      (function
        | Rota_obs.Events.Decision { cid; _ } -> Some cid
        | _ -> None)
      payloads
  in
  Alcotest.(check bool) "decision carries the cid" true
    (cids <> [] && List.for_all (( = ) (Some "r9-1")) cids)

(* --- the scrape surface ------------------------------------------------------- *)

module Telemetry = Rota_server.Telemetry
module Metrics = Rota_obs.Metrics
module Openmetrics = Rota_obs.Openmetrics

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The exposition a live daemon serves: lint-clean, and the family set
   is stable — every family the daemon can ever touch is present from
   the first scrape, zero-valued or not. *)
let test_scrape_families () =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  Telemetry.count_request "admit";
  Telemetry.count_shed "queue-full";
  Metrics.observe Telemetry.rtt 0.004;
  Metrics.observe Telemetry.admit_slack 12.;
  Telemetry.set_burn Telemetry.burn_5m 1.25;
  let body = Openmetrics.render (Metrics.snapshot ()) in
  (match Openmetrics.lint body with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exposition does not lint: %s" e);
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " present") true (contains ~sub body))
    [
      "# TYPE server_rtt_s histogram";
      "# TYPE server_queue_wait_s histogram";
      "# TYPE server_fsync_s histogram";
      "# TYPE server_admit_slack histogram";
      "# TYPE server_queue_depth gauge";
      "# TYPE server_connections gauge";
      "# TYPE server_wal_bytes counter";
      "server_requests_total{slug=\"admit\"} 1";
      "server_requests_total{slug=\"ping\"} 0";
      "server_shed_total{slug=\"queue-full\"} 1";
      "server_shed_total{slug=\"predicted-delay\"} 0";
      "slo_burn_5m 1250";
      "slo_burn_1h 0";
      "# EOF";
    ]

(* Deadline slack read off a constructive certificate: deadline minus
   the latest schedule-step stop. *)
let test_admit_slack_bound () =
  let step stop =
    { Certificate.index = 0;
      need = [];
      subwindow = Interval.of_pair 0 stop;
      allocation = [] }
  in
  let part stops =
    { Certificate.actor = "a";
      window = Interval.of_pair 0 100;
      breakpoints = [];
      steps = List.map step stops }
  in
  let cert evidence = { Certificate.theorem = Certificate.T2; digest = ""; evidence } in
  (match
     Telemetry.completion_bound (cert (Certificate.Schedules [ part [ 4; 9 ] ]))
   with
  | Some 9 -> ()
  | Some other -> Alcotest.failf "schedules bound %d, want 9" other
  | None -> Alcotest.fail "schedules evidence must bound completion");
  (match Telemetry.completion_bound (cert Certificate.Infeasible) with
  | None -> ()
  | Some _ -> Alcotest.fail "reject evidence has no completion bound");
  match
    Telemetry.completion_bound
      (cert
         (Certificate.Aggregate_fit
            { window = Interval.of_pair 2 17; rows = []; fits = true }))
  with
  | Some 17 -> ()
  | _ -> Alcotest.fail "aggregate fit bounds at the window stop"

(* --- replica snapshots -------------------------------------------------------- *)

let test_replica_snapshot_roundtrip () =
  let dir = temp_dir "rota-replica-snap" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let live = build_wal ~dir ~policy:Admission.Rota (ops_of ~seed:4) in
  match Replica.restore (Replica.snapshot live) with
  | Error m -> Alcotest.failf "restore: %s" m
  | Ok back ->
      Alcotest.(check bool) "snapshot round-trips the ledger" true
        (same_state live back);
      Alcotest.(check int) "clock preserved" (Replica.now live)
        (Replica.now back)

(* A tampered snapshot (one reservation quantity nudged) must be
   refused by the digest check, not silently adopted. *)
let test_snapshot_tamper_refused () =
  let dir = temp_dir "rota-replica-tamper" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let live = build_wal ~dir ~policy:Admission.Rota (ops_of ~seed:4) in
  let json = Replica.snapshot live in
  let rec tamper json =
    match json with
    | Json.Obj fields ->
        Json.Obj (List.map (fun (k, v) -> (k, tamper v)) fields)
    | Json.List items -> Json.List (List.map tamper items)
    | Json.String s
      when String.length s = 16 || String.starts_with ~prefix:"v2:" s ->
        (* Digest-shaped strings (v1 or v2) get their last nibble flipped. *)
        let last = String.length s - 1 in
        Json.String
          (String.mapi (fun i c -> if i = last then (if c = '0' then '1' else '0') else c) s)
    | other -> other
  in
  match Replica.restore (tamper json) with
  | Ok _ -> Alcotest.fail "tampered snapshot must be refused"
  | Error _ -> ()

(* A snapshot stamped before digest v2 carries a bare 16-hex v1 digest;
   restore checks the stamp in the version it was written in, so such a
   snapshot still restores — and a wrong v1 stamp is still refused. *)
let test_v1_snapshot_restores () =
  let dir = temp_dir "rota-v1-snapshot" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let live = build_wal ~dir ~policy:Admission.Rota (ops_of ~seed:4) in
  let ctrl = Replica.controller live in
  let stamp digest =
    match Admission.snapshot ctrl with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) -> if k = "digest" then (k, Json.String digest) else (k, v))
             fields)
    | _ -> Alcotest.fail "admission snapshot is not an object"
  in
  let v1 = Certificate.digest_v1 (Admission.residual ctrl) in
  (match Admission.restore (stamp v1) with
  | Ok back ->
      Alcotest.(check string) "same residual"
        (Certificate.digest (Admission.residual ctrl))
        (Certificate.digest (Admission.residual back))
  | Error m -> Alcotest.failf "v1-stamped snapshot refused: %s" m);
  let wrong = String.mapi (fun i c -> if i = 15 then (if c = '0' then '1' else '0') else c) v1 in
  match Admission.restore (stamp wrong) with
  | Ok _ -> Alcotest.fail "a wrong v1 stamp must be refused"
  | Error _ -> ()

(* --- one state machine for simulator and daemon ------------------------------ *)

(* Everything [run] delivers to a tracer sink, in emission order. *)
let collect run =
  let seen = ref [] in
  Tracer.install (Sink.make ~emit:(fun e -> seen := e :: !seen) ~close:ignore);
  Fun.protect ~finally:Tracer.uninstall run;
  List.rev !seen

let policy_gen = QCheck.Gen.oneofl Admission.all_policies

let cert_digest certificate =
  match Certificate.of_json certificate with
  | Ok c -> c.Certificate.digest
  | Error m -> failwith ("certificate: " ^ m)

(* QCheck: a simulator trace — any policy, sessions, a random fault plan,
   repair on or off — folds through [Replica.replay] without error, and
   before every decision the auditor verifies, the replayed residual is
   exactly the one that decision's certificate pins. *)
let prop_replay_engine_traces =
  QCheck.Test.make ~count:40
    ~name:"replica: random faulted engine traces replay, digests agree"
    QCheck.(
      make
        ~print:(fun (seed, fault_seed, policy, repair) ->
          Printf.sprintf "seed=%d fault_seed=%d policy=%s repair=%b" seed
            fault_seed (Admission.policy_name policy) repair)
        Gen.(quad (int_bound 1000) (int_bound 100) policy_gen bool))
    (fun (seed, fault_seed, policy, repair) ->
      let p = params ~seed in
      let trace = Scenario.trace_with_sessions p ~sessions:(seed mod 3) in
      let faults = Scenario.fault_plan ~fault_seed ~intensity:1.5 p in
      let events =
        collect (fun () -> ignore (Engine.run ~faults ~repair ~policy trace))
      in
      let live = Live.create () and replica = Replica.create policy in
      List.iter
        (fun (e : Events.t) ->
          (match (Live.step live e, e.Events.payload) with
          | Some { Live.verdict = Live.Verified; _ },
            Events.Decision { id; action; certificate; _ } ->
              Option.iter (Replica.advance replica) e.Events.sim;
              let pinned = cert_digest certificate in
              if pinned <> "" && pinned <> Replica.residual_digest replica then
                QCheck.Test.fail_reportf "%s %s at seq %d: pinned %s, replayed %s"
                  action id e.Events.seq pinned (Replica.residual_digest replica)
          | _ -> ());
          match Replica.replay replica e with
          | Ok () -> ()
          | Error m ->
              QCheck.Test.fail_reportf "seq %d (%s): %s" e.Events.seq
                (Events.kind e.Events.payload) m)
        events;
      true)

(* QCheck: serialize a fault-free simulator run into wire operations —
   its joins, each arrival at its decision tick, a release at each
   completion or kill — and the daemon's face decides every request
   exactly as the engine did: same action, same residual digest. *)
let prop_daemon_matches_simulator =
  QCheck.Test.make ~count:40 ~name:"replica: daemon and simulator decide the same"
    QCheck.(
      make
        ~print:(fun (seed, policy) ->
          Printf.sprintf "seed=%d policy=%s" seed (Admission.policy_name policy))
        Gen.(pair (int_bound 1000) policy_gen))
    (fun (seed, policy) ->
      let trace = Scenario.trace (params ~seed) in
      let arrivals = Hashtbl.create 16 in
      List.iter
        (fun (_, (c : Computation.t)) -> Hashtbl.replace arrivals c.Computation.id c)
        (Trace.arrivals trace);
      let events = collect (fun () -> ignore (Engine.run ~policy trace)) in
      let replica = Replica.create policy in
      let apply now op = snd (Replica.apply replica (op now)) in
      let decided = ref 0 in
      List.iter
        (fun (e : Events.t) ->
          let now = Option.value e.Events.sim ~default:0 in
          match e.Events.payload with
          | Events.Capacity_joined { terms; _ } -> (
              match Certificate.rects_of_json terms with
              | Ok terms -> ignore (apply now (fun now -> Wire.Join { now; terms }))
              | Error m -> QCheck.Test.fail_reportf "join terms: %s" m)
          | Events.Decision { id; action; certificate; _ } -> (
              let computation = Hashtbl.find arrivals id in
              match
                apply now (fun now ->
                    Wire.Admit { now; computation; budget_ms = None })
              with
              | Wire.Decided d ->
                  incr decided;
                  if d.action <> action || d.digest <> cert_digest certificate
                  then
                    QCheck.Test.fail_reportf
                      "%s at t%d: simulator %s, daemon %s (digest %s vs %s)" id
                      now action d.action (cert_digest certificate) d.digest
              | _ -> QCheck.Test.fail_reportf "%s: admit not decided" id)
          | Events.Completed { id } | Events.Killed { id; _ } ->
              ignore (apply now (fun now -> Wire.Release { now; id }))
          | _ -> ())
        events;
      !decided = Hashtbl.length arrivals)

(* --- one cursor, one crash-cut rule ------------------------------------------ *)

(* QCheck: a faulted engine trace, written in both codecs and cut at any
   byte, reads the same through every reader.  The specification is
   computed from the record encodings alone: the [k] records that end
   at or before the cut, and the [dangling] bytes past the last of
   them.  [fold_file] delivers those [k] events and reports the dangling
   bytes as its tail (keeping a JSONL line that lacks only its newline);
   a drained [Follow.poll] delivers the same [k] with [pending_bytes] =
   [dangling]; [validate_file] counts the events [fold_file] delivers;
   and recovery's scan of the ROTB copy, relabelled as a serve WAL,
   scans [k] records and truncates [dangling] bytes — starting a fresh
   WAL when [k] is 0.  (Recovery refuses a prefix whose replay and
   audit disagree, as one cut between a revocation and its evictions
   does; the property holds it to exactly that.) *)
let prop_readers_agree =
  QCheck.Test.make ~count:30
    ~name:"readers: every reader sees the same prefix and tail at any cut"
    QCheck.(
      make
        ~print:(fun (seed, fault_seed, policy, cut) ->
          Printf.sprintf "seed=%d fault_seed=%d policy=%s cut=%d" seed
            fault_seed (Admission.policy_name policy) cut)
        Gen.(
          quad (int_bound 1000) (int_bound 100) policy_gen
            (oneof [ int_bound 200; int_bound 1_000_000 ])))
    (fun (seed, fault_seed, policy, cut_raw) ->
      let p = params ~seed in
      let faults = Scenario.fault_plan ~fault_seed ~intensity:1.5 p in
      let events =
        collect (fun () ->
            ignore (Engine.run ~faults ~repair:true ~policy (Scenario.trace p)))
        |> List.map (fun (e : Events.t) ->
               match e.Events.payload with
               | Events.Run_started _ ->
                   {
                     e with
                     Events.payload =
                       Events.Run_started { label = Replica.run_label policy };
                   }
               | _ -> e)
      in
      let dir = temp_dir "rota-readers" in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let jsonl_record e = Events.to_line e ^ "\n" in
      let rotb_record e =
        let b = Buffer.create 128 in
        Binary.encode b e;
        Buffer.contents b
      in
      let check ~name ~header ~record =
        let records = List.map record events in
        let full = header ^ String.concat "" records in
        let cut = cut_raw mod (String.length full + 1) in
        let path = Filename.concat dir ("trace." ^ name) in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.sub full 0 cut));
        (* The records that end at or before the cut. *)
        let rec complete k at = function
          | r :: rest when at + String.length r <= cut ->
              complete (k + 1) (at + String.length r) rest
          | rest -> (k, at, rest)
        in
        let k, boundary, rest =
          if cut < String.length header then (0, 0, records)
          else complete 0 (String.length header) records
        in
        let dangling = cut - boundary in
        let prefix n = List.filteri (fun i _ -> i < n) events in
        (* A JSONL line lacking only its newline still parses. *)
        let whole_line =
          name = "jsonl"
          && match rest with r :: _ -> dangling = String.length r - 1 | [] -> false
        in
        let fail fmt =
          QCheck.Test.fail_reportf ("%s, cut %d of %d: " ^^ fmt) name cut
            (String.length full)
        in
        let expected_tail, delivered =
          if whole_line then (Trace_reader.Complete, k + 1)
          else if dangling = 0 then (Trace_reader.Complete, k)
          else (Trace_reader.Truncated { line = k + 1; bytes = dangling }, k)
        in
        (match Trace_reader.read_file path with
        | Error e -> fail "fold_file: %a" Trace_reader.pp_error e
        | Ok (got, tail) ->
            if got <> prefix delivered then
              fail "fold_file delivered %d events, expected %d"
                (List.length got) delivered;
            if tail <> expected_tail then
              fail "fold_file tail %a, expected %a" Trace_reader.pp_tail tail
                Trace_reader.pp_tail expected_tail);
        (match Trace_reader.Cursor.open_file path with
        | Error e -> fail "Cursor.open_file: %a" Trace_reader.pp_error e
        | Ok c ->
            Fun.protect ~finally:(fun () -> Trace_reader.Cursor.close c)
            @@ fun () ->
            match Trace_reader.Follow.poll c with
            | Error e -> fail "Follow.poll: %a" Trace_reader.pp_error e
            | Ok got ->
                if got <> prefix k then
                  fail "Follow.poll delivered %d events, expected %d"
                    (List.length got) k;
                let pending = Trace_reader.Follow.pending_bytes c in
                if pending <> dangling then
                  fail "pending_bytes %d, expected %d" pending dangling);
        let v = Trace_reader.validate_file path in
        if v.Trace_reader.events <> delivered then
          fail "validate_file counted %d events, expected %d"
            v.Trace_reader.events delivered;
        if name = "rotb" then begin
          (* Recovery accepts the prefix iff its replay and its audit
             agree — the cross-check is the oracle's, recomputed here —
             and then it must have scanned exactly the complete records
             and cut exactly the dangling bytes. *)
          let agreed =
            let replica = Replica.create policy and live = Live.create () in
            List.for_all
              (fun e ->
                ignore (Live.step live e);
                Result.is_ok (Replica.replay replica e))
              (prefix k)
            && Live.residual_digest live
               = Ok (Replica.residual_digest replica)
          in
          let wal_dir = Filename.concat dir "state" in
          Unix.mkdir wal_dir 0o755;
          Sys.rename path (Wal.wal_path ~dir:wal_dir);
          match Wal.recover ~dir:wal_dir ~policy () with
          | Error m -> if k = 0 || agreed then fail "recover: %s" m
          | Ok r ->
              Wal.close r.Wal.writer;
              if k > 0 && not agreed then
                fail "recovery accepted a prefix its audit refuses";
              if r.Wal.scanned <> k || r.Wal.truncated <> dangling then
                fail "recovery scanned %d records, truncated %d bytes"
                  r.Wal.scanned r.Wal.truncated;
              if Live.events r.Wal.live <> max 1 k then
                fail "recovery's auditor stepped %d events, expected %d"
                  (Live.events r.Wal.live) (max 1 k)
        end
      in
      check ~name:"jsonl" ~header:"" ~record:jsonl_record;
      check ~name:"rotb" ~header:Binary.header ~record:rotb_record;
      true)

(* The one endpoint parser behind --socket/--tcp, --metrics-listen,
   [metrics scrape] and [top --connect]. *)
let test_address_of_string () =
  let module D = Rota_server.Daemon in
  let show = function
    | D.Unix_socket p -> "unix " ^ p
    | D.Tcp (h, p) -> Printf.sprintf "tcp %s %d" h p
  in
  let check input expected =
    Alcotest.(check string) input expected (show (D.address_of_string input))
  in
  check ":45678" "tcp 127.0.0.1 45678";
  check "localhost:7000" "tcp localhost 7000";
  check "10.0.0.2:1" "tcp 10.0.0.2 1";
  check "/tmp/rota.sock" "unix /tmp/rota.sock";
  check "./state:9" "tcp ./state 9";
  check "sock:0" "unix sock:0";
  check "sock:65536" "unix sock:65536";
  check "host:http" "unix host:http";
  let tcp input =
    match D.tcp_of_string input with
    | Ok a -> "ok " ^ show a
    | Error m -> "error " ^ m
  in
  Alcotest.(check string) "--tcp empty host" "ok tcp 127.0.0.1 45678"
    (tcp ":45678");
  Alcotest.(check string) "--tcp bad port" "error port \"0\"" (tcp "h:0");
  Alcotest.(check string) "--tcp no port"
    "error \"h\" (expected HOST:PORT)" (tcp "h")

(* --- traces written before the decision record became the only one ---------- *)

(* Committed fixtures from the previous binary: a faulted, watchdogged
   [rota simulate] trace over every policy (JSONL and ROTB) and a short
   [rota serve] WAL (releases and a revocation included).  Each still
   validates, audits clean, replays, and summarizes to the admitted and
   rejected counts its legacy per-decision records state. *)
let legacy_fixtures =
  [ "legacy-sim.jsonl"; "legacy-sim.rotb"; "legacy-serve-wal.rotb" ]

let decision_digests path =
  match Trace_reader.read_file path with
  | Ok (events, _) ->
      List.filter_map
        (fun (e : Events.t) ->
          match e.Events.payload with
          | Events.Decision { certificate; _ } -> (
              match Certificate.of_json certificate with
              | Ok c when c.Certificate.digest <> "" -> Some c.Certificate.digest
              | _ -> None)
          | _ -> None)
        events
  | Error e -> Alcotest.failf "read: %s" (Format.asprintf "%a" Trace_reader.pp_error e)

let is_v1 d = String.length d = 16 && not (String.contains d ':')

(* A daemon that recovers the legacy WAL (v1 digests throughout) and
   decides more requests appends v2 digests after them; the mixed log
   re-audits with every decision verified, each against the digest
   version it was written in, and recovers again with 0 divergences. *)
let test_mixed_digest_wal () =
  let dir = temp_dir "rota-mixed-wal" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let wal = Wal.wal_path ~dir in
  (let ic = open_in_bin (Filename.concat "fixtures" "legacy-serve-wal.rotb") in
   Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
   let oc = open_out_bin wal in
   output_string oc (really_input_string ic (in_channel_length ic));
   close_out oc);
  Alcotest.(check bool) "the fixture's digests are all v1" true
    (List.for_all is_v1 (decision_digests wal));
  let start =
    match Wal.recover ~dir ~policy:Admission.Rota () with
    | Ok r ->
        let t = Replica.now r.Wal.replica in
        Wal.close r.Wal.writer;
        t
    | Error m -> Alcotest.failf "recovering the legacy wal: %s" m
  in
  let node = Rota_resource.Location.make "m1" in
  let computation i =
    Computation.make ~id:(Printf.sprintf "mixed-%d" i) ~start:(start + 1 + (4 * i))
      ~deadline:(start + 40 + (4 * i))
      [
        Rota_actor.Program.make ~name:(Rota_actor.Actor_name.make "a") ~home:node
          [ Rota_actor.Action.evaluate 1; Rota_actor.Action.ready ];
      ]
  in
  let ops =
    Wire.Join
      {
        now = start + 1;
        terms =
          Certificate.rects_of_set
            (Resource_set.of_terms
               [
                 Rota_resource.Term.v 3
                   (Interval.of_pair (start + 1) (start + 200))
                   (Rota_resource.Located_type.cpu node);
               ]);
      }
    :: List.init 8 (fun i ->
           Wire.Admit { now = start + 1 + (4 * i); computation = computation i; budget_ms = None })
  in
  ignore (build_wal ~dir ~policy:Admission.Rota ops);
  let digests = decision_digests wal in
  Alcotest.(check bool) "v1 digests remain" true (List.exists is_v1 digests);
  Alcotest.(check bool) "v2 digests follow" true
    (List.exists (String.starts_with ~prefix:"v2:") digests);
  (match Audit.audit_file wal with
  | Ok r ->
      Alcotest.(check bool) "audits clean" true (Audit.ok r);
      Alcotest.(check int) "every decision verified" r.Audit.decisions r.Audit.verified
  | Error e -> Alcotest.failf "audit: %s" (Format.asprintf "%a" Trace_reader.pp_error e));
  match Wal.recover ~dir ~policy:Admission.Rota () with
  | Ok r ->
      Wal.close r.Wal.writer;
      Alcotest.(check int) "recovery diverges nowhere" 0 r.Wal.diverged
  | Error m -> Alcotest.failf "recovering the mixed wal: %s" m

let test_legacy_fixture name () =
  let path = Filename.concat "fixtures" name in
  let v = Trace_reader.validate_file path in
  Alcotest.(check (list string)) "validates" [] v.Trace_reader.errors;
  (match Audit.audit_file path with
  | Ok r ->
      Alcotest.(check bool) "audits clean" true (Audit.ok r);
      Alcotest.(check int) "every decision verified" r.Audit.decisions
        r.Audit.verified
  | Error e ->
      Alcotest.failf "audit: %s" (Format.asprintf "%a" Trace_reader.pp_error e));
  let events =
    match Trace_reader.read_file path with
    | Ok (events, Trace_reader.Complete) -> events
    | Ok (_, Trace_reader.Truncated _) -> Alcotest.fail "fixture is truncated"
    | Error e -> Alcotest.failf "read: %s" (Format.asprintf "%a" Trace_reader.pp_error e)
  in
  let replica = Replica.create Admission.Rota and live = Live.create () in
  List.iter
    (fun (e : Events.t) ->
      (* Spans carry no ledger state, only a stale clock (the run span
         closes stamped with its opening tick), so the auditor's clock
         skips them and both folds end at the same tick. *)
      (match e.Events.payload with
      | Events.Span _ -> ()
      | _ -> ignore (Live.step live e));
      match Replica.replay replica e with
      | Ok () -> ()
      | Error m -> Alcotest.failf "replay seq %d: %s" e.Events.seq m)
    events;
  (match Live.residual_digest live with
  | Ok audited ->
      Alcotest.(check string) "replayed residual = audited residual" audited
        (Replica.residual_digest replica)
  | Error m -> Alcotest.failf "audit digest: %s" m);
  let legacy kind run =
    List.length
      (List.filter
         (fun (e : Events.t) ->
           e.Events.run = run
           && match e.Events.payload with
              | Events.Unknown { kind = k; _ } -> String.equal k kind
              | _ -> false)
         events)
  in
  let runs = (Summary.of_events events).Summary.runs in
  Alcotest.(check bool) "runs summarized" true (runs <> []);
  List.iter
    (fun (r : Summary.run) ->
      Alcotest.(check int) "admitted" (legacy "admitted" r.Summary.run_id)
        r.Summary.admitted;
      Alcotest.(check int) "rejected" (legacy "rejected" r.Summary.run_id)
        r.Summary.rejected)
    runs

let () =
  Alcotest.run "server"
    [
      ( "wal",
        QCheck_alcotest.to_alcotest prop_truncation_recovers
        :: [
             Alcotest.test_case "snapshot-assisted recovery" `Quick
               test_snapshot_recovery;
             Alcotest.test_case "empty WAL beside a snapshot is refused"
               `Quick test_empty_wal_beside_snapshot_refused;
             Alcotest.test_case "watchdog seeded from recovery" `Quick
               test_seeded_watchdog;
           ] );
      ( "shed",
        [
          Alcotest.test_case "bounded queue delay" `Quick
            test_shed_bounded_delay;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_dequeue_bounds_wait ] );
      ( "wire",
        [
          Alcotest.test_case "codec round-trips" `Quick test_wire_roundtrip;
          Alcotest.test_case "cid echo round-trips" `Quick test_wire_cid_echo;
          Alcotest.test_case "cid stamped into decisions" `Quick
            test_cid_stamped_in_decision;
        ] );
      ( "scrape",
        [
          Alcotest.test_case "stable lint-clean families" `Quick
            test_scrape_families;
          Alcotest.test_case "admit slack completion bound" `Quick
            test_admit_slack_bound;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "replica snapshot round-trips" `Quick
            test_replica_snapshot_roundtrip;
          Alcotest.test_case "tampered snapshot refused" `Quick
            test_snapshot_tamper_refused;
          Alcotest.test_case "v1-stamped snapshot restores" `Quick
            test_v1_snapshot_restores;
        ] );
      ( "unified",
        List.map QCheck_alcotest.to_alcotest
          [ prop_replay_engine_traces; prop_daemon_matches_simulator ] );
      ("readers", [ QCheck_alcotest.to_alcotest prop_readers_agree ]);
      ( "address",
        [ Alcotest.test_case "endpoint parsing" `Quick test_address_of_string ]
      );
      ( "legacy",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_legacy_fixture name))
          legacy_fixtures
        @ [ Alcotest.test_case "mixed v1/v2 wal re-audits" `Quick test_mixed_digest_wal ] );
    ]

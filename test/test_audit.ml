(* The independent offline auditor, end to end: traced engine runs must
   re-verify 100% of their decision certificates from the trace file
   alone, and a tampered certificate must surface as a divergence naming
   the offending decision. *)

open Rota_scheduler
open Rota_sim
module Scenario = Rota_workload.Scenario
module Events = Rota_obs.Events
module Sink = Rota_obs.Sink
module Tracer = Rota_obs.Tracer
module Audit = Rota_audit.Audit
module Live = Audit.Live
module Watchdog = Rota_audit.Watchdog
module Located_type = Rota_resource.Located_type
module Location = Rota_resource.Location
module Profile = Rota_resource.Profile
module Resource_set = Rota_resource.Resource_set
module Interval = Rota_interval.Interval
module Certificate = Rota.Certificate
module Json = Rota_obs.Json
module Trace = Rota_sim.Trace
module Computation = Rota_actor.Computation
module Wire = Rota_server.Wire
module Replica = Rota_server.Replica
module Wal = Rota_server.Wal

let () = Calendar.set_self_check true

(* Trace whatever [run] does into a fresh JSONL file, then hand the path
   to [k]; tracer state and the file are cleaned up afterwards. *)
let with_traced run k =
  Tracer.reset ();
  let path = Filename.temp_file "rota-audit-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Tracer.reset ();
      Sys.remove path)
  @@ fun () ->
  Tracer.install (Sink.jsonl_file path);
  run ();
  Tracer.uninstall ();
  k path

let audit path =
  match Audit.audit_file path with
  | Ok report -> report
  | Error e ->
      Alcotest.failf "audit_file: %s"
        (Format.asprintf "%a" Rota_obs.Trace_reader.pp_error e)

let check_full_coverage name (r : Audit.report) =
  Alcotest.(check bool) (name ^ ": decisions recorded") true (r.Audit.decisions > 0);
  Alcotest.(check int)
    (name ^ ": every decision re-verified")
    r.Audit.decisions r.Audit.verified;
  Alcotest.(check int) (name ^ ": nothing skipped") 0 r.Audit.skipped;
  Alcotest.(check int)
    (name ^ ": no divergences")
    0
    (List.length r.Audit.divergences);
  Alcotest.(check bool) (name ^ ": ok") true (Audit.ok r)

let params ~seed =
  { Scenario.default_params with seed; horizon = 120; arrivals = 10; locations = 2 }

(* --- clean traces audit clean ------------------------------------------- *)

(* E6 shape: the same workload under every admission policy, no faults —
   covers T4 schedule/infeasible, T1 aggregate tables, optimistic
   unchecked, stale and duplicate evidence. *)
let test_audit_all_policies () =
  let p = params ~seed:42 in
  let trace = Scenario.trace p in
  with_traced
    (fun () ->
      List.iter
        (fun policy -> ignore (Engine.run ~policy trace))
        Admission.all_policies)
  @@ fun path ->
  let r = audit path in
  Alcotest.(check int) "one audited run per policy"
    (List.length Admission.all_policies)
    r.Audit.runs;
  check_full_coverage "all policies" r

(* E11 shape: fault storms with the repair ladder on — covers eviction
   and repair (T3) certificates plus capacity reconstruction through
   revocations, slowdowns and rejoins. *)
let test_audit_faulted_run () =
  let p = params ~seed:17 in
  let trace = Scenario.trace p in
  let faults = Scenario.fault_plan ~fault_seed:3 ~intensity:1.5 p in
  with_traced (fun () ->
      ignore (Engine.run ~faults ~repair:true ~policy:Admission.Rota trace))
  @@ fun path -> check_full_coverage "faulted run" (audit path)

(* QCheck: whatever workload and fault plan the generators produce, the
   auditor re-verifies every certificate with zero divergences — the
   checker (Accommodation.check_schedule on a reconstructed ledger) and
   the greedy decider never disagree. *)
let prop_audit_verifies_everything =
  QCheck.Test.make ~count:25
    ~name:"audit: every decision in a random traced run re-verifies"
    QCheck.(pair (int_bound 1000) (int_bound 100))
    (fun (seed, fault_seed) ->
      let p = params ~seed in
      let trace = Scenario.trace p in
      let faults = Scenario.fault_plan ~fault_seed ~intensity:1.5 p in
      with_traced (fun () ->
          ignore (Engine.run ~faults ~repair:true ~policy:Admission.Rota trace);
          ignore (Engine.run ~policy:Admission.Aggregate trace))
      @@ fun path ->
      let r = audit path in
      if not (Audit.ok r && r.Audit.skipped = 0 && r.Audit.verified = r.Audit.decisions)
      then
        QCheck.Test.fail_reportf
          "audit diverged: %d decisions, %d verified, %d skipped, %d divergent"
          r.Audit.decisions r.Audit.verified r.Audit.skipped
          (List.length r.Audit.divergences);
      true)

(* --- live watchdog ≡ offline audit --------------------------------------- *)

let verdict_key = function
  | Live.Verified -> "verified"
  | Live.Skipped m -> "skipped: " ^ m
  | Live.Diverged ms -> "diverged: " ^ String.concat "; " ms

(* QCheck: the watchdog riding the emitting engine and [audit_file]
   replaying the finished trace are two drivers over the same
   [Live.step], so their verdict sequences must be identical — same
   decisions, same order, same verdicts — on any workload and fault
   plan the generators produce. *)
let prop_watchdog_matches_offline =
  QCheck.Test.make ~count:15
    ~name:"watchdog: live verdict sequence equals the offline audit"
    QCheck.(pair (int_bound 1000) (int_bound 100))
    (fun (seed, fault_seed) ->
      let p = params ~seed in
      let trace = Scenario.trace p in
      let faults = Scenario.fault_plan ~fault_seed ~intensity:1.5 p in
      let seen = ref [] in
      let wd =
        Watchdog.create
          ~on_outcome:(fun (o : Live.outcome) ->
            seen := (o.Live.id, o.Live.action, verdict_key o.Live.verdict) :: !seen)
          ()
      in
      Tracer.reset ();
      let path = Filename.temp_file "rota-wd-equiv" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Tracer.reset ();
          Sys.remove path)
      @@ fun () ->
      Tracer.install (Sink.tee (Sink.jsonl_file path) (Watchdog.sink wd));
      ignore (Engine.run ~faults ~repair:true ~policy:Admission.Rota trace);
      Tracer.uninstall ();
      let live = List.rev !seen in
      let offline =
        match
          Audit.fold_decisions path ~init:[] ~f:(fun acc (o : Live.outcome) ->
              (o.Live.id, o.Live.action, verdict_key o.Live.verdict) :: acc)
        with
        | Ok (acc, _, _) -> List.rev acc
        | Error e ->
            QCheck.Test.fail_reportf "offline audit failed: %s"
              (Format.asprintf "%a" Rota_obs.Trace_reader.pp_error e)
      in
      if live = [] then QCheck.Test.fail_report "watchdog saw no decisions";
      if live <> offline then
        QCheck.Test.fail_reportf
          "live (%d outcomes) and offline (%d outcomes) verdict sequences differ"
          (List.length live) (List.length offline);
      true)

(* The engine snapshots the installed watchdog around each run, so every
   report carries exactly the stats delta its own run contributed. *)
let test_engine_reports_watchdog_delta () =
  let p = params ~seed:42 in
  let trace = Scenario.trace p in
  Tracer.reset ();
  Fun.protect
    ~finally:(fun () ->
      Watchdog.uninstall ();
      Tracer.reset ())
  @@ fun () ->
  let wd = Watchdog.create () in
  Tracer.install (Watchdog.sink wd);
  Watchdog.install wd;
  let r1 = Engine.run ~policy:Admission.Rota trace in
  let r2 = Engine.run ~policy:Admission.Aggregate trace in
  let total = Watchdog.stats wd in
  let get = function
    | Some s -> s
    | None -> Alcotest.fail "report lacks watchdog stats"
  in
  let s1 = get r1.Engine.watchdog and s2 = get r2.Engine.watchdog in
  Alcotest.(check bool) "run 1 saw decisions" true (s1.Watchdog.decisions > 0);
  Alcotest.(check int) "run 1 re-verified everything" s1.Watchdog.decisions
    s1.Watchdog.verified;
  Alcotest.(check int) "run 1 clean" 0 s1.Watchdog.divergences;
  Alcotest.(check int) "per-run deltas sum to the watchdog total"
    total.Watchdog.decisions
    (s1.Watchdog.decisions + s2.Watchdog.decisions);
  Watchdog.uninstall ();
  let r3 = Engine.run ~policy:Admission.Rota trace in
  Alcotest.(check bool) "no watchdog, no stats block" true
    (r3.Engine.watchdog = None)

(* --- tampering is caught ------------------------------------------------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Find the first decision line carrying a non-empty digest, flip one
   digest character, and return the mutated trace plus the decision's id. *)
let corrupt_first_digest ~src ~dst =
  let needle = "\"digest\":\"" in
  let mutated = ref None in
  let ic = open_in src and oc = open_out dst in
  (try
     while true do
       let line = input_line ic in
       let line =
         match !mutated with
         | Some _ -> line
         | None -> (
             match
               if contains ~sub:"\"kind\":\"decision\"" line then
                 Rota_obs.Json.parse line
               else Error "not a decision"
             with
             | Error _ -> line
             | Ok _ -> (
                 (* locate the digest value inside the raw line *)
                 let rec find i =
                   if i + String.length needle > String.length line then None
                   else if String.sub line i (String.length needle) = needle then
                     Some (i + String.length needle)
                   else find (i + 1)
                 in
                 match find 0 with
                 | Some at when line.[at] <> '"' ->
                     (match Events.of_line ~strict:true line with
                     | Ok { Events.payload = Events.Decision { id; _ }; _ } ->
                         mutated := Some id
                     | _ -> Alcotest.fail "decision line failed to parse");
                     let b = Bytes.of_string line in
                     Bytes.set b at (if line.[at] = '0' then 'f' else '0');
                     Bytes.to_string b
                 | _ -> line))
       in
       output_string oc line;
       output_char oc '\n'
     done
   with End_of_file -> ());
  close_in ic;
  close_out oc;
  match !mutated with
  | Some id -> id
  | None -> Alcotest.fail "no decision with a digest found to corrupt"

let test_audit_catches_tampering () =
  let p = params ~seed:42 in
  let trace = Scenario.trace p in
  with_traced (fun () -> ignore (Engine.run ~policy:Admission.Rota trace))
  @@ fun path ->
  let bad = Filename.temp_file "rota-audit-bad" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove bad) @@ fun () ->
  let victim = corrupt_first_digest ~src:path ~dst:bad in
  let r = audit bad in
  Alcotest.(check bool) "tampered audit fails" false (Audit.ok r);
  match r.Audit.divergences with
  | [] -> Alcotest.fail "no divergence reported"
  | d :: _ ->
      (* The first divergence names the decision whose digest was flipped. *)
      Alcotest.(check string) "divergence names the decision" victim d.Audit.id;
      Alcotest.(check bool) "message mentions the digest" true
        (contains ~sub:"digest" d.Audit.message)

(* A fail-fast watchdog re-observing the tampered stream must trip
   mid-stream — at the flipped decision, before the trailing events —
   naming the offending decision (the CLI maps {!Watchdog.Trip} to a
   nonzero exit carrying the same seq/id/message). *)
let test_watchdog_trips_on_tampering () =
  let p = params ~seed:42 in
  let trace = Scenario.trace p in
  with_traced (fun () -> ignore (Engine.run ~policy:Admission.Rota trace))
  @@ fun path ->
  let bad = Filename.temp_file "rota-wd-bad" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove bad) @@ fun () ->
  let victim = corrupt_first_digest ~src:path ~dst:bad in
  let events =
    match Rota_obs.Trace_reader.read_file bad with
    | Ok (es, _) -> es
    | Error _ -> Alcotest.fail "tampered trace unreadable"
  in
  let wd = Watchdog.create ~mode:Watchdog.Fail_fast () in
  let consumed = ref 0 in
  let tripped =
    try
      List.iter
        (fun e ->
          incr consumed;
          Watchdog.observe wd e)
        events;
      None
    with Watchdog.Trip { id; message; _ } -> Some (id, message)
  in
  match tripped with
  | None -> Alcotest.fail "fail-fast watchdog did not trip"
  | Some (id, message) ->
      Alcotest.(check string) "trip names the tampered decision" victim id;
      Alcotest.(check bool) "trip message mentions the digest" true
        (contains ~sub:"digest" message);
      Alcotest.(check bool) "tripped mid-stream, not at the end" true
        (!consumed < List.length events);
      let s = Watchdog.stats wd in
      Alcotest.(check bool) "divergence counted" true (s.Watchdog.divergences > 0)

(* rota explain: the decision's story renders with the auditor verdict. *)
let test_explain_renders_decision () =
  let p = params ~seed:42 in
  let trace = Scenario.trace p in
  with_traced (fun () -> ignore (Engine.run ~policy:Admission.Rota trace))
  @@ fun path ->
  (* Pick any decided id off the trace. *)
  let events =
    match Rota_obs.Trace_reader.read_file path with
    | Ok (es, _) -> es
    | Error _ -> Alcotest.fail "trace unreadable"
  in
  let id =
    match
      List.find_map
        (fun (e : Events.t) ->
          match e.Events.payload with
          | Events.Decision { id; _ } -> Some id
          | _ -> None)
        events
    with
    | Some id -> id
    | None -> Alcotest.fail "no decision in trace"
  in
  match Audit.explain_file path ~id with
  | Error _ -> Alcotest.fail "explain_file failed"
  | Ok [] -> Alcotest.failf "no explanation for %s" id
  | Ok (block :: _ as blocks) ->
      Alcotest.(check bool) "names the id" true (contains ~sub:id block);
      Alcotest.(check bool) "carries an auditor verdict" true
        (List.exists (contains ~sub:"auditor:") blocks);
      (* Unknown ids yield the empty list, not an error. *)
      (match Audit.explain_file path ~id:"no-such-id" with
      | Ok [] -> ()
      | Ok _ -> Alcotest.fail "unknown id must yield no blocks"
      | Error _ -> Alcotest.fail "unknown id must not be a read error")

(* --- the residual digest, pinned byte for byte ----------------------------- *)

(* The digest as first written: a closure per byte over the boxed Int64
   state, [Located_type.to_string] per type, a segment list per profile.
   Every WAL, snapshot and committed fixture written before digest v2
   carries digests made this way, so the v1 verifier must return exactly
   these strings. *)
let reference_digest set =
  let h = ref 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  let mix_byte b = h := Int64.mul (Int64.logxor !h (Int64.of_int b)) prime in
  let mix_int i =
    for k = 0 to 7 do
      mix_byte ((i lsr (8 * k)) land 0xff)
    done
  in
  let mix_string s =
    String.iter (fun c -> mix_byte (Char.code c)) s;
    mix_byte 0
  in
  Resource_set.fold
    (fun xi p () ->
      mix_string (Located_type.to_string xi);
      List.iter
        (fun (s : Profile.segment) ->
          mix_int (Interval.start s.Profile.interval);
          mix_int (Interval.stop s.Profile.interval);
          mix_int s.Profile.rate)
        (Profile.segments p))
    set ();
  Printf.sprintf "%016Lx" !h

(* Random sets over every located-type kind — network legs and custom
   kinds included — with ticks drawn small, around the sign boundary
   and near [max_int], so every byte of the encoded ints is exercised. *)
let set_gen =
  let open QCheck.Gen in
  let loc = map (fun i -> Location.make (Printf.sprintf "n%d" i)) (int_bound 5) in
  let ltype =
    oneof
      [
        map Located_type.cpu loc;
        map Located_type.memory loc;
        map2 (fun src dst -> Located_type.network ~src ~dst) loc loc;
        map2 Located_type.custom (oneofl [ "gpu"; "disk"; "lic,ense" ]) loc;
      ]
  in
  let tick =
    oneof
      [
        int_range (-50) 500;
        int_range (-(1 lsl 40)) (1 lsl 40);
        map (fun d -> max_int - 1_000_000 + d) (int_bound 500_000);
      ]
  in
  let segment =
    map3
      (fun a len rate -> (Interval.of_pair a (a + 1 + len), rate))
      tick (int_bound 1000)
      (oneof [ int_range 1 9; int_range 1 (1 lsl 40) ])
  in
  map
    (List.fold_left
       (fun acc (xi, segs) ->
         Resource_set.add_profile xi (Profile.of_segments segs) acc)
       Resource_set.empty)
    (list_size (int_bound 12) (pair ltype (list_size (int_range 1 4) segment)))

let prop_digest_pinned =
  QCheck.Test.make ~count:500
    ~name:"digest: identical bytes to the reference FNV-1a"
    (QCheck.make ~print:(Format.asprintf "%a" Resource_set.pp) set_gen)
    (fun set ->
      let got = Certificate.digest_v1 set and want = reference_digest set in
      if got <> want then
        QCheck.Test.fail_reportf "digest %s, reference %s" got want;
      true)

(* Digest v2 reads per-type hash slots that set operations carry from
   their operands.  Over random sequences of operations — digesting the
   running set now and then, so some slots are filled, carried and
   adjusted and others start empty — the cached digest must equal a
   from-scratch one over the same canonical terms. *)
type set_op =
  | Union of Resource_set.t
  | Diff of Resource_set.t
  | Diff_clamped of Resource_set.t
  | Meet of Resource_set.t
  | Restrict of int * int
  | Truncate of int

let set_op_gen =
  let open QCheck.Gen in
  let tick = oneof [ int_range (-50) 500; int_range (-(1 lsl 40)) (1 lsl 40) ] in
  frequency
    [
      (3, map (fun s -> Union s) set_gen);
      (2, map (fun s -> Diff s) set_gen);
      (2, map (fun s -> Diff_clamped s) set_gen);
      (1, map (fun s -> Meet s) set_gen);
      (1, map2 (fun a d -> Restrict (a, a + 1 + d)) tick (int_bound 400));
      (4, map (fun t -> Truncate t) tick);
    ]

let apply_set_op set = function
  | Union s -> Resource_set.union set s
  | Diff s -> (
      (* Subtract what is there, so the difference is usually defined. *)
      match Resource_set.diff set (Resource_set.meet set s) with
      | Ok r -> r
      | Error _ -> set)
  | Diff_clamped s -> Resource_set.diff_clamped set s
  | Meet s -> Resource_set.meet set (Resource_set.union set s)
  | Restrict (a, b) -> Resource_set.restrict set (Interval.of_pair a b)
  | Truncate t -> Resource_set.truncate_before set t

let from_scratch set =
  Certificate.digest (Resource_set.of_terms (Resource_set.to_terms set))

let prop_digest_slots =
  QCheck.Test.make ~count:300
    ~name:"digest v2: cached slots = from-scratch over random set operations"
    (QCheck.make
       ~print:(fun (s, ops) ->
         Format.asprintf "%a after %d ops" Resource_set.pp s (List.length ops))
       QCheck.Gen.(pair set_gen (list_size (int_range 1 25) (pair set_op_gen bool))))
    (fun (start, ops) ->
      ignore
        (List.fold_left
           (fun set (op, digest_now) ->
             if digest_now then ignore (Certificate.digest set);
             let set = apply_set_op set op in
             let cached = Certificate.digest set and fresh = from_scratch set in
             if cached <> fresh then
               QCheck.Test.fail_reportf "cached %s, from scratch %s at %a" cached
                 fresh Resource_set.pp set;
             set)
           start ops);
      true)

let test_digest_versions () =
  let set =
    Resource_set.add_profile
      (Located_type.cpu (Location.make "n1"))
      (Profile.of_segments [ (Interval.of_pair 0 10, 3) ])
      Resource_set.empty
  in
  let v1 = Certificate.digest_v1 set and v2 = Certificate.digest set in
  Alcotest.(check int) "v1 is bare 16-hex" 16 (String.length v1);
  Alcotest.(check bool) "v2 carries its tag" true
    (String.starts_with ~prefix:"v2:" v2);
  Alcotest.(check string) "a v1 record re-digests as v1" v1
    (Certificate.digest_like v1 set);
  Alcotest.(check string) "a v2 record re-digests as v2" v2
    (Certificate.digest_like v2 set)

let test_digest_empty () =
  Alcotest.(check string) "empty set" (reference_digest Resource_set.empty)
    (Certificate.digest_v1 Resource_set.empty);
  Alcotest.(check string) "FNV-1a offset basis" "cbf29ce484222325"
    (Certificate.digest_v1 Resource_set.empty)

(* --- the incremental auditor against the from-scratch fold ----------------- *)

(* The reconstruction [Live] used to redo on every decision, kept here
   as the specification of its cached sums: the capacity joins minus the
   fault slices, minus the sum of the live reservations, all untruncated
   and truncated at [now] only when asked. *)
type reference = {
  mutable now : int;
  mutable capacity : Resource_set.t;
  mutable known : bool;
  reservations : (string, Resource_set.t) Hashtbl.t;
  last_sim : (int, int) Hashtbl.t;  (* run -> last non-span sim *)
}

let reference () =
  {
    now = 0;
    capacity = Resource_set.empty;
    known = true;
    reservations = Hashtbl.create 16;
    last_sim = Hashtbl.create 4;
  }

let ref_terms r terms ~f =
  match Certificate.rects_of_json terms with
  | Ok rects -> r.capacity <- f r.capacity (Certificate.set_of_rects rects)
  | Error _ -> r.known <- false

(* Also checks what the auditor's truncation relies on: within a run,
   the simulated time of non-span records never decreases. *)
let ref_step r (e : Events.t) =
  (match (e.Events.payload, e.Events.sim) with
  | Events.Span _, _ | _, None -> ()
  | _, Some t ->
      (match Hashtbl.find_opt r.last_sim e.Events.run with
      | Some prev when t < prev ->
          QCheck.Test.fail_reportf "run %d: sim %d after %d at seq %d"
            e.Events.run t prev e.Events.seq
      | _ -> ());
      Hashtbl.replace r.last_sim e.Events.run t;
      r.now <- t);
  match e.Events.payload with
  | Events.Run_started _ ->
      r.capacity <- Resource_set.empty;
      r.known <- true;
      Hashtbl.reset r.reservations
  | Events.Capacity_joined { terms; _ } -> ref_terms r terms ~f:Resource_set.union
  | Events.Fault_injected { fault = "revocation" | "blackout"; terms; _ } ->
      ref_terms r terms ~f:Resource_set.diff_clamped
  | Events.Commitment_revoked { id; _ }
  | Events.Commitment_degraded { id; released = true; _ }
  | Events.Completed { id }
  | Events.Killed { id; _ }
  | Events.Preempted { id; _ } ->
      Hashtbl.remove r.reservations id
  | Events.Decision { id; action = "admit" | "repair"; certificate; _ } -> (
      match Certificate.of_json certificate with
      | Ok ({ Certificate.evidence = Certificate.Schedules _; _ } as cert) ->
          Hashtbl.replace r.reservations id (Certificate.reservation cert)
      | Ok _ | Error _ -> ())
  | _ -> ()

let ref_digest r =
  let committed =
    Hashtbl.fold
      (fun _ res acc ->
        Resource_set.union acc (Resource_set.truncate_before res r.now))
      r.reservations Resource_set.empty
  in
  if not r.known then None
  else
    match
      Resource_set.diff (Resource_set.truncate_before r.capacity r.now) committed
    with
    | Ok res -> Some (Certificate.digest res)
    | Error _ -> None

let agree ~where r live =
  match (ref_digest r, Live.residual_digest live) with
  | Some want, Ok got when want = got -> ()
  | None, Error _ -> ()
  | want, got ->
      QCheck.Test.fail_reportf "%s: reference %s, auditor %s" where
        (Option.value want ~default:"(none)")
        (match got with Ok d -> d | Error m -> "error: " ^ m)

let step_both ~live r (e : Events.t) =
  ignore (Live.step live e);
  ref_step r e;
  agree ~where:(Printf.sprintf "seq %d (%s)" e.Events.seq (Events.kind e.Events.payload)) r live

let collect run =
  let seen = ref [] in
  Tracer.reset ();
  Tracer.install (Sink.make ~emit:(fun e -> seen := e :: !seen) ~close:ignore);
  Fun.protect ~finally:Tracer.reset run;
  List.rev !seen

(* QCheck: after every event of a faulted engine run — every policy,
   repair on — the auditor's cached residual digests exactly as the
   from-scratch fold's. *)
let prop_live_matches_fold_engine =
  QCheck.Test.make ~count:20
    ~name:"live: cached residual = from-scratch fold, engine runs"
    QCheck.(pair (int_bound 1000) (int_bound 100))
    (fun (seed, fault_seed) ->
      let p = params ~seed in
      let trace = Scenario.trace p in
      let faults = Scenario.fault_plan ~fault_seed ~intensity:1.5 p in
      let events =
        collect (fun () ->
            List.iter
              (fun policy -> ignore (Engine.run ~faults ~repair:true ~policy trace))
              Admission.all_policies)
      in
      let live = Live.create () and r = reference () in
      List.iter (step_both ~live r) events;
      Live.decisions live > 0)

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

(* A random daemon session in time order: the scenario's joins and
   arrivals, revocations of whole joined slices (evictions), and
   releases of arrivals (admitted or not) at random later ticks. *)
let daemon_ops ~seed =
  let p = { (params ~seed) with arrivals = 16; churn_joins = 4 } in
  let trace = Scenario.trace p in
  let prng = Random.State.make [| seed |] in
  let later at = at + 1 + Random.State.int prng 40 in
  let timed =
    List.concat_map
      (fun (at, ev) ->
        match ev with
        | Trace.Join theta ->
            let terms = Certificate.rects_of_set theta in
            (at, Wire.Join { now = at; terms })
            ::
            (if Random.State.int prng 3 = 0 then
               let t = later at in
               [ (t, Wire.Revoke { now = t; terms }) ]
             else [])
        | Trace.Arrive computation ->
            let t = later at in
            (at, Wire.Admit { now = at; computation; budget_ms = None })
            ::
            (if Random.State.bool prng then
               [ (t, Wire.Release { now = t; id = computation.Computation.id }) ]
             else [])
        | Trace.Arrive_session _ -> [])
      (Trace.events trace)
  in
  List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) timed)

(* QCheck: the same over a random daemon session, with a snapshot and a
   restart at a random point: the auditor recovery hands back continues
   exactly where the stream's reference is. *)
let prop_live_matches_fold_daemon =
  QCheck.Test.make ~count:25
    ~name:"live: cached residual = from-scratch fold, daemon ops and recovery"
    QCheck.(
      make
        ~print:(fun (seed, cut, policy) ->
          Printf.sprintf "seed=%d cut=%d policy=%s" seed cut
            (Admission.policy_name policy))
        Gen.(triple (int_bound 1000) (int_bound 1000) (oneofl Admission.all_policies)))
    (fun (seed, cut, policy) ->
      let dir = temp_dir "rota-live-diff" in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let recover () =
        match Wal.recover ~dir ~policy () with
        | Ok rc -> rc
        | Error m -> QCheck.Test.fail_reportf "recover: %s" m
      in
      let ops = daemon_ops ~seed in
      let cut = cut mod (List.length ops + 1) in
      let r = reference () in
      let rc = recover () in
      agree ~where:"fresh WAL" r rc.Wal.live;
      let state = ref rc in
      List.iteri
        (fun i op ->
          if i = cut then begin
            let rc = !state in
            Wal.sync rc.Wal.writer;
            (match
               Wal.save_snapshot ~path:(Wal.snapshot_path ~dir) rc.Wal.writer
                 rc.Wal.replica
             with
            | Ok () -> ()
            | Error m -> QCheck.Test.fail_reportf "snapshot: %s" m);
            Wal.close rc.Wal.writer;
            let back = recover () in
            if not back.Wal.from_snapshot then
              QCheck.Test.fail_report "recovery ignored the snapshot";
            agree ~where:(Printf.sprintf "recovered at op %d" i) r back.Wal.live;
            state := back
          end;
          let rc = !state in
          let payloads, _ = Replica.apply rc.Wal.replica op in
          if payloads <> [] then
            List.iter
              (step_both ~live:rc.Wal.live r)
              (Wal.append rc.Wal.writer ~sim:(Replica.now rc.Wal.replica) payloads))
        ops;
      Wal.close !state.Wal.writer;
      true)

let () =
  Alcotest.run "audit"
    [
      ( "clean",
        [
          Alcotest.test_case "all policies re-verify" `Quick
            test_audit_all_policies;
          Alcotest.test_case "faulted run re-verifies" `Quick
            test_audit_faulted_run;
          QCheck_alcotest.to_alcotest prop_audit_verifies_everything;
        ] );
      ( "watchdog",
        [
          QCheck_alcotest.to_alcotest prop_watchdog_matches_offline;
          Alcotest.test_case "engine reports per-run stats delta" `Quick
            test_engine_reports_watchdog_delta;
        ] );
      ( "tampering",
        [
          Alcotest.test_case "flipped digest is caught" `Quick
            test_audit_catches_tampering;
          Alcotest.test_case "fail-fast watchdog trips mid-stream" `Quick
            test_watchdog_trips_on_tampering;
        ] );
      ( "digest",
        [
          Alcotest.test_case "empty set" `Quick test_digest_empty;
          QCheck_alcotest.to_alcotest prop_digest_pinned;
          Alcotest.test_case "versions" `Quick test_digest_versions;
          QCheck_alcotest.to_alcotest prop_digest_slots;
        ] );
      ( "live",
        [
          QCheck_alcotest.to_alcotest prop_live_matches_fold_engine;
          QCheck_alcotest.to_alcotest prop_live_matches_fold_daemon;
        ] );
      ( "explain",
        [
          Alcotest.test_case "decision story renders" `Quick
            test_explain_renders_decision;
        ] );
    ]

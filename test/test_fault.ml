(* Robustness tests: fault injection, the commitment-repair ladder, and
   the failure paths hardened in this area — Calendar.revoke, Pool's
   assimilate error propagation, and the crash-safe file sink. *)

open Rota_interval
open Rota_resource
open Rota_actor
open Rota_scheduler
open Rota_sim
open Rota_obs
module Scenario = Rota_workload.Scenario

let () = Calendar.set_self_check true

let iv a b = Interval.of_pair a b
let l1 = Location.make "l1"
let l2 = Location.make "l2"
let cpu1 = Located_type.cpu l1
let cpu2 = Located_type.cpu l2
let net12 = Located_type.network ~src:l1 ~dst:l2
let a1 = Actor_name.make "a1"
let rset = Resource_set.of_terms

let entry ~id ~window ~rate =
  let reservation = rset [ Term.v rate window cpu1 ] in
  { Calendar.computation = id; window; reservation; schedules = [] }

let cpu_step ?(at = cpu1) q = [ Requirement.amount at q ]

let victim ~id ~window quantities =
  {
    Repair.computation = id;
    window;
    parts = [ (a1, List.map (fun q -> cpu_step q) quantities) ];
  }

(* --- resource algebra under revocation --------------------------------- *)

let test_sub_clamped () =
  let p = rset [ Term.v 3 (iv 0 10) cpu1 ] in
  let q = rset [ Term.v 2 (iv 5 15) cpu1 ] in
  let d = Resource_set.diff_clamped p q in
  Alcotest.(check int) "untouched prefix" 3
    (Profile.rate_at (Resource_set.find cpu1 d) 0);
  Alcotest.(check int) "overlap clamps" 1
    (Profile.rate_at (Resource_set.find cpu1 d) 7);
  Alcotest.(check int) "past the end" 0
    (Profile.rate_at (Resource_set.find cpu1 d) 12);
  (* Over-revocation clamps at zero instead of going negative. *)
  let d = Resource_set.diff_clamped p (rset [ Term.v 5 (iv 0 10) cpu1 ]) in
  Alcotest.(check int) "clamped at zero" 0 (Resource_set.total d)

let test_meet () =
  let p = rset [ Term.v 3 (iv 0 10) cpu1 ] in
  let q = rset [ Term.v 2 (iv 5 20) cpu1; Term.v 9 (iv 0 20) cpu2 ] in
  let m = Resource_set.meet p q in
  Alcotest.(check int) "pointwise min" 2
    (Profile.rate_at (Resource_set.find cpu1 m) 7);
  Alcotest.(check int) "outside both" 0
    (Profile.rate_at (Resource_set.find cpu1 m) 2);
  (* meet never exceeds the left operand's domain. *)
  Alcotest.(check int) "absent type" 0
    (Profile.total (Resource_set.find cpu2 m))

(* --- Calendar.revoke ---------------------------------------------------- *)

let test_revoke_empty_calendar () =
  (* Revoking from an empty calendar (no capacity, no entries) is a
     no-op, not a crash. *)
  let c = Calendar.create Resource_set.empty in
  let c, evicted = Calendar.revoke c (rset [ Term.v 2 (iv 0 10) cpu1 ]) in
  Alcotest.(check int) "no evictions" 0 (List.length evicted);
  Alcotest.(check bool) "capacity still empty" true
    (Resource_set.is_empty (Calendar.capacity c))

let test_revoke_keeps_unaffected () =
  let c = Calendar.create (rset [ Term.v 4 (iv 0 20) cpu1 ]) in
  let c = Result.get_ok (Calendar.commit c (entry ~id:"keep" ~window:(iv 0 10) ~rate:1)) in
  let c = Result.get_ok (Calendar.commit c (entry ~id:"lose" ~window:(iv 0 10) ~rate:2)) in
  (* Losing rate 3 leaves 1: only "keep" still fits. *)
  let c, evicted = Calendar.revoke c (rset [ Term.v 3 (iv 0 20) cpu1 ]) in
  Alcotest.(check (list string)) "evicted" [ "lose" ]
    (List.map (fun (e : Calendar.entry) -> e.Calendar.computation) evicted);
  (match Calendar.find c ~computation:"keep" with
  | Some e ->
      (* Non-interference: the survivor's reservation is untouched. *)
      Alcotest.(check bool) "reservation unchanged" true
        (Resource_set.equal e.Calendar.reservation
           (rset [ Term.v 1 (iv 0 10) cpu1 ]))
  | None -> Alcotest.fail "keep must survive");
  Alcotest.(check int) "capacity shrank" 20
    (Resource_set.total (Calendar.capacity c))

(* --- the repair ladder, rung by rung ------------------------------------ *)

let controller terms = Admission.create Admission.Rota (rset terms)

let test_rung1_reaccommodate () =
  let ctrl = controller [ Term.v 2 (iv 0 20) cpu1 ] in
  match Repair.attempt ctrl ~now:5 (victim ~id:"v" ~window:(iv 0 20) [ 10 ]) with
  | Repair.Repaired r ->
      Alcotest.(check string) "rung" "reaccommodate" (Repair.rung_name r.Repair.rung);
      (* The rescue is committed under the same id. *)
      Alcotest.(check bool) "committed" true
        (Option.is_some
           (Calendar.find (Admission.calendar r.Repair.controller) ~computation:"v"))
  | o -> Alcotest.failf "expected Repaired, got %a" Repair.pp_outcome o

let test_rung2_migrate () =
  (* Not enough cpu@l1 left to finish, but enough to pack; plenty at l2
     and a link to get there. *)
  let ctrl =
    controller
      [
        Term.v 1 (iv 0 10) cpu1;
        Term.v 2 (iv 0 30) cpu2;
        Term.v 1 (iv 0 30) net12;
      ]
  in
  match Repair.attempt ctrl ~now:0 (victim ~id:"v" ~window:(iv 0 30) [ 20 ]) with
  | Repair.Repaired r -> (
      match r.Repair.rung with
      | Repair.Migrate site ->
          Alcotest.(check string) "to l2" "l2" (Location.name site);
          (* The committed steps start with the migration legs. *)
          let _, steps = List.hd r.Repair.parts in
          Alcotest.(check int) "legs prepended" 4 (List.length steps)
      | Repair.Reaccommodate -> Alcotest.fail "expected a migration")
  | o -> Alcotest.failf "expected Repaired, got %a" Repair.pp_outcome o

let test_rung3_backoff_retry () =
  (* Nothing left anywhere: the ladder schedules a capped-exponential
     retry rather than giving up while the deadline is far. *)
  let ctrl = controller [] in
  (match Repair.attempt ctrl ~now:5 (victim ~id:"v" ~window:(iv 0 100) [ 10 ]) with
  | Repair.Retry { at; attempt } ->
      Alcotest.(check int) "first delay" 6 at;
      Alcotest.(check int) "attempt" 1 attempt
  | o -> Alcotest.failf "expected Retry, got %a" Repair.pp_outcome o);
  (match Repair.attempt ~attempt:2 ctrl ~now:10 (victim ~id:"v" ~window:(iv 0 100) [ 10 ]) with
  | Repair.Retry { at; attempt } ->
      Alcotest.(check int) "doubled delay" 14 at;
      Alcotest.(check int) "attempt" 3 attempt
  | o -> Alcotest.failf "expected Retry, got %a" Repair.pp_outcome o);
  let b = Repair.default_backoff in
  Alcotest.(check (list int)) "delays are capped-exponential" [ 1; 2; 4; 8; 8 ]
    (List.map (fun attempt -> Repair.delay b ~attempt) [ 0; 1; 2; 3; 4 ])

let test_rung4_preempt () =
  let ctrl = controller [] in
  (* Attempts exhausted. *)
  (match
     Repair.attempt ~attempt:3 ctrl ~now:5 (victim ~id:"v" ~window:(iv 0 100) [ 10 ])
   with
  | Repair.Preempted _ -> ()
  | o -> Alcotest.failf "expected Preempted, got %a" Repair.pp_outcome o);
  (* Deadline already passed. *)
  (match Repair.attempt ctrl ~now:30 (victim ~id:"v" ~window:(iv 0 20) [ 10 ]) with
  | Repair.Preempted _ -> ()
  | o -> Alcotest.failf "expected Preempted, got %a" Repair.pp_outcome o);
  (* No retry window left before the deadline. *)
  match Repair.attempt ctrl ~now:19 (victim ~id:"v" ~window:(iv 0 20) [ 1 ]) with
  | Repair.Preempted _ -> ()
  | o -> Alcotest.failf "expected Preempted, got %a" Repair.pp_outcome o

(* --- the engine's fault path -------------------------------------------- *)

let params ~seed =
  { Scenario.default_params with seed; horizon = 120; arrivals = 10; locations = 2 }

let test_empty_plan_is_identity () =
  let p = params ~seed:7 in
  let trace = Scenario.trace p in
  let plain = Engine.run ~policy:Admission.Rota trace in
  let with_empty = Engine.run ~faults:[] ~policy:Admission.Rota trace in
  Alcotest.(check bool) "same outcomes" true
    (plain.Engine.outcomes = with_empty.Engine.outcomes);
  Alcotest.(check int) "no fault stats" 0 with_empty.Engine.faults.Engine.injected;
  Alcotest.(check bool) "stats are the zero record" true
    (with_empty.Engine.faults = Engine.no_faults)

let test_duplicate_revocation_is_noop () =
  (* Revoke everything at l1, twice: the duplicate must clip to nothing
     rather than double-subtract (or drive availability negative). *)
  let p = params ~seed:11 in
  let trace = Scenario.trace p in
  let slice = rset [ Term.v p.Scenario.cpu_rate (iv 30 120) cpu1 ] in
  let once = [ { Fault.at = 30; kind = Fault.Revoke slice } ] in
  let twice =
    [
      { Fault.at = 30; kind = Fault.Revoke slice };
      { Fault.at = 31; kind = Fault.Revoke slice };
    ]
  in
  let r1 = Engine.run ~faults:once ~policy:Admission.Rota trace in
  let r2 = Engine.run ~faults:twice ~policy:Admission.Rota trace in
  Alcotest.(check int) "same quantity lost" r1.Engine.faults.Engine.revoked_quantity
    r2.Engine.faults.Engine.revoked_quantity;
  Alcotest.(check bool) "same outcomes" true
    (r1.Engine.outcomes = r2.Engine.outcomes)

let test_slowdown_degrades () =
  let p = params ~seed:13 in
  let trace = Scenario.trace p in
  (* Slow every computation down; at least one must be running at t=40. *)
  let faults =
    List.init 10 (fun i ->
        {
          Fault.at = 40;
          kind = Fault.Slowdown { computation = Printf.sprintf "c%03d" i; factor = 2 };
        })
  in
  let r = Engine.run ~faults ~policy:Admission.Rota trace in
  Alcotest.(check bool) "someone degraded" true (r.Engine.faults.Engine.degraded > 0);
  Alcotest.(check bool) "degraded outcomes are flagged" true
    (List.exists (fun (o : Engine.outcome) -> o.Engine.faulted) r.Engine.outcomes)

let test_repair_beats_no_repair () =
  let p = params ~seed:17 in
  let trace = Scenario.trace p in
  let misses ~repair ~fault_seed =
    let faults = Scenario.fault_plan ~fault_seed ~intensity:1.5 p in
    (Engine.run ~faults ~repair ~policy:Admission.Rota trace).Engine.missed_deadlines
  in
  let total repair =
    List.fold_left (fun acc fault_seed -> acc + misses ~repair ~fault_seed) 0
      [ 0; 1; 2; 3; 4 ]
  in
  let with_repair = total true and without = total false in
  Alcotest.(check bool)
    (Printf.sprintf "repair (%d misses) <= no-repair (%d)" with_repair without)
    true
    (with_repair <= without && without > 0)

(* QCheck: Theorem 4's non-interference discipline under fault storms —
   an admitted computation no fault ever touched runs exactly as
   committed, so it never misses its deadline, whatever the repair
   ladder does for the victims around it. *)
let prop_non_interference =
  QCheck.Test.make ~count:40
    ~name:"fault storm: unaffected admitted computations never miss"
    QCheck.(pair (int_bound 1000) (int_bound 100))
    (fun (seed, fault_seed) ->
      let p = params ~seed in
      let trace = Scenario.trace p in
      let faults = Scenario.fault_plan ~fault_seed ~intensity:1.5 p in
      let r = Engine.run ~faults ~policy:Admission.Rota trace in
      r.Engine.anomalies = []
      && List.for_all
           (fun (o : Engine.outcome) ->
             (not o.Engine.admitted) || o.Engine.faulted || Engine.on_time o)
           r.Engine.outcomes)

(* --- Pool: assimilate id conflict propagates (was: assert false) -------- *)

let job ~id =
  Computation.make ~id ~start:0 ~deadline:40
    [ Program.make ~name:a1 ~home:l1 [ Action.evaluate 1 ] ]

let test_pool_assimilate_conflict () =
  let capacity = rset [ Term.v 8 (iv 0 60) cpu1 ] in
  let tree = Pool.root ~name:"root" capacity in
  let tree =
    Result.get_ok
      (Pool.subdivide tree ~parent:"root" ~name:"child"
         ~slice:(rset [ Term.v 2 (iv 0 60) cpu1 ]))
  in
  (* The same computation id admitted in both pools. *)
  let admit tree pool =
    match Pool.admit tree ~pool ~now:0 (job ~id:"dup") with
    | Ok (tree, outcome) ->
        Alcotest.(check bool) (pool ^ " admits") true outcome.Admission.admitted;
        tree
    | Error e -> Alcotest.fail e
  in
  let tree = admit (admit tree "root") "child" in
  (match Pool.assimilate tree ~child:"child" with
  | Error e ->
      Alcotest.(check bool) "error names the conflict" true
        (String.length e > 0
        && Option.is_some (String.index_opt e 'd')) (* mentions "dup" *)
  | Ok _ -> Alcotest.fail "conflicting assimilate must fail");
  (* The failed assimilate left the tree unchanged. *)
  Alcotest.(check (list string)) "tree unchanged" [ "root"; "child" ]
    (Pool.names tree)

(* --- crash-safe file sink ----------------------------------------------- *)

exception Boom

let test_sink_survives_raising_observer () =
  let path = Filename.temp_file "rota_fault_sink" ".jsonl" in
  (* A large buffer, so nothing reaches disk until a flush — the crash
     path must not lose the tail.  The in-process consumer teed after
     the file sink raises on the first admission, crashing the run. *)
  let raising =
    Sink.make ~close:ignore ~emit:(fun (e : Events.t) ->
        match e.Events.payload with
        | Events.Decision { action = "admit"; _ } -> raise Boom
        | _ -> ())
  in
  Tracer.install (Sink.tee (Sink.jsonl_file ~flush_every:10_000 path) raising);
  let p = params ~seed:23 in
  let trace = Scenario.trace p in
  (match Engine.run ~policy:Admission.Rota trace with
  | exception Boom -> ()
  | _ -> Alcotest.fail "the raising sink must raise out of the run");
  (* The process unwinds without a clean shutdown; uninstall stands in
     for the sink's at_exit hook (same close function, same idempotence
     guard).  Everything emitted before the crash must parse cleanly. *)
  Tracer.uninstall ();
  Tracer.uninstall ();
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       (match Events.of_line ~strict:true line with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "torn line after crash: %s" e);
       incr lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "events reached disk" true (!lines > 0)

let () =
  Alcotest.run "fault"
    [
      ( "algebra",
        [
          Alcotest.test_case "sub_clamped" `Quick test_sub_clamped;
          Alcotest.test_case "meet" `Quick test_meet;
        ] );
      ( "revoke",
        [
          Alcotest.test_case "empty calendar" `Quick test_revoke_empty_calendar;
          Alcotest.test_case "keeps unaffected entries" `Quick
            test_revoke_keeps_unaffected;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "rung 1: reaccommodate" `Quick test_rung1_reaccommodate;
          Alcotest.test_case "rung 2: migrate" `Quick test_rung2_migrate;
          Alcotest.test_case "rung 3: backoff retry" `Quick test_rung3_backoff_retry;
          Alcotest.test_case "rung 4: preempt" `Quick test_rung4_preempt;
        ] );
      ( "engine",
        [
          Alcotest.test_case "empty plan is identity" `Quick
            test_empty_plan_is_identity;
          Alcotest.test_case "duplicate revocation is a no-op" `Quick
            test_duplicate_revocation_is_noop;
          Alcotest.test_case "slowdown degrades and flags" `Quick
            test_slowdown_degrades;
          Alcotest.test_case "repair beats no-repair" `Quick
            test_repair_beats_no_repair;
          QCheck_alcotest.to_alcotest prop_non_interference;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "pool assimilate conflict" `Quick
            test_pool_assimilate_conflict;
          Alcotest.test_case "sink survives raising observer" `Quick
            test_sink_survives_raising_observer;
        ] );
    ]

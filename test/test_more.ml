(* Deeper cross-module tests: Path accounting, transition contention,
   semantics corner cases, engine dispatch ablations, and failure
   injection. *)

open Rota_interval
open Rota_resource
open Rota_actor
open Rota
open Rota_scheduler
open Rota_sim

let iv a b = Interval.of_pair a b
let l1 = Location.make "l1"
let l2 = Location.make "l2"
let cpu1 = Located_type.cpu l1
let cpu2 = Located_type.cpu l2
let rset = Resource_set.of_terms
let amount = Requirement.amount
let a1 = Actor_name.make "a1"
let a2 = Actor_name.make "a2"

(* --- Path ------------------------------------------------------------------ *)

let test_path_accounting () =
  let s0 = State.make ~available:(rset [ Term.v 2 (iv 0 4) cpu1 ]) ~now:0 in
  let s0 =
    Result.get_ok
      (State.accommodate_parts s0 ~id:"c" ~window:(iv 0 4)
         [ (a1, [ [ amount cpu1 4 ] ]) ])
  in
  let path = Path.init s0 in
  Alcotest.(check int) "zero steps" 0 (Path.length path);
  Alcotest.(check bool) "root = tip" true (State.equal (Path.root path) (Path.tip path));
  (* One consuming step, one expiring step. *)
  let consume = [ { Transition.ltype = cpu1; computation = "c"; actor = a1 } ] in
  let path = Path.extend path consume in
  let path = Path.extend path [] in
  Alcotest.(check int) "two steps" 2 (Path.length path);
  Alcotest.(check int) "labels recorded" 2 (List.length (Path.labels path));
  Alcotest.(check int) "three states" 3 (List.length (Path.states path));
  Alcotest.(check int) "tip time" 2 (Path.tip path).State.now;
  (* state_at finds intermediate states. *)
  (match Path.state_at path 1 with
  | Some s -> Alcotest.(check int) "state at t1" 1 s.State.now
  | None -> Alcotest.fail "state at 1 exists");
  Alcotest.(check bool) "state at 9 absent" true (Path.state_at path 9 = None);
  (* Expired accounting: tick 0 consumed fully (rate 2 into need 4), tick 1
     expired entirely (rate 2). *)
  let expired = Path.expired path in
  Alcotest.(check int) "nothing expired at t0" 0
    (Resource_set.integrate expired cpu1 (iv 0 1));
  Alcotest.(check int) "rate 2 expired at t1" 2
    (Resource_set.integrate expired cpu1 (iv 1 2));
  Alcotest.(check int) "windowed view" 2
    (Resource_set.integrate (Path.expired_within path (iv 1 4)) cpu1 (iv 0 4))

let test_path_greedy_extension () =
  let s0 = State.make ~available:(rset [ Term.v 1 (iv 0 3) cpu1 ]) ~now:0 in
  let s0 =
    Result.get_ok
      (State.accommodate_parts s0 ~id:"c" ~window:(iv 0 3)
         [ (a1, [ [ amount cpu1 3 ] ]) ])
  in
  let path = Path.extend_greedy (Path.extend_greedy (Path.extend_greedy (Path.init s0))) in
  Alcotest.(check bool) "drained by greedy" true (State.is_idle (Path.tip path));
  Alcotest.(check bool) "nothing expired" true
    (Resource_set.is_empty (Path.expired path))

(* --- Transition: contention ---------------------------------------------- *)

let test_transition_contention_labels () =
  (* Two actors want the same cpu: labels = expire | ->a1 | ->a2. *)
  let s = State.make ~available:(rset [ Term.v 1 (iv 0 6) cpu1 ]) ~now:0 in
  let s =
    Result.get_ok
      (State.accommodate_parts s ~id:"x" ~window:(iv 0 6)
         [ (a1, [ [ amount cpu1 2 ] ]); (a2, [ [ amount cpu1 2 ] ]) ])
  in
  Alcotest.(check int) "three labels" 3 (List.length (Transition.labels s));
  Alcotest.(check int) "label_count agrees" 3 (Transition.label_count s);
  (* Greedy assigns the type to exactly one of them. *)
  match Transition.greedy_label s with
  | [ assignment ] ->
      Alcotest.(check bool) "assigned to a pending actor" true
        (Actor_name.equal assignment.Transition.actor a1
        || Actor_name.equal assignment.Transition.actor a2)
  | other -> Alcotest.failf "expected 1 assignment, got %d" (List.length other)

let test_transition_greedy_edf () =
  (* Greedy prefers the earlier deadline. *)
  let s = State.make ~available:(rset [ Term.v 1 (iv 0 20) cpu1 ]) ~now:0 in
  let s =
    Result.get_ok
      (State.accommodate_parts s ~id:"late" ~window:(iv 0 20)
         [ (a1, [ [ amount cpu1 2 ] ]) ])
  in
  let s =
    Result.get_ok
      (State.accommodate_parts s ~id:"soon" ~window:(iv 0 5)
         [ (a2, [ [ amount cpu1 2 ] ]) ])
  in
  match Transition.greedy_label s with
  | [ assignment ] ->
      Alcotest.(check string) "EDF picks the tight one" "soon"
        assignment.Transition.computation
  | _ -> Alcotest.fail "one assignment expected"

let test_transition_two_types_independent () =
  (* Two types, each with one candidate: 2x2 = 4 labels. *)
  let s =
    State.make ~available:(rset [ Term.v 1 (iv 0 6) cpu1; Term.v 1 (iv 0 6) cpu2 ]) ~now:0
  in
  let s =
    Result.get_ok
      (State.accommodate_parts s ~id:"x" ~window:(iv 0 6)
         [ (a1, [ [ amount cpu1 2 ] ]); (a2, [ [ amount cpu2 2 ] ]) ])
  in
  Alcotest.(check int) "four labels" 4 (List.length (Transition.labels s));
  (* Greedy assigns both (the paper's concurrent rule). *)
  Alcotest.(check int) "greedy assigns both" 2
    (List.length (Transition.greedy_label s))

(* --- Semantics corner cases ------------------------------------------------ *)

let test_semantics_window_clipping () =
  (* Evaluating satisfy at a time inside the window uses only the
     remainder [max(s,t), d). *)
  let theta = rset [ Term.v 1 (iv 0 6) cpu1 ] in
  let s0 = State.make ~available:theta ~now:0 in
  let atom q = Formula.satisfy_simple
      (Requirement.make_simple ~amounts:[ amount cpu1 q ] ~window:(iv 0 6))
  in
  (* <> of a 6-unit demand: at t=0 the full window supplies 6, but at any
     strictly later t' only 6-t' remain, so eventually (strict future)
     fails for q=6 and holds for q<=5. *)
  Alcotest.(check bool) "eventually 5 holds" true
    (Semantics.exists_path s0 (Formula.eventually (atom 5)) = Semantics.Holds);
  Alcotest.(check bool) "eventually 6 fails" true
    (Semantics.exists_path s0 (Formula.eventually (atom 6)) = Semantics.Fails);
  (* At the evaluation time itself q=6 holds. *)
  Alcotest.(check bool) "now 6 holds" true
    (Semantics.exists_path s0 (atom 6) = Semantics.Holds)

let test_semantics_degenerate_window () =
  (* A satisfy atom whose window is entirely in the past is false. *)
  let theta = rset [ Term.v 1 (iv 0 10) cpu1 ] in
  let s = State.make ~available:theta ~now:5 in
  let past =
    Formula.satisfy_simple
      (Requirement.make_simple ~amounts:[ amount cpu1 1 ] ~window:(iv 0 4))
  in
  Alcotest.(check bool) "past atom fails" true
    (Semantics.exists_path s past = Semantics.Fails);
  (* But its negation holds everywhere. *)
  Alcotest.(check bool) "negation holds" true
    (Semantics.forall_paths s (Formula.neg past) = Semantics.Holds)

let test_completion_path_multi_actor () =
  (* Two actors, two types: the LTS must interleave both to drain. *)
  let theta = rset [ Term.v 1 (iv 0 8) cpu1; Term.v 1 (iv 0 8) cpu2 ] in
  let s = State.make ~available:theta ~now:0 in
  let s =
    Result.get_ok
      (State.accommodate_parts s ~id:"c" ~window:(iv 0 8)
         [ (a1, [ [ amount cpu1 3 ] ]); (a2, [ [ amount cpu2 3 ] ]) ])
  in
  match Semantics.completion_path s ~computation:"c" with
  | Semantics.Completed path ->
      Alcotest.(check bool) "drained" true
        (State.pending_of (Path.tip path) ~computation:"c" = [])
  | Semantics.Impossible | Semantics.Budget_exhausted _ ->
      Alcotest.fail "drainable"

(* --- Engine dispatch ablations --------------------------------------------- *)

let job ~id ~start ~deadline =
  Computation.make ~id ~start ~deadline
    [ Program.make ~name:a1 ~home:l1 [ Action.evaluate 1; Action.ready ] ]

let trace_of jobs rate stop =
  Trace.of_events
    ((0, Trace.Join (rset [ Term.v rate (iv 0 stop) cpu1 ]))
    :: List.map
         (fun (j : Computation.t) -> (j.Computation.start, Trace.Arrive j))
         jobs)

let test_engine_auto_dispatch () =
  let t = trace_of [ job ~id:"j" ~start:0 ~deadline:12 ] 1 20 in
  let rota = Engine.run ~policy:Admission.Rota t in
  Alcotest.(check bool) "rota uses reservation" true
    (rota.Engine.dispatch_used = Engine.Reservation);
  let agg = Engine.run ~policy:Admission.Aggregate t in
  Alcotest.(check bool) "aggregate uses shared" true
    (agg.Engine.dispatch_used = Engine.Shared)

let test_engine_rota_under_shared_dispatch () =
  (* Forcing shared dispatch under ROTA admission: the admitted set is
     feasible, and with a single job nothing contends, so it still lands
     on time. *)
  let t = trace_of [ job ~id:"j" ~start:0 ~deadline:12 ] 1 20 in
  let r = Engine.run ~policy:Admission.Rota ~dispatch:Engine.Shared t in
  Alcotest.(check bool) "shared dispatch used" true
    (r.Engine.dispatch_used = Engine.Shared);
  Alcotest.(check int) "still on time" 1 r.Engine.completed_on_time

let test_engine_outcome_helpers () =
  let t =
    trace_of
      [ job ~id:"ok" ~start:0 ~deadline:12; job ~id:"no" ~start:0 ~deadline:12 ]
      1 20
  in
  let r = Engine.run ~policy:Admission.Optimistic t in
  List.iter
    (fun (o : Engine.outcome) ->
      (* on_time and missed partition admitted outcomes. *)
      if o.Engine.admitted then
        Alcotest.(check bool) "partition" true (Engine.on_time o <> Engine.missed o)
      else begin
        Alcotest.(check bool) "not on time" false (Engine.on_time o);
        Alcotest.(check bool) "not missed" false (Engine.missed o)
      end)
    r.Engine.outcomes

let test_engine_zero_capacity () =
  let t =
    Trace.of_events [ (0, Trace.Arrive (job ~id:"j" ~start:0 ~deadline:5)) ]
  in
  let rota = Engine.run ~policy:Admission.Rota t in
  Alcotest.(check int) "rejected" 1 rota.Engine.rejected;
  Alcotest.(check int) "no capacity counted" 0 rota.Engine.capacity_total;
  let opt = Engine.run ~policy:Admission.Optimistic t in
  Alcotest.(check int) "optimistic admits anyway" 1 opt.Engine.admitted;
  Alcotest.(check int) "and misses" 1 opt.Engine.missed_deadlines;
  Alcotest.(check (float 0.001)) "utilization zero" 0. (Engine.utilization opt)

let test_engine_late_join_counted_once () =
  (* Capacity joining mid-run is clipped to [join, horizon). *)
  let t =
    Trace.of_events
      [
        (0, Trace.Join (rset [ Term.v 1 (iv 0 10) cpu1 ]));
        (4, Trace.Join (rset [ Term.v 1 (iv 0 10) cpu1 ]));
        (0, Trace.Arrive (job ~id:"j" ~start:0 ~deadline:10));
      ]
  in
  let r = Engine.run ~policy:Admission.Rota t in
  (* First join: 10 units; second join at t=4 clipped to [4,10): 6. *)
  Alcotest.(check int) "capacity" 16 r.Engine.capacity_total

(* --- Failure injection: calendars and admission under misuse --------------- *)

let test_admission_complete_unknown () =
  let ctrl = Admission.create Admission.Rota (rset [ Term.v 1 (iv 0 9) cpu1 ]) in
  (* Completing an unknown computation is a no-op, not a crash. *)
  let ctrl = Admission.complete ctrl ~computation:"ghost" in
  Alcotest.(check int) "residual intact" 9
    (Resource_set.integrate (Admission.residual ctrl) cpu1 (iv 0 9))

let test_admission_advance_expires_reservations () =
  let ctrl = Admission.create Admission.Rota (rset [ Term.v 1 (iv 0 20) cpu1 ]) in
  let j = job ~id:"j" ~start:0 ~deadline:20 in
  let ctrl, o = Admission.request ctrl ~now:0 j in
  Alcotest.(check bool) "admitted" true o.Admission.admitted;
  (* Advancing past the whole window leaves nothing. *)
  let ctrl = Admission.advance ctrl 20 in
  Alcotest.(check bool) "all expired" true
    (Resource_set.is_empty (Admission.residual ctrl))

let test_calendar_find_released () =
  let cal = Calendar.create (rset [ Term.v 1 (iv 0 9) cpu1 ]) in
  let entry =
    {
      Calendar.computation = "x";
      window = iv 0 3;
      reservation = rset [ Term.v 1 (iv 0 3) cpu1 ];
      schedules = [];
    }
  in
  let cal = Result.get_ok (Calendar.commit cal entry) in
  let cal = Calendar.release cal ~computation:"x" in
  Alcotest.(check bool) "released entries gone" true
    (Calendar.find cal ~computation:"x" = None)

(* --- Newest API additions ---------------------------------------------------- *)

let test_semantics_witness () =
  let theta = rset [ Term.v 2 (iv 0 4) cpu1 ] in
  let s = State.make ~available:theta ~now:0 in
  let atom =
    Formula.satisfy_simple
      (Requirement.make_simple ~amounts:[ amount cpu1 6 ] ~window:(iv 0 4))
  in
  (match Semantics.witness s atom with
  | Some path ->
      (* The witness itself certifies: the atom holds on it. *)
      Alcotest.(check bool) "atom holds on witness" true
        (Semantics.on_path path ~at:0 atom)
  | None -> Alcotest.fail "witness exists");
  let impossible =
    Formula.satisfy_simple
      (Requirement.make_simple ~amounts:[ amount cpu1 9 ] ~window:(iv 0 4))
  in
  Alcotest.(check bool) "no witness for the impossible" true
    (Semantics.witness s impossible = None)

let test_engine_type_stats () =
  let net12 = Located_type.network ~src:l1 ~dst:l2 in
  let t =
    Trace.of_events
      [
        (0, Trace.Join (rset [ Term.v 1 (iv 0 20) cpu1; Term.v 1 (iv 0 20) net12 ]));
        (0, Trace.Arrive (job ~id:"j" ~start:0 ~deadline:12));
      ]
  in
  let r = Engine.run ~policy:Admission.Rota t in
  (match r.Engine.type_stats with
  | [ cpu_stat; net_stat ] ->
      Alcotest.(check bool) "cpu first in type order" true
        (Located_type.equal cpu_stat.Engine.ltype cpu1);
      Alcotest.(check int) "cpu capacity" 20 cpu_stat.Engine.capacity;
      Alcotest.(check int) "cpu consumed (evaluate+ready)" 9
        cpu_stat.Engine.consumed;
      Alcotest.(check int) "net untouched" 0 net_stat.Engine.consumed
  | other -> Alcotest.failf "expected 2 type stats, got %d" (List.length other));
  (* Per-type numbers sum to the totals. *)
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 r.Engine.type_stats in
  Alcotest.(check int) "capacity sums" r.Engine.capacity_total
    (sum (fun (s : Engine.type_stat) -> s.Engine.capacity));
  Alcotest.(check int) "consumed sums" r.Engine.consumed_total
    (sum (fun (s : Engine.type_stat) -> s.Engine.consumed));
  Alcotest.(check bool) "pp_type_stats prints" true
    (String.length (Format.asprintf "%a" Engine.pp_type_stats r) > 0)

let test_admission_withdraw () =
  let ctrl = Admission.create Admission.Rota (rset [ Term.v 1 (iv 0 20) cpu1 ]) in
  let j =
    Computation.make ~id:"j" ~start:5 ~deadline:20
      [ Program.make ~name:a1 ~home:l1 [ Action.evaluate 1 ] ]
  in
  let ctrl, o = Admission.request ctrl ~now:0 j in
  Alcotest.(check bool) "admitted" true o.Admission.admitted;
  (* Before the start time, leaving is allowed and frees the reservation. *)
  (match Admission.withdraw ctrl ~now:3 ~computation:"j" with
  | Ok ctrl' ->
      Alcotest.(check int) "reservation freed" 20
        (Resource_set.integrate (Admission.residual ctrl') cpu1 (iv 0 20))
  | Error e -> Alcotest.failf "withdraw before start: %s" e);
  (* At/after the start time it is refused. *)
  (match Admission.withdraw ctrl ~now:5 ~computation:"j" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "withdraw after start accepted");
  match Admission.withdraw ctrl ~now:0 ~computation:"ghost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "withdraw of unknown accepted"

(* Conservation: in every engine run, consumed <= capacity. *)
let prop_engine_conservation =
  QCheck.Test.make ~name:"engine consumes at most the capacity" ~count:40
    QCheck.(pair (int_range 0 500) (int_range 1 3))
    (fun (seed, loc) ->
      let params =
        {
          Rota_workload.Scenario.default_params with
          seed;
          locations = loc;
          horizon = 80;
          arrivals = 10;
        }
      in
      let trace = Rota_workload.Scenario.trace params in
      List.for_all
        (fun policy ->
          let r = Engine.run ~policy trace in
          r.Engine.consumed_total <= r.Engine.capacity_total)
        Admission.all_policies)

(* Agreement: Rota_given_order is at most as permissive as Rota (which
   tries heuristic orders), never more. *)
let prop_given_order_conservative =
  QCheck.Test.make ~name:"rota-given-order admits a subset" ~count:25
    QCheck.(int_range 0 500)
    (fun seed ->
      let params =
        {
          Rota_workload.Scenario.default_params with
          seed;
          horizon = 80;
          arrivals = 12;
          locations = 2;
        }
      in
      let trace = Rota_workload.Scenario.trace params in
      let r1 = Engine.run ~policy:Admission.Rota_given_order trace in
      let r2 = Engine.run ~policy:Admission.Rota trace in
      (* Not a strict subset guarantee computation-by-computation (earlier
         rejections free capacity later), but neither may ever miss. *)
      r1.Engine.missed_deadlines = 0 && r2.Engine.missed_deadlines = 0)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_engine_conservation; prop_given_order_conservative ]

let () =
  Alcotest.run "rota_more"
    [
      ( "path",
        [
          Alcotest.test_case "accounting" `Quick test_path_accounting;
          Alcotest.test_case "greedy extension" `Quick test_path_greedy_extension;
        ] );
      ( "transition",
        [
          Alcotest.test_case "contention labels" `Quick
            test_transition_contention_labels;
          Alcotest.test_case "greedy EDF" `Quick test_transition_greedy_edf;
          Alcotest.test_case "independent types" `Quick
            test_transition_two_types_independent;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "window clipping" `Quick
            test_semantics_window_clipping;
          Alcotest.test_case "degenerate window" `Quick
            test_semantics_degenerate_window;
          Alcotest.test_case "multi-actor completion" `Quick
            test_completion_path_multi_actor;
        ] );
      ( "engine",
        [
          Alcotest.test_case "auto dispatch" `Quick test_engine_auto_dispatch;
          Alcotest.test_case "rota under shared" `Quick
            test_engine_rota_under_shared_dispatch;
          Alcotest.test_case "outcome helpers" `Quick test_engine_outcome_helpers;
          Alcotest.test_case "zero capacity" `Quick test_engine_zero_capacity;
          Alcotest.test_case "late join accounting" `Quick
            test_engine_late_join_counted_once;
        ] );
      ( "additions",
        [
          Alcotest.test_case "semantics witness" `Quick test_semantics_witness;
          Alcotest.test_case "engine type stats" `Quick test_engine_type_stats;
          Alcotest.test_case "admission withdraw" `Quick test_admission_withdraw;
        ] );
      ( "failure_injection",
        [
          Alcotest.test_case "complete unknown" `Quick test_admission_complete_unknown;
          Alcotest.test_case "advance expires" `Quick
            test_admission_advance_expires_reservations;
          Alcotest.test_case "calendar release" `Quick test_calendar_find_released;
        ] );
      ("properties", properties);
    ]

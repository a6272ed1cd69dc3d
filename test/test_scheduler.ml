(* Tests for the scheduler library: Calendar (commitment ledger) and
   Admission (ROTA vs baseline policies). *)

open Rota_interval
open Rota_resource
open Rota_actor
open Rota_scheduler

(* Every calendar mutation in this binary re-verifies the cached
   committed/residual sets against a from-scratch recomputation. *)
let () = Calendar.set_self_check true

let iv a b = Interval.of_pair a b
let l1 = Location.make "l1"
let l2 = Location.make "l2"
let cpu1 = Located_type.cpu l1
let net12 = Located_type.network ~src:l1 ~dst:l2
let a1 = Actor_name.make "a1"
let rset = Resource_set.of_terms

let one_actor_job ~id ~start ~deadline actions =
  Computation.make ~id ~start ~deadline [ Program.make ~name:a1 ~home:l1 actions ]

(* A schedule certificate occupying [window] at [rate] on cpu1. *)
let entry ~id ~window ~rate =
  let reservation = rset [ Term.v rate window cpu1 ] in
  {
    Calendar.computation = id;
    window;
    reservation;
    schedules = [];
  }

(* --- Calendar ---------------------------------------------------------- *)

let test_calendar_commit_release () =
  let c = Calendar.create (rset [ Term.v 2 (iv 0 10) cpu1 ]) in
  Alcotest.(check int) "full residual" 20
    (Resource_set.integrate (Calendar.residual c) cpu1 (iv 0 10));
  let c =
    Result.get_ok (Calendar.commit c (entry ~id:"x" ~window:(iv 0 5) ~rate:1))
  in
  Alcotest.(check int) "residual shrank" 15
    (Resource_set.integrate (Calendar.residual c) cpu1 (iv 0 10));
  Alcotest.(check int) "committed" 5 (Calendar.committed_quantity c cpu1 (iv 0 10));
  Alcotest.(check bool) "find" true
    (Option.is_some (Calendar.find c ~computation:"x"));
  (* Duplicate ids rejected. *)
  (match Calendar.commit c (entry ~id:"x" ~window:(iv 5 6) ~rate:1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate commit must fail");
  (* Overcommit rejected. *)
  (match Calendar.commit c (entry ~id:"y" ~window:(iv 0 5) ~rate:2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overcommit must fail");
  let c = Calendar.release c ~computation:"x" in
  Alcotest.(check int) "released" 20
    (Resource_set.integrate (Calendar.residual c) cpu1 (iv 0 10));
  (* Releasing an unknown id is a no-op. *)
  let c' = Calendar.release c ~computation:"nope" in
  Alcotest.(check int) "no-op release" 20
    (Resource_set.integrate (Calendar.residual c') cpu1 (iv 0 10))

let test_calendar_advance_and_capacity () =
  let c = Calendar.create (rset [ Term.v 2 (iv 0 10) cpu1 ]) in
  let c =
    Result.get_ok (Calendar.commit c (entry ~id:"x" ~window:(iv 0 6) ~rate:1))
  in
  let c = Calendar.advance c 4 in
  Alcotest.(check int) "capacity truncated" 12
    (Calendar.capacity_quantity c cpu1 (iv 0 10));
  Alcotest.(check int) "reservation truncated" 2
    (Calendar.committed_quantity c cpu1 (iv 0 10));
  let c = Calendar.add_capacity c (rset [ Term.v 1 (iv 6 12) cpu1 ]) in
  Alcotest.(check int) "capacity joined" 18
    (Calendar.capacity_quantity c cpu1 (iv 0 12))

(* --- Calendar: invariant-violation reports ------------------------------ *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Regression: a drifted committed cache (simulated via the test-only
   with_caches_unchecked) must surface from [release] as a structured
   invariant-violation report naming the operation and the computation —
   not as a bare [assert false]. *)
let test_calendar_release_reports_drift () =
  let c = Calendar.create (rset [ Term.v 2 (iv 0 10) cpu1 ]) in
  let c =
    Result.get_ok (Calendar.commit c (entry ~id:"x" ~window:(iv 0 5) ~rate:1))
  in
  let drifted =
    Calendar.with_caches_unchecked c ~committed:Resource_set.empty
      ~residual:(Calendar.capacity c)
  in
  match Calendar.release drifted ~computation:"x" with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names operation and id" true
        (contains ~sub:"calendar: invariant violation: release x" msg)
  | _ -> Alcotest.fail "release on a drifted ledger must raise"

(* Regression: [remove_capacity] already has an error channel, so cache
   drift there must come back as a structured [Error] — again naming the
   operation — rather than raising. *)
let test_calendar_remove_capacity_reports_drift () =
  let c = Calendar.create (rset [ Term.v 2 (iv 0 10) cpu1 ]) in
  let drifted =
    (* Residual inflated past capacity: the slice passes the residual
       check but capacity cannot cover it. *)
    Calendar.with_caches_unchecked c ~committed:Resource_set.empty
      ~residual:(rset [ Term.v 5 (iv 0 10) cpu1 ])
  in
  match Calendar.remove_capacity drifted (rset [ Term.v 4 (iv 0 10) cpu1 ]) with
  | Error msg ->
      Alcotest.(check bool) "names the operation" true
        (contains ~sub:"calendar: invariant violation: remove_capacity" msg)
  | Ok _ -> Alcotest.fail "remove_capacity on a drifted ledger must error"

(* --- Calendar: cached-residual property --------------------------------- *)

(* Random ledger workloads: after every operation the incrementally
   maintained committed/residual caches must equal what a from-scratch
   fold over the entries produces. *)

type cal_op =
  | Commit of int * int * int * int  (* id slot, start, duration, rate *)
  | Release of int
  | Advance of int
  | Add_capacity of int * int * int
  | Remove_capacity of int * int * int

let pp_cal_op = function
  | Commit (k, a, d, r) -> Printf.sprintf "commit c%d [%d,%d)@%d" k a (a + d) r
  | Release k -> Printf.sprintf "release c%d" k
  | Advance t -> Printf.sprintf "advance %d" t
  | Add_capacity (a, d, r) -> Printf.sprintf "add [%d,%d)@%d" a (a + d) r
  | Remove_capacity (a, d, r) -> Printf.sprintf "remove [%d,%d)@%d" a (a + d) r

let cal_op_gen =
  QCheck.Gen.(
    let slot = int_range 0 5 in
    let seg =
      let* a = int_range 0 30 in
      let* d = int_range 1 8 in
      let* r = int_range 1 4 in
      return (a, d, r)
    in
    frequency
      [
        (4, map2 (fun k (a, d, r) -> Commit (k, a, d, r)) slot seg);
        (2, map (fun k -> Release k) slot);
        (1, map (fun t -> Advance t) (int_range 0 40));
        (2, map (fun (a, d, r) -> Add_capacity (a, d, r)) seg);
        (1, map (fun (a, d, r) -> Remove_capacity (a, d, r)) seg);
      ])

let arbitrary_cal_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_cal_op ops))
    QCheck.Gen.(list_size (int_range 1 40) cal_op_gen)

let recomputed_residual cal =
  let committed =
    List.fold_left
      (fun acc (e : Calendar.entry) -> Resource_set.union acc e.Calendar.reservation)
      Resource_set.empty (Calendar.entries cal)
  in
  Result.get_ok (Resource_set.diff (Calendar.capacity cal) committed)

let apply_cal_op cal = function
  | Commit (k, a, d, r) -> (
      let window = iv a (a + d) in
      let e =
        {
          Calendar.computation = Printf.sprintf "c%d" k;
          window;
          reservation = rset [ Term.v r window cpu1 ];
          schedules = [];
        }
      in
      match Calendar.commit cal e with Ok cal -> cal | Error _ -> cal)
  | Release k -> Calendar.release cal ~computation:(Printf.sprintf "c%d" k)
  | Advance t -> Calendar.advance cal t
  | Add_capacity (a, d, r) ->
      Calendar.add_capacity cal (rset [ Term.v r (iv a (a + d)) cpu1 ])
  | Remove_capacity (a, d, r) -> (
      match Calendar.remove_capacity cal (rset [ Term.v r (iv a (a + d)) cpu1 ]) with
      | Ok cal -> cal
      | Error _ -> cal)

let prop_calendar_residual_cache =
  QCheck.Test.make ~name:"calendar cached residual = recomputation" ~count:300
    arbitrary_cal_ops (fun ops ->
      let cal = Calendar.create (rset [ Term.v 5 (iv 0 40) cpu1 ]) in
      let _ =
        List.fold_left
          (fun cal op ->
            let cal = apply_cal_op cal op in
            (match Calendar.self_check cal with
            | Ok () -> ()
            | Error e -> QCheck.Test.fail_report e);
            if not (Resource_set.equal (Calendar.residual cal) (recomputed_residual cal))
            then QCheck.Test.fail_report "residual differs from recomputation";
            cal)
          cal ops
      in
      true)

(* The lazy calendar against eager truncation.  The model below is the
   ledger as it was before [Calendar.advance] stopped touching entries:
   every advance cuts capacity and every reservation, and joins are cut
   at the clock.  Over random operation sequences (revocations
   included) both must give the same residual, the same verdicts, and
   the same entries — what a snapshot serializes — while the calendar's
   own self-check runs after every operation. *)
module Id_map = Map.Make (String)

type eager = { cap : Resource_set.t; held : Resource_set.t Id_map.t; clock : int }

let eager_residual m =
  Id_map.fold (fun _ r acc -> Resource_set.union acc r) m.held Resource_set.empty
  |> Resource_set.diff m.cap
  |> Result.get_ok

let eager_apply m = function
  | `Cal (Commit (k, a, d, r)) ->
      let id = Printf.sprintf "c%d" k in
      let res = rset [ Term.v r (iv a (a + d)) cpu1 ] in
      if Id_map.mem id m.held then (m, "dup")
      else (
        match Resource_set.diff (eager_residual m) res with
        | Ok _ -> ({ m with held = Id_map.add id res m.held }, "ok")
        | Error _ -> (m, "refused"))
  | `Cal (Release k) -> ({ m with held = Id_map.remove (Printf.sprintf "c%d" k) m.held }, "")
  | `Cal (Advance t) ->
      if t <= m.clock then (m, "")
      else
        ( {
            cap = Resource_set.truncate_before m.cap t;
            held = Id_map.map (fun r -> Resource_set.truncate_before r t) m.held;
            clock = t;
          },
          "" )
  | `Cal (Add_capacity (a, d, r)) ->
      let theta = Resource_set.truncate_before (rset [ Term.v r (iv a (a + d)) cpu1 ]) m.clock in
      ({ m with cap = Resource_set.union m.cap theta }, "")
  | `Cal (Remove_capacity (a, d, r)) -> (
      let slice = rset [ Term.v r (iv a (a + d)) cpu1 ] in
      match Resource_set.diff (eager_residual m) slice with
      | Ok _ -> ({ m with cap = Result.get_ok (Resource_set.diff m.cap slice) }, "ok")
      | Error _ -> (m, "refused"))
  | `Revoke (a, d, r) ->
      let cap = Resource_set.diff_clamped m.cap (rset [ Term.v r (iv a (a + d)) cpu1 ]) in
      let _, held, evicted =
        Id_map.fold
          (fun id res (remaining, held, evicted) ->
            match Resource_set.diff remaining res with
            | Ok remaining -> (remaining, Id_map.add id res held, evicted)
            | Error _ -> (remaining, held, (id, res) :: evicted))
          m.held (cap, Id_map.empty, [])
      in
      ({ m with cap; held }, String.concat "," (List.rev_map fst evicted))

let lazy_apply cal op =
  match op with
  | `Cal (Commit (k, a, d, r)) -> (
      let computation = Printf.sprintf "c%d" k in
      let window = iv a (a + d) in
      match
        Calendar.commit cal
          {
            Calendar.computation;
            window;
            reservation = rset [ Term.v r window cpu1 ];
            schedules = [];
          }
      with
      | Ok cal -> (cal, "ok")
      | Error _ -> (cal, if Calendar.mem cal ~computation then "dup" else "refused"))
  | `Cal (Remove_capacity (a, d, r)) -> (
      match Calendar.remove_capacity cal (rset [ Term.v r (iv a (a + d)) cpu1 ]) with
      | Ok cal -> (cal, "ok")
      | Error _ -> (cal, "refused"))
  | `Cal op -> (apply_cal_op cal op, "")
  | `Revoke (a, d, r) ->
      let cal, evicted = Calendar.revoke cal (rset [ Term.v r (iv a (a + d)) cpu1 ]) in
      (cal, String.concat "," (List.map (fun (e : Calendar.entry) -> e.Calendar.computation) evicted))

let prop_calendar_lazy_matches_eager =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun op -> `Cal op) cal_op_gen);
          ( 1,
            map3
              (fun a d r -> `Revoke (a, d, r))
              (int_range 0 30) (int_range 1 8) (int_range 1 4) );
        ])
  in
  let pp = function
    | `Cal op -> pp_cal_op op
    | `Revoke (a, d, r) -> Printf.sprintf "revoke [%d,%d)@%d" a (a + d) r
  in
  QCheck.Test.make ~name:"calendar: lazy advance = eager truncation" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp ops))
       QCheck.Gen.(list_size (int_range 1 40) op_gen))
    (fun ops ->
      let capacity = rset [ Term.v 5 (iv 0 40) cpu1 ] in
      let entries_of cal =
        List.map
          (fun (e : Calendar.entry) -> (e.Calendar.computation, e.Calendar.reservation))
          (Calendar.entries cal)
      in
      ignore
        (List.fold_left
           (fun (cal, m) op ->
             let cal, got = lazy_apply cal op and m, want = eager_apply m op in
             if got <> want then
               QCheck.Test.fail_reportf "%s: calendar %S, eager %S" (pp op) got want;
             if not (Resource_set.equal (Calendar.residual cal) (eager_residual m)) then
               QCheck.Test.fail_reportf "%s: residuals differ" (pp op);
             let mine = entries_of cal and theirs = Id_map.bindings m.held in
             if
               List.length mine <> List.length theirs
               || not
                    (List.for_all2
                       (fun (a, r) (b, r') -> a = b && Resource_set.equal r r')
                       mine theirs)
             then QCheck.Test.fail_reportf "%s: entries differ" (pp op);
             (match Calendar.restore (Calendar.snapshot cal) with
             | Ok back ->
                 if not (Resource_set.equal (Calendar.residual back) (eager_residual m))
                 then QCheck.Test.fail_reportf "%s: restored residual differs" (pp op)
             | Error e -> QCheck.Test.fail_reportf "%s: snapshot refused: %s" (pp op) e);
             (cal, m))
           (Calendar.create capacity, { cap = capacity; held = Id_map.empty; clock = min_int })
           ops);
      true)

(* --- Admission: ROTA policy --------------------------------------------- *)

let test_admission_rota_admits_and_reserves () =
  let ctrl = Admission.create Admission.Rota (rset [ Term.v 1 (iv 0 20) cpu1 ]) in
  (* evaluate(1) = 8 cpu; ready = 1 cpu; merged to 9 cpu. *)
  let job = one_actor_job ~id:"j1" ~start:0 ~deadline:12 [ Action.evaluate 1; Action.ready ] in
  let ctrl, outcome = Admission.request ctrl ~now:0 job in
  Alcotest.(check bool) "admitted" true outcome.Admission.admitted;
  Alcotest.(check bool) "has certificate" true
    (Option.is_some outcome.Admission.schedules);
  Alcotest.(check int) "residual shrank by 9" 11
    (Resource_set.integrate (Admission.residual ctrl) cpu1 (iv 0 20));
  (* A second 9-cpu job with deadline 12 cannot fit the remaining 3 ticks
     before 12. *)
  let job2 = one_actor_job ~id:"j2" ~start:0 ~deadline:12 [ Action.evaluate 1; Action.ready ] in
  let ctrl, outcome2 = Admission.request ctrl ~now:0 job2 in
  Alcotest.(check bool) "second rejected" false outcome2.Admission.admitted;
  (* With a later deadline it fits after the first. *)
  let job3 = one_actor_job ~id:"j3" ~start:0 ~deadline:20 [ Action.evaluate 1; Action.ready ] in
  let ctrl, outcome3 = Admission.request ctrl ~now:0 job3 in
  Alcotest.(check bool) "third admitted" true outcome3.Admission.admitted;
  (* Completion releases the reservation. *)
  let ctrl = Admission.complete ctrl ~computation:"j1" in
  Alcotest.(check int) "released" 11
    (Resource_set.integrate (Admission.residual ctrl) cpu1 (iv 0 20))

let test_admission_deadline_passed () =
  List.iter
    (fun policy ->
      let ctrl = Admission.create policy (rset [ Term.v 9 (iv 0 30) cpu1 ]) in
      let job = one_actor_job ~id:"late" ~start:0 ~deadline:5 [ Action.ready ] in
      let _, outcome = Admission.request ctrl ~now:5 job in
      Alcotest.(check bool)
        (Admission.policy_name policy ^ " rejects past deadline")
        false outcome.Admission.admitted)
    Admission.all_policies

let test_admission_aggregate_ignores_order () =
  (* cpu early, net early; job needs cpu then net — sequentially impossible
     (net is gone by the time cpu finishes), but aggregate quantities fit. *)
  let capacity = rset [ Term.v 1 (iv 0 8) cpu1; Term.v 1 (iv 0 9) net12 ] in
  (* evaluate(1) -> 8 cpu@l1, then send to a peer at l2 -> 4 net. *)
  let peer = Actor_name.make "peer" in
  let job =
    Computation.make ~id:"ordered" ~start:0 ~deadline:9
      [
        Program.make ~name:a1 ~home:l1
          [ Action.evaluate 1; Action.send ~dest:peer ~size:1 ];
        Program.make ~name:peer ~home:l2 [];
      ]
  in
  let rota = Admission.create Admission.Rota capacity in
  let _, rota_outcome = Admission.request rota ~now:0 job in
  Alcotest.(check bool) "rota rejects (order infeasible)" false
    rota_outcome.Admission.admitted;
  let agg = Admission.create Admission.Aggregate capacity in
  let _, agg_outcome = Admission.request agg ~now:0 job in
  Alcotest.(check bool) "aggregate admits (quantities fit)" true
    agg_outcome.Admission.admitted

let test_admission_aggregate_ledger () =
  let capacity = rset [ Term.v 1 (iv 0 20) cpu1 ] in
  let agg = Admission.create Admission.Aggregate capacity in
  let job1 = one_actor_job ~id:"g1" ~start:0 ~deadline:20 [ Action.evaluate 1; Action.ready ] in
  let agg, o1 = Admission.request agg ~now:0 job1 in
  Alcotest.(check bool) "first admitted" true o1.Admission.admitted;
  Alcotest.(check int) "ledger has one" 1
    (List.length (Admission.admitted_demands agg));
  (* 9 + 9 = 18 <= 20 still fits; a third 9 does not. *)
  let job2 = one_actor_job ~id:"g2" ~start:0 ~deadline:20 [ Action.evaluate 1; Action.ready ] in
  let agg, o2 = Admission.request agg ~now:0 job2 in
  Alcotest.(check bool) "second admitted" true o2.Admission.admitted;
  let job3 = one_actor_job ~id:"g3" ~start:0 ~deadline:20 [ Action.evaluate 1; Action.ready ] in
  let agg, o3 = Admission.request agg ~now:0 job3 in
  Alcotest.(check bool) "third rejected" false o3.Admission.admitted;
  (* Completion frees ledger space. *)
  let agg = Admission.complete agg ~computation:"g1" in
  let _, o4 = Admission.request agg ~now:0 job3 in
  Alcotest.(check bool) "fits after completion" true o4.Admission.admitted

let test_admission_optimistic () =
  let ctrl = Admission.create Admission.Optimistic Resource_set.empty in
  let job = one_actor_job ~id:"any" ~start:0 ~deadline:4 [ Action.evaluate 3 ] in
  let _, outcome = Admission.request ctrl ~now:0 job in
  Alcotest.(check bool) "admits with zero capacity" true
    outcome.Admission.admitted

let test_admission_rota_unmerged_conservative () =
  (* Unmerged steps force a breakpoint between the two cpu actions; with a
     one-tick window per unit that costs nothing here, but with capacity
     that only just fits, both variants agree; this test pins the variant
     dispatch works and is at most as permissive. *)
  let capacity = rset [ Term.v 1 (iv 0 9) cpu1 ] in
  let job = one_actor_job ~id:"m" ~start:0 ~deadline:9 [ Action.evaluate 1; Action.ready ] in
  let merged = Admission.create Admission.Rota capacity in
  let unmerged = Admission.create Admission.Rota_unmerged capacity in
  let _, om = Admission.request merged ~now:0 job in
  let _, ou = Admission.request unmerged ~now:0 job in
  Alcotest.(check bool) "merged admits" true om.Admission.admitted;
  Alcotest.(check bool) "unmerged admits too" true ou.Admission.admitted

let test_admission_add_capacity_unlocks () =
  let ctrl = Admission.create Admission.Rota (rset [ Term.v 1 (iv 0 5) cpu1 ]) in
  let job = one_actor_job ~id:"k" ~start:0 ~deadline:10 [ Action.evaluate 1; Action.ready ] in
  let ctrl, o1 = Admission.request ctrl ~now:0 job in
  Alcotest.(check bool) "rejected at first" false o1.Admission.admitted;
  let ctrl = Admission.add_capacity ctrl (rset [ Term.v 1 (iv 5 10) cpu1 ]) in
  let _, o2 = Admission.request ctrl ~now:0 job in
  Alcotest.(check bool) "admitted after join" true o2.Admission.admitted

(* Regression: a re-submitted id must be rejected by every policy with a
   proper reason — not double-counted (Optimistic/Aggregate) or bounced
   with an "internal: calendar ..." message (Rota). *)
let test_admission_duplicate_rejected () =
  List.iter
    (fun policy ->
      let name = Admission.policy_name policy in
      let ctrl = Admission.create policy (rset [ Term.v 9 (iv 0 30) cpu1 ]) in
      let job =
        one_actor_job ~id:"dup" ~start:0 ~deadline:30
          [ Action.evaluate 1; Action.ready ]
      in
      let ctrl, o1 = Admission.request ctrl ~now:0 job in
      Alcotest.(check bool) (name ^ " first admitted") true o1.Admission.admitted;
      Alcotest.(check int) (name ^ " one record") 1 (Admission.ledger_size ctrl);
      let ctrl, o2 = Admission.request ctrl ~now:0 job in
      Alcotest.(check bool) (name ^ " duplicate rejected") false
        o2.Admission.admitted;
      Alcotest.(check string)
        (name ^ " duplicate reason")
        "dup is already admitted" o2.Admission.reason;
      Alcotest.(check int)
        (name ^ " not double-counted")
        1 (Admission.ledger_size ctrl))
    Admission.all_policies

(* Regression: an all-punctuation reject reason must not produce the
   dangling counter name "admission/reject_reason.". *)
let test_reject_reason_slug () =
  Alcotest.(check string) "all punctuation" "other" (Admission.Obs.slug "!?!");
  Alcotest.(check string) "empty" "other" (Admission.Obs.slug "");
  Alcotest.(check string) "normal text" "deadline-already-passed"
    (Admission.Obs.slug "Deadline already passed!")

(* Advancing prunes demand records whose windows have fully expired, so
   the aggregate/optimistic ledgers stop scanning dead demands. *)
let test_admission_advance_prunes_demands () =
  let ctrl = Admission.create Admission.Optimistic Resource_set.empty in
  let early = one_actor_job ~id:"early" ~start:0 ~deadline:5 [ Action.ready ] in
  let late = one_actor_job ~id:"late" ~start:0 ~deadline:20 [ Action.ready ] in
  let ctrl, _ = Admission.request ctrl ~now:0 early in
  let ctrl, _ = Admission.request ctrl ~now:0 late in
  Alcotest.(check int) "two records" 2 (Admission.ledger_size ctrl);
  let ctrl = Admission.advance ctrl 10 in
  Alcotest.(check int) "expired pruned" 1 (Admission.ledger_size ctrl);
  Alcotest.(check (list string)) "survivor" [ "late" ]
    (List.map (fun (id, _, _) -> id) (Admission.admitted_demands ctrl))

let () =
  Alcotest.run "rota_scheduler"
    [
      ( "calendar",
        [
          Alcotest.test_case "commit/release" `Quick test_calendar_commit_release;
          Alcotest.test_case "advance/capacity" `Quick
            test_calendar_advance_and_capacity;
          QCheck_alcotest.to_alcotest prop_calendar_residual_cache;
          QCheck_alcotest.to_alcotest prop_calendar_lazy_matches_eager;
          Alcotest.test_case "release reports cache drift" `Quick
            test_calendar_release_reports_drift;
          Alcotest.test_case "remove_capacity reports cache drift" `Quick
            test_calendar_remove_capacity_reports_drift;
        ] );
      ( "admission",
        [
          Alcotest.test_case "rota admits and reserves" `Quick
            test_admission_rota_admits_and_reserves;
          Alcotest.test_case "deadline passed" `Quick test_admission_deadline_passed;
          Alcotest.test_case "aggregate ignores order" `Quick
            test_admission_aggregate_ignores_order;
          Alcotest.test_case "aggregate ledger" `Quick test_admission_aggregate_ledger;
          Alcotest.test_case "optimistic" `Quick test_admission_optimistic;
          Alcotest.test_case "rota unmerged" `Quick
            test_admission_rota_unmerged_conservative;
          Alcotest.test_case "capacity join unlocks" `Quick
            test_admission_add_capacity_unlocks;
          Alcotest.test_case "duplicate admission rejected" `Quick
            test_admission_duplicate_rejected;
          Alcotest.test_case "reject reason slug" `Quick test_reject_reason_slug;
          Alcotest.test_case "advance prunes demands" `Quick
            test_admission_advance_prunes_demands;
        ] );
    ]

(* Tests for the extension modules implementing the paper's future-work
   directions: Precedence + Session (interacting actors), Pool (CyberOrgs encapsulations), Planner
   (stay-or-migrate choices). *)

open Rota_interval
open Rota_resource
open Rota_actor
open Rota
open Rota_scheduler

let iv a b = Interval.of_pair a b
let l1 = Location.make "l1"
let l2 = Location.make "l2"
let l3 = Location.make "l3"
let cpu1 = Located_type.cpu l1
let cpu2 = Located_type.cpu l2
let rset = Resource_set.of_terms
let amount = Requirement.amount
let a_name = Actor_name.make "alice"
let b_name = Actor_name.make "bob"

let complex steps window = Requirement.make_complex ~steps ~window

(* --- Precedence -------------------------------------------------------------- *)

let node id ?(deps = []) steps window =
  { Precedence.id; requirement = complex steps window; deps }

let test_precedence_chain () =
  let theta = rset [ Term.v 1 (iv 0 12) cpu1 ] in
  let w = iv 0 12 in
  let nodes =
    [
      node "a" [ [ amount cpu1 3 ] ] w;
      node "b" ~deps:[ "a" ] [ [ amount cpu1 3 ] ] w;
      node "c" ~deps:[ "b" ] [ [ amount cpu1 3 ] ] w;
    ]
  in
  match Precedence.schedule theta nodes with
  | Error e -> Alcotest.failf "chain: %s" (Format.asprintf "%a" Precedence.pp_error e)
  | Ok placements ->
      (match placements with
      | [ pa; pb; pc ] ->
          Alcotest.(check int) "a finishes" 3 pa.Precedence.finished;
          Alcotest.(check int) "b starts after a" 3 pb.Precedence.started;
          Alcotest.(check int) "b finishes" 6 pb.Precedence.finished;
          Alcotest.(check int) "c finishes" 9 pc.Precedence.finished
      | _ -> Alcotest.fail "three placements");
      Alcotest.(check int) "makespan" 9 (Precedence.finish_time placements)

let test_precedence_diamond () =
  (* a -> {b, c} -> d on two independent cpus: b and c run in parallel. *)
  let theta = rset [ Term.v 1 (iv 0 20) cpu1; Term.v 1 (iv 0 20) cpu2 ] in
  let w = iv 0 20 in
  let nodes =
    [
      node "a" [ [ amount cpu1 2 ] ] w;
      node "b" ~deps:[ "a" ] [ [ amount cpu1 4 ] ] w;
      node "c" ~deps:[ "a" ] [ [ amount cpu2 4 ] ] w;
      node "d" ~deps:[ "b"; "c" ] [ [ amount cpu1 2 ] ] w;
    ]
  in
  match Precedence.schedule theta nodes with
  | Error _ -> Alcotest.fail "diamond should fit"
  | Ok placements ->
      let find id =
        List.find (fun p -> String.equal p.Precedence.node id) placements
      in
      Alcotest.(check int) "b finishes" 6 (find "b").Precedence.finished;
      Alcotest.(check int) "c finishes" 6 (find "c").Precedence.finished;
      Alcotest.(check int) "d starts at 6" 6 (find "d").Precedence.started;
      Alcotest.(check int) "makespan" 8 (Precedence.finish_time placements)

let test_precedence_errors () =
  let w = iv 0 10 in
  let dup = [ node "a" [] w; node "a" [] w ] in
  (match Precedence.schedule Resource_set.empty dup with
  | Error (Precedence.Duplicate_node "a") -> ()
  | _ -> Alcotest.fail "expected duplicate");
  let unknown = [ node "a" ~deps:[ "ghost" ] [] w ] in
  (match Precedence.schedule Resource_set.empty unknown with
  | Error (Precedence.Unknown_dependency { node = "a"; dependency = "ghost" }) -> ()
  | _ -> Alcotest.fail "expected unknown dependency");
  let cyclic = [ node "a" ~deps:[ "b" ] [] w; node "b" ~deps:[ "a" ] [] w ] in
  (match Precedence.schedule Resource_set.empty cyclic with
  | Error (Precedence.Cycle ids) ->
      Alcotest.(check (list string)) "cycle members" [ "a"; "b" ]
        (List.sort compare ids)
  | _ -> Alcotest.fail "expected cycle");
  let starved = [ node "a" [ [ amount cpu1 5 ] ] w ] in
  match Precedence.schedule Resource_set.empty starved with
  | Error (Precedence.Infeasible "a") -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_precedence_sync_node () =
  (* An empty node acts as a pure synchronization point. *)
  let theta = rset [ Term.v 1 (iv 0 10) cpu1 ] in
  let w = iv 0 10 in
  let nodes =
    [
      node "work" [ [ amount cpu1 4 ] ] w;
      node "sync" ~deps:[ "work" ] [] w;
      node "after" ~deps:[ "sync" ] [ [ amount cpu1 2 ] ] w;
    ]
  in
  match Precedence.schedule theta nodes with
  | Error _ -> Alcotest.fail "sync chain should fit"
  | Ok placements ->
      let find id =
        List.find (fun p -> String.equal p.Precedence.node id) placements
      in
      Alcotest.(check int) "sync takes no time" 4 (find "sync").Precedence.finished;
      Alcotest.(check int) "after starts at 4" 4 (find "after").Precedence.started

let prop_precedence_respects_deps =
  let open QCheck in
  Test.make ~name:"precedence placements respect dependencies" ~count:100
    (pair (int_range 0 1000) (int_range 2 5))
    (fun (seed, n) ->
      let prng = Rota_workload.Prng.create seed in
      let w = iv 0 60 in
      (* A random DAG over n nodes: node i may depend on any j < i. *)
      let nodes =
        List.init n (fun i ->
            let deps =
              List.filter
                (fun _j -> Rota_workload.Prng.bool prng)
                (List.init i Fun.id)
              |> List.map string_of_int
            in
            node (string_of_int i) ~deps
              [ [ amount cpu1 (1 + Rota_workload.Prng.int prng 4) ] ]
              w)
      in
      let theta = rset [ Term.v 1 (iv 0 60) cpu1 ] in
      match Precedence.schedule theta nodes with
      | Error _ -> true (* infeasibility is allowed; ordering is the claim *)
      | Ok placements ->
          let finish_of id =
            (List.find (fun p -> String.equal p.Precedence.node id) placements)
              .Precedence.finished
          in
          List.for_all
            (fun n ->
              let p =
                List.find
                  (fun p -> String.equal p.Precedence.node n.Precedence.id)
                  placements
              in
              List.for_all
                (fun d -> p.Precedence.started >= finish_of d)
                n.Precedence.deps)
            nodes)

(* --- Session ------------------------------------------------------------------ *)

let ping_pong ~deadline =
  (* alice computes, sends to bob, awaits bob's reply, computes again;
     bob awaits alice, computes, replies. *)
  Session.make ~id:"ping-pong" ~start:0 ~deadline
    [
      Session.participant ~name:a_name ~home:l1
        [
          Session.Act (Action.evaluate 1);
          Session.Act (Action.send ~dest:b_name ~size:1);
          Session.Await b_name;
          Session.Act (Action.evaluate 1);
        ];
      Session.participant ~name:b_name ~home:l2
        [
          Session.Await a_name;
          Session.Act (Action.evaluate 1);
          Session.Act (Action.send ~dest:a_name ~size:1);
        ];
    ]

let session_capacity stop =
  rset
    [
      Term.v 1 (iv 0 stop) cpu1;
      Term.v 1 (iv 0 stop) cpu2;
      Term.v 2 (iv 0 stop) (Located_type.network ~src:l1 ~dst:l2);
      Term.v 2 (iv 0 stop) (Located_type.network ~src:l2 ~dst:l1);
    ]

let test_session_validation () =
  (match ping_pong ~deadline:60 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid session rejected: %s" e);
  (* Deadline before start. *)
  (match Session.make ~id:"bad" ~start:5 ~deadline:5 [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty window accepted");
  (* Awaiting an unknown participant. *)
  (match
     Session.make ~id:"bad" ~start:0 ~deadline:10
       [ Session.participant ~name:a_name ~home:l1 [ Session.Await b_name ] ]
   with
  | Error e ->
      Alcotest.(check bool) "mentions unknown" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "unknown awaited participant accepted");
  (* Self-await. *)
  (match
     Session.make ~id:"bad" ~start:0 ~deadline:10
       [ Session.participant ~name:a_name ~home:l1 [ Session.Await a_name ] ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "self-await accepted");
  (* More awaits than sends. *)
  match
    Session.make ~id:"bad" ~start:0 ~deadline:10
      [
        Session.participant ~name:a_name ~home:l1
          [ Session.Await b_name; Session.Await b_name ];
        Session.participant ~name:b_name ~home:l2
          [ Session.Act (Action.send ~dest:a_name ~size:1) ];
      ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unmatched await accepted"

let test_session_nodes () =
  let session = Result.get_ok (ping_pong ~deadline:60) in
  let nodes = Session.to_nodes Rota_actor.Cost_model.default session in
  let ids = List.map (fun n -> n.Precedence.id) nodes in
  Alcotest.(check (list string)) "segment ids"
    [ "alice#0"; "alice#1"; "bob#0"; "bob#1" ]
    (List.sort compare ids);
  let deps_of id =
    (List.find (fun n -> String.equal n.Precedence.id id) nodes).Precedence.deps
    |> List.sort compare
  in
  Alcotest.(check (list string)) "alice#0 independent" [] (deps_of "alice#0");
  (* bob's first segment is the empty prefix before his await. *)
  Alcotest.(check (list string)) "bob#1 waits for alice's send segment"
    [ "alice#0"; "bob#0" ] (deps_of "bob#1");
  Alcotest.(check (list string)) "alice#1 waits for bob's reply segment"
    [ "alice#0"; "bob#1" ] (deps_of "alice#1")

let test_session_meets_deadline () =
  let session = Result.get_ok (ping_pong ~deadline:60) in
  (match
     Session.meets_deadline Rota_actor.Cost_model.default (session_capacity 60)
       session
   with
  | Ok placements ->
      (* alice#0: 8 cpu then 4 net at rate 2 -> done by 10; bob#1: 8 cpu
         then 4 net from 10 -> done by 20; alice#1: 8 cpu from 20 -> 28. *)
      Alcotest.(check int) "makespan" 28 (Precedence.finish_time placements)
  | Error e ->
      Alcotest.failf "should fit: %s" (Format.asprintf "%a" Precedence.pp_error e));
  (* Too tight: the dependency chain cannot compress below 28. *)
  let tight = Result.get_ok (ping_pong ~deadline:27) in
  match
    Session.meets_deadline Rota_actor.Cost_model.default (session_capacity 27)
      tight
  with
  | Error (Precedence.Infeasible _) -> ()
  | Error e ->
      Alcotest.failf "unexpected error: %s"
        (Format.asprintf "%a" Precedence.pp_error e)
  | Ok _ -> Alcotest.fail "27 ticks cannot carry the 28-tick chain"

let test_session_deadlock () =
  (* Each awaits the other before sending: a static deadlock. *)
  let session =
    Result.get_ok
      (Session.make ~id:"deadlock" ~start:0 ~deadline:50
         [
           Session.participant ~name:a_name ~home:l1
             [ Session.Await b_name; Session.Act (Action.send ~dest:b_name ~size:1) ];
           Session.participant ~name:b_name ~home:l2
             [ Session.Await a_name; Session.Act (Action.send ~dest:a_name ~size:1) ];
         ])
  in
  match
    Session.meets_deadline Rota_actor.Cost_model.default (session_capacity 50)
      session
  with
  | Error (Precedence.Cycle ids) ->
      Alcotest.(check bool) "cycle involves both" true (List.length ids >= 2)
  | _ -> Alcotest.fail "expected a deadlock cycle"

(* --- Pool --------------------------------------------------------------------- *)

let one_actor_job ~id ~deadline ~home actions =
  Computation.make ~id ~start:0 ~deadline
    [ Program.make ~name:a_name ~home actions ]

let test_pool_subdivide_and_isolation () =
  let capacity = rset [ Term.v 2 (iv 0 20) cpu1; Term.v 2 (iv 0 20) cpu2 ] in
  let tree = Pool.root ~name:"root" capacity in
  let tree =
    Result.get_ok
      (Pool.subdivide tree ~parent:"root" ~name:"org1"
         ~slice:(rset [ Term.v 2 (iv 0 20) cpu1 ]))
  in
  Alcotest.(check (list string)) "names" [ "root"; "org1" ] (Pool.names tree);
  (* Root no longer holds cpu1. *)
  let root_residual = Pool.residual (Option.get (Pool.find tree "root")) in
  Alcotest.(check int) "root lost cpu1" 0
    (Resource_set.integrate root_residual cpu1 (iv 0 20));
  Alcotest.(check int) "root kept cpu2" 40
    (Resource_set.integrate root_residual cpu2 (iv 0 20));
  (* Total capacity is conserved. *)
  Alcotest.(check bool) "conservation" true
    (Resource_set.equal (Pool.total_capacity tree) capacity);
  (* A job needing cpu1 is admitted in org1 but rejected in root. *)
  let job = one_actor_job ~id:"j" ~deadline:20 ~home:l1 [ Action.evaluate 1 ] in
  (match Pool.admit tree ~pool:"org1" ~now:0 job with
  | Ok (_, outcome) ->
      Alcotest.(check bool) "org1 admits" true outcome.Admission.admitted
  | Error e -> Alcotest.failf "admit: %s" e);
  match Pool.admit tree ~pool:"root" ~now:0 job with
  | Ok (_, outcome) ->
      Alcotest.(check bool) "root rejects (no cpu1)" false
        outcome.Admission.admitted
  | Error e -> Alcotest.failf "admit: %s" e

(* Regression: subdivision must thread the parent's cost model into the
   child controller — a default model there silently changes admission
   decisions inside the slice. *)
let test_pool_subdivide_inherits_cost_model () =
  let cheap = Cost_model.uniform 1 in
  let capacity = rset [ Term.v 2 (iv 0 10) cpu1 ] in
  let tree = Pool.root ~cost_model:cheap ~name:"root" capacity in
  let tree =
    Result.get_ok
      (Pool.subdivide tree ~parent:"root" ~name:"child"
         ~slice:(rset [ Term.v 1 (iv 0 10) cpu1 ]))
  in
  let child = Option.get (Pool.find tree "child") in
  Alcotest.(check bool) "child inherits cost model" true
    (Admission.cost_model child.Pool.controller = cheap);
  (* Behavioural check: evaluate(3) is 3 cpu under the cheap model but 24
     under the default, which the 10-quantity slice cannot carry. *)
  let job = one_actor_job ~id:"j" ~deadline:10 ~home:l1 [ Action.evaluate 3 ] in
  match Pool.admit tree ~pool:"child" ~now:0 job with
  | Ok (_, outcome) ->
      Alcotest.(check bool) "admitted under parent's model" true
        outcome.Admission.admitted
  | Error e -> Alcotest.failf "admit: %s" e

let test_pool_subdivide_errors () =
  let tree = Pool.root ~name:"root" (rset [ Term.v 1 (iv 0 10) cpu1 ]) in
  (match
     Pool.subdivide tree ~parent:"nope" ~name:"x"
       ~slice:(rset [ Term.v 1 (iv 0 10) cpu1 ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown parent accepted");
  (match
     Pool.subdivide tree ~parent:"root" ~name:"root"
       ~slice:(rset [ Term.v 1 (iv 0 10) cpu1 ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate name accepted");
  match
    Pool.subdivide tree ~parent:"root" ~name:"x"
      ~slice:(rset [ Term.v 2 (iv 0 10) cpu1 ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overdraw accepted"

let test_pool_assimilate () =
  let capacity = rset [ Term.v 2 (iv 0 20) cpu1 ] in
  let tree = Pool.root ~name:"root" capacity in
  let tree =
    Result.get_ok
      (Pool.subdivide tree ~parent:"root" ~name:"org1"
         ~slice:(rset [ Term.v 1 (iv 0 20) cpu1 ]))
  in
  (* Commit a job inside the child, then assimilate. *)
  let job = one_actor_job ~id:"j" ~deadline:20 ~home:l1 [ Action.evaluate 1 ] in
  let tree, outcome =
    Result.get_ok (Pool.admit tree ~pool:"org1" ~now:0 job)
  in
  Alcotest.(check bool) "admitted in child" true outcome.Admission.admitted;
  let tree = Result.get_ok (Pool.assimilate tree ~child:"org1") in
  Alcotest.(check (list string)) "child gone" [ "root" ] (Pool.names tree);
  let root = Option.get (Pool.find tree "root") in
  (* Full capacity returned; the job's 8-unit reservation carried over. *)
  Alcotest.(check bool) "capacity restored" true
    (Resource_set.equal (Pool.capacity root) capacity);
  Alcotest.(check int) "reservation survives" 32
    (Resource_set.integrate (Pool.residual root) cpu1 (iv 0 20));
  (* Errors. *)
  (match Pool.assimilate tree ~child:"root" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "assimilating root accepted");
  match Pool.assimilate tree ~child:"ghost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown child accepted"

let test_pool_assimilate_non_leaf () =
  let tree = Pool.root ~name:"root" (rset [ Term.v 3 (iv 0 10) cpu1 ]) in
  let tree =
    Result.get_ok
      (Pool.subdivide tree ~parent:"root" ~name:"mid"
         ~slice:(rset [ Term.v 2 (iv 0 10) cpu1 ]))
  in
  let tree =
    Result.get_ok
      (Pool.subdivide tree ~parent:"mid" ~name:"leaf"
         ~slice:(rset [ Term.v 1 (iv 0 10) cpu1 ]))
  in
  (match Pool.assimilate tree ~child:"mid" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-leaf assimilation accepted");
  (* Leaf first, then mid. *)
  let tree = Result.get_ok (Pool.assimilate tree ~child:"leaf") in
  let tree = Result.get_ok (Pool.assimilate tree ~child:"mid") in
  Alcotest.(check (list string)) "flat again" [ "root" ] (Pool.names tree);
  Alcotest.(check int) "all capacity home" 30
    (Resource_set.integrate (Pool.residual (Option.get (Pool.find tree "root"))) cpu1 (iv 0 10))

(* --- Planner ------------------------------------------------------------------- *)

let test_planner_strategies () =
  let strategies = Planner.strategies ~home:l1 ~sites:[ l1; l2; l3 ] in
  Alcotest.(check int) "stay + 2x2 away" 5 (List.length strategies);
  let only_home = Planner.strategies ~home:l1 ~sites:[ l1 ] in
  Alcotest.(check int) "home only" 1 (List.length only_home)

let test_planner_prefers_migration () =
  (* Home is a trickle; remote is fast: the round trip wins. *)
  let window = iv 0 30 in
  let theta =
    rset
      [
        Term.v 1 window cpu1;
        Term.v 2 window cpu2;
        Term.v 3 window (Located_type.network ~src:l1 ~dst:l2);
        Term.v 3 window (Located_type.network ~src:l2 ~dst:l1);
      ]
  in
  let work = [ Action.evaluate 2; Action.evaluate 2; Action.ready ] in
  match
    Planner.best theta ~window ~name:a_name ~home:l1 ~sites:[ l2 ] ~work
  with
  | None -> Alcotest.fail "some plan should fit"
  | Some v ->
      (match v.Planner.strategy with
      | Planner.Relocate site | Planner.Round_trip site ->
          Alcotest.(check bool) "migrates to l2" true (Location.equal site l2)
      | Planner.Stay -> Alcotest.fail "stay cannot fit 33 cpu in 30 ticks");
      Alcotest.(check bool) "finishes inside window" true
        (v.Planner.finish <= 30)

let test_planner_prefers_stay_when_cheap () =
  (* Plenty of cpu at home: staying avoids migration overhead. *)
  let window = iv 0 30 in
  let theta =
    rset
      [
        Term.v 4 window cpu1;
        Term.v 4 window cpu2;
        Term.v 4 window (Located_type.network ~src:l1 ~dst:l2);
        Term.v 4 window (Located_type.network ~src:l2 ~dst:l1);
      ]
  in
  let work = [ Action.evaluate 1; Action.ready ] in
  match
    Planner.best theta ~window ~name:a_name ~home:l1 ~sites:[ l2 ] ~work
  with
  | Some { Planner.strategy = Planner.Stay; _ } -> ()
  | Some v ->
      Alcotest.failf "expected stay, got %s"
        (Format.asprintf "%a" Planner.pp_strategy v.Planner.strategy)
  | None -> Alcotest.fail "stay should fit"

(* Planning against a live controller: only the residual is offered,
   priced with the controller's own cost model. *)
let test_planner_on_controller () =
  let window = iv 0 30 in
  let cheap = Cost_model.uniform 1 in
  let ctrl =
    Admission.create ~cost_model:cheap Admission.Rota
      (rset [ Term.v 2 window cpu1 ])
  in
  let ctrl =
    Result.get_ok
      (Admission.adopt ctrl
         {
           Calendar.computation = "tenant";
           window;
           reservation = rset [ Term.v 1 window cpu1 ];
           schedules = [];
         })
  in
  let work = [ Action.evaluate 2 ] in
  match Planner.best_on ctrl ~window ~name:a_name ~home:l1 ~sites:[] ~work with
  | None -> Alcotest.fail "stay should fit on the residual"
  | Some v ->
      (* 2 cpu (cheap model) at the residual's rate 1: finishes at 2.  A
         planner reading full capacity would finish at 1; one using the
         default cost model would need 16 cpu and finish at 16. *)
      Alcotest.(check int) "residual rate and controller cost model" 2
        v.Planner.finish

let test_planner_all_infeasible () =
  let window = iv 0 3 in
  let theta = rset [ Term.v 1 window cpu1 ] in
  let work = [ Action.evaluate 3 ] in
  Alcotest.(check bool) "no plan" true
    (Planner.best theta ~window ~name:a_name ~home:l1 ~sites:[ l2 ] ~work
    = None)

let test_planner_verdicts_sorted () =
  let window = iv 0 60 in
  let theta =
    rset
      [
        Term.v 2 window cpu1;
        Term.v 2 window cpu2;
        Term.v 3 window (Located_type.network ~src:l1 ~dst:l2);
        Term.v 3 window (Located_type.network ~src:l2 ~dst:l1);
      ]
  in
  let work = [ Action.evaluate 2; Action.ready ] in
  let verdicts =
    Planner.evaluate theta ~window ~name:a_name ~home:l1 ~sites:[ l2 ] ~work
  in
  Alcotest.(check bool) "several feasible" true (List.length verdicts >= 2);
  let finishes = List.map (fun v -> v.Planner.finish) verdicts in
  Alcotest.(check (list int)) "sorted by finish"
    (List.sort compare finishes) finishes;
  (* Every verdict's schedule certifies against its own requirement. *)
  List.iter
    (fun v ->
      let req =
        Rota_actor.Program.to_complex Rota_actor.Cost_model.default
          ~locate:(fun _ -> None)
          ~window v.Planner.program
      in
      match Accommodation.check_schedule theta req v.Planner.schedule with
      | Ok () -> ()
      | Error e -> Alcotest.failf "certificate rejected: %s" e)
    verdicts

(* Pool capacity is conserved under random subdivide/assimilate storms. *)
let prop_pool_conservation =
  QCheck.Test.make ~name:"pool capacity conserved" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let prng = Rota_workload.Prng.create seed in
      let capacity = rset [ Term.v 8 (iv 0 40) cpu1; Term.v 8 (iv 0 40) cpu2 ] in
      let tree = ref (Pool.root ~name:"root" capacity) in
      let created = ref [ "root" ] in
      for i = 0 to 9 do
        if Rota_workload.Prng.bool prng then begin
          (* Try a subdivide from a random existing pool. *)
          let parent = Rota_workload.Prng.choose prng !created in
          let name = Printf.sprintf "p%d" i in
          let slice =
            rset [ Term.v 1 (iv 0 40) (if Rota_workload.Prng.bool prng then cpu1 else cpu2) ]
          in
          match Pool.subdivide !tree ~parent ~name ~slice with
          | Ok t ->
              tree := t;
              created := name :: !created
          | Error _ -> ()
        end
        else begin
          (* Try to assimilate a random non-root pool. *)
          match List.filter (fun n -> n <> "root") !created with
          | [] -> ()
          | children -> (
              let child = Rota_workload.Prng.choose prng children in
              match Pool.assimilate !tree ~child with
              | Ok t ->
                  tree := t;
                  created := List.filter (fun n -> n <> child) !created
              | Error _ -> ())
        end
      done;
      Resource_set.equal (Pool.total_capacity !tree) capacity)

(* Random sessions compile to well-formed dependency graphs: scheduling
   either succeeds or reports Infeasible/Cycle — never malformed nodes. *)
let prop_session_nodes_well_formed =
  QCheck.Test.make ~name:"session nodes are well-formed" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let prng = Rota_workload.Prng.create seed in
      let world = Rota_workload.Gen.world ~locations:2 () in
      let session =
        Rota_workload.Gen.random_session prng world ~id:"s" ~start:0
          ~participants:(2, 3) ~exchanges:(1, 4) ~slack:2.0 ~rate_hint:2
      in
      let nodes = Session.to_nodes Rota_actor.Cost_model.default session in
      let theta =
        rset
          [ Term.v 2 (iv 0 session.Session.deadline) cpu1 ]
      in
      match Precedence.schedule theta nodes with
      | Ok _ | Error (Precedence.Infeasible _) | Error (Precedence.Cycle _) ->
          true
      | Error (Precedence.Duplicate_node _)
      | Error (Precedence.Unknown_dependency _) ->
          false)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_precedence_respects_deps;
      prop_pool_conservation;
      prop_session_nodes_well_formed;
    ]

let () =
  Alcotest.run "rota_extensions"
    [
      ( "precedence",
        [
          Alcotest.test_case "chain" `Quick test_precedence_chain;
          Alcotest.test_case "diamond" `Quick test_precedence_diamond;
          Alcotest.test_case "errors" `Quick test_precedence_errors;
          Alcotest.test_case "sync node" `Quick test_precedence_sync_node;
        ] );
      ( "session",
        [
          Alcotest.test_case "validation" `Quick test_session_validation;
          Alcotest.test_case "compilation to nodes" `Quick test_session_nodes;
          Alcotest.test_case "meets deadline" `Quick test_session_meets_deadline;
          Alcotest.test_case "deadlock detection" `Quick test_session_deadlock;
        ] );
      ( "pool",
        [
          Alcotest.test_case "subdivide/isolation" `Quick
            test_pool_subdivide_and_isolation;
          Alcotest.test_case "subdivide errors" `Quick test_pool_subdivide_errors;
          Alcotest.test_case "subdivide inherits cost model" `Quick
            test_pool_subdivide_inherits_cost_model;
          Alcotest.test_case "assimilate" `Quick test_pool_assimilate;
          Alcotest.test_case "assimilate non-leaf" `Quick
            test_pool_assimilate_non_leaf;
        ] );
      ( "planner",
        [
          Alcotest.test_case "strategies" `Quick test_planner_strategies;
          Alcotest.test_case "prefers migration" `Quick
            test_planner_prefers_migration;
          Alcotest.test_case "prefers stay" `Quick
            test_planner_prefers_stay_when_cheap;
          Alcotest.test_case "all infeasible" `Quick test_planner_all_infeasible;
          Alcotest.test_case "plans on controller residual" `Quick
            test_planner_on_controller;
          Alcotest.test_case "verdicts sorted + certified" `Quick
            test_planner_verdicts_sorted;
        ] );
      ("properties", properties);
    ]

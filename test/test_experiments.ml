(* Integration smoke tests: every experiment of the suite runs to
   completion (their tables go to the captured test log), and the engine's
   record stream, observed through a tracer sink, tells a consistent
   story. *)

open Rota_interval
open Rota_resource
open Rota_actor
open Rota_scheduler
open Rota_sim
module Events = Rota_obs.Events

(* Run the engine with a collecting sink installed; the records it
   delivered, in emission order. *)
let observe run =
  let seen = ref [] in
  Rota_obs.Tracer.install
    (Rota_obs.Sink.make ~emit:(fun e -> seen := e :: !seen) ~close:ignore);
  let r = Fun.protect ~finally:Rota_obs.Tracer.uninstall run in
  (r, List.rev !seen)

let test_experiment id () =
  match Rota_experiments.Experiments.run ~seed:123 id with
  | Ok () -> ()
  | Error e -> Alcotest.failf "experiment %s failed: %s" id e

let test_unknown_experiment () =
  match Rota_experiments.Experiments.run "e99" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown id accepted"

let test_descriptions () =
  List.iter
    (fun id ->
      match Rota_experiments.Experiments.description id with
      | Some d -> Alcotest.(check bool) (id ^ " described") true (String.length d > 0)
      | None -> Alcotest.failf "no description for %s" id)
    Rota_experiments.Experiments.all_ids;
  Alcotest.(check int) "eleven experiments" 11
    (List.length Rota_experiments.Experiments.all_ids)

(* --- Engine record stream ---------------------------------------------------- *)

let test_engine_observer () =
  let l1 = Location.make "l1" in
  let cpu1 = Located_type.cpu l1 in
  let job ~id ~deadline =
    Computation.make ~id ~start:0 ~deadline
      [ Program.make ~name:(Actor_name.make (id ^ ".a")) ~home:l1
          [ Action.evaluate 1; Action.ready ] ]
  in
  let trace =
    Trace.of_events
      [
        (0, Trace.Join (Resource_set.of_terms [ Term.v 1 (Interval.of_pair 0 20) cpu1 ]));
        (0, Trace.Arrive (job ~id:"fits" ~deadline:12));
        (0, Trace.Arrive (job ~id:"nope" ~deadline:12));
      ]
  in
  let r, events =
    observe (fun () -> Engine.run ~policy:Admission.Rota trace)
  in
  Alcotest.(check int) "report matches story" 1 r.Engine.completed_on_time;
  let count pred =
    List.length (List.filter (fun (e : Events.t) -> pred e.Events.payload) events)
  in
  Alcotest.(check int) "one join" 1
    (count (function Events.Capacity_joined _ -> true | _ -> false));
  Alcotest.(check int) "one admit" 1
    (count (function Events.Decision { action = "admit"; _ } -> true | _ -> false));
  Alcotest.(check int) "one reject" 1
    (count (function Events.Decision { action = "reject"; _ } -> true | _ -> false));
  Alcotest.(check int) "one completion" 1
    (count (function Events.Completed _ -> true | _ -> false));
  Alcotest.(check int) "no kills" 0
    (count (function Events.Killed _ -> true | _ -> false));
  (* Records carry simulated time, in order (spans are stamped with their
     opening time, at exit), and are printable. *)
  let times =
    List.filter_map
      (fun (e : Events.t) ->
        match e.Events.payload with Events.Span _ -> None | _ -> e.Events.sim)
      events
  in
  Alcotest.(check (list int)) "time ordered" (List.sort compare times) times;
  List.iter
    (fun (e : Events.t) ->
      Alcotest.(check bool) "printable" true
        (String.length
           (Format.asprintf "%a" (Events.pp_payload ~sim:e.Events.sim)
              e.Events.payload)
        > 0))
    events

let test_engine_observer_kill () =
  let l1 = Location.make "l1" in
  let cpu1 = Located_type.cpu l1 in
  let job =
    Computation.make ~id:"doomed" ~start:0 ~deadline:5
      [ Program.make ~name:(Actor_name.make "a") ~home:l1 [ Action.evaluate 3 ] ]
  in
  let trace =
    Trace.of_events
      [
        (0, Trace.Join (Resource_set.of_terms [ Term.v 1 (Interval.of_pair 0 10) cpu1 ]));
        (0, Trace.Arrive job);
      ]
  in
  let _, events =
    observe (fun () -> Engine.run ~policy:Admission.Optimistic trace)
  in
  let kills =
    List.filter_map
      (fun (e : Events.t) ->
        match e.Events.payload with
        | Events.Killed { owed; _ } -> Some (e.Events.sim, owed)
        | _ -> None)
      events
  in
  match kills with
  | [ (at, owed) ] ->
      (* 24 cpu demanded, 5 consumed by the deadline: 19 owed. *)
      Alcotest.(check (option int)) "killed at the deadline" (Some 5) at;
      Alcotest.(check int) "owed" 19 owed
  | other -> Alcotest.failf "expected one kill, got %d" (List.length other)

let () =
  Alcotest.run "rota_experiments"
    [
      ( "experiments",
        List.map
          (fun id -> Alcotest.test_case id `Slow (test_experiment id))
          Rota_experiments.Experiments.all_ids
        @ [
            Alcotest.test_case "unknown id" `Quick test_unknown_experiment;
            Alcotest.test_case "descriptions" `Quick test_descriptions;
          ] );
      ( "observer",
        [
          Alcotest.test_case "event story" `Quick test_engine_observer;
          Alcotest.test_case "kill event" `Quick test_engine_observer_kill;
        ] );
    ]

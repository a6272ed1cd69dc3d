open Import

(* The traced run's own spans, kept in memory: one record per call the
   benchmark wraps, with its parent, so a layer's self time is its
   duration minus the part its child spans cover.  Aggregated once the
   replay ends. *)

type span = {
  name : string;
  parent : int;  (** Index of the enclosing span, [-1] at top level. *)
  start_ns : int64;
  mutable stop_ns : int64;
}

let spans : span list ref = ref []
let count = ref 0
let stack : int list ref = ref []

let reset () =
  spans := [];
  count := 0;
  stack := []

let with_ name f =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let id = !count in
  incr count;
  let s = { name; parent; start_ns = now_ns (); stop_ns = 0L } in
  spans := s :: !spans;
  stack := id :: !stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop_ns <- now_ns ();
      stack := List.tl !stack)
    f

type total = { calls : int; self_us : float }

(* Per span name: calls and summed self time. *)
let totals () =
  let all = Array.of_list (List.rev !spans) in
  let dur s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e3 in
  let child = Array.make (Array.length all) 0. in
  Array.iter (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur s) all;
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let c = Option.value (Hashtbl.find_opt tbl s.name) ~default:{ calls = 0; self_us = 0. } in
      Hashtbl.replace tbl s.name { calls = c.calls + 1; self_us = c.self_us +. dur s -. child.(i) })
    all;
  tbl

let mean_us tbl name =
  match Hashtbl.find_opt tbl name with
  | Some { calls; self_us } when calls > 0 -> self_us /. float calls
  | _ -> 0.

let total_us tbl name =
  match Hashtbl.find_opt tbl name with Some t -> t.self_us | None -> 0.

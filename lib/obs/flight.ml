type t = {
  capacity : int;
  ring : string option array;  (* encoded records, one per slot *)
  mutable head : int;  (* next slot to write *)
  mutable count : int;
  mutable seq : int;  (* ring-local restamped sequence *)
  scratch : Buffer.t;
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity";
  {
    capacity;
    ring = Array.make capacity None;
    head = 0;
    count = 0;
    seq = 0;
    scratch = Buffer.create 256;
  }

let record t ev =
  t.seq <- t.seq + 1;
  Buffer.clear t.scratch;
  Binary.encode t.scratch { ev with Events.seq = t.seq };
  t.ring.(t.head) <- Some (Buffer.contents t.scratch);
  t.head <- (t.head + 1) mod t.capacity;
  if t.count < t.capacity then t.count <- t.count + 1

let recorded t = t.count

let sink t = { Sink.emit = (fun ev -> record t ev); close = (fun () -> ()) }

let events t =
  (* Oldest first: with a full ring the oldest slot is [head]. *)
  let start = (t.head - t.count + t.capacity) mod t.capacity in
  let out = ref [] in
  for i = t.count - 1 downto 0 do
    match t.ring.((start + i) mod t.capacity) with
    | None -> ()
    | Some s -> (
        match Binary.decode_string s ~pos:0 with
        | Ok (ev, _) -> out := ev :: !out
        | Error _ -> ())
  done;
  !out

let repair evs =
  (* Make the retained suffix self-consistent: a span that ran backwards
     becomes instantaneous; a span whose parent was evicted, or whose
     interval escapes its parent's, becomes a root; and a run whose
     earlier records are gone may open on a later simulated time than a
     surviving straggler — clamp sim forward so per-run monotonicity
     holds again. *)
  let evs =
    List.map
      (fun ev ->
        match ev.Events.payload with
        | Events.Span s when s.duration_s < 0. ->
            { ev with Events.payload = Events.Span { s with duration_s = 0. } }
        | _ -> ev)
      evs
  in
  let spans = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev.Events.payload with
      | Events.Span { id; begin_s; duration_s; _ } when id <> 0 ->
          Hashtbl.replace spans id (begin_s, begin_s +. duration_s)
      | _ -> ())
    evs;
  let nested ~parent begin_s duration_s =
    match Hashtbl.find_opt spans parent with
    | Some interval -> Events.span_within (begin_s, begin_s +. duration_s) interval
    | None -> false
  in
  let run_max : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.map
    (fun ev ->
      let ev =
        match ev.Events.payload with
        | Events.Span ({ parent = Some p; begin_s; duration_s; _ } as s)
          when not (nested ~parent:p begin_s duration_s) ->
            { ev with Events.payload = Events.Span { s with parent = None } }
        | _ -> ev
      in
      match (ev.Events.payload, ev.Events.sim) with
      | Events.Span _, _ | _, None -> ev
      | _, Some sim ->
          let floor_sim =
            Option.value ~default:min_int
              (Hashtbl.find_opt run_max ev.Events.run)
          in
          let sim = max sim floor_sim in
          Hashtbl.replace run_max ev.Events.run sim;
          { ev with Events.sim = Some sim })
    evs

let dump t path =
  let evs = repair (events t) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf Binary.header;
  List.iter (Binary.encode buf) evs;
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> Buffer.output_buffer oc buf);
    Sys.rename tmp path
  with
  | () -> Ok (List.length evs)
  | exception Sys_error msg -> Error msg

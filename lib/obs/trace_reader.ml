type error = { line : int; message : string }

let pp_error ppf e =
  if e.line = 0 then Format.pp_print_string ppf e.message
  else Format.fprintf ppf "line %d: %s" e.line e.message

type tail = Complete | Truncated of { line : int; bytes : int }

let pp_tail ppf = function
  | Complete -> Format.pp_print_string ppf "complete"
  | Truncated { line; bytes } ->
      Format.fprintf ppf "truncated final line %d (%d bytes)" line bytes

(* --- the cursor ------------------------------------------------------------ *)

type format = Jsonl | Rotb

type item = Event of Events.t | End | Cut of int | Malformed of string

let blank =
  String.for_all (function
    | ' ' | '\t' | '\n' | '\r' | '\012' -> true
    | _ -> false)

module Cursor = struct
  type t = {
    ic : in_channel;
    mutable format : format option;
        (* [None] while the bytes on disk are a prefix of the ROTB
           header (or nothing at all): too few to tell the codecs apart *)
    mutable complete : int;  (* complete lines / records consumed *)
    mutable ordinal : int;
    mutable offset : int;
    mutable dangling : int;  (* bytes of the incomplete record at the end *)
    mutable fragment : string;  (* those bytes, unless ROTB *)
  }

  let header_len = String.length Binary.header

  (* Decide the codec from the first bytes on disk.  JSONL events start
     with '{', so any bytes that are not a prefix of the ROTB header
     settle it; a full ROTB header is checked and consumed, so records
     start right after it.  A shorter prefix of the header leaves the
     question open — its bytes are the fragment of a cut first record —
     until a later [next] sees more of the file. *)
  let detect c =
    let len = in_channel_length c.ic in
    seek_in c.ic 0;
    let head = really_input_string c.ic (min len header_len) in
    seek_in c.ic 0;
    if String.length head < header_len
       && String.starts_with ~prefix:head Binary.header
    then Ok (c.fragment <- head)
    else if String.starts_with ~prefix:Binary.magic head then
      Result.map
        (fun () ->
          c.format <- Some Rotb;
          c.offset <- header_len)
        (Binary.read_header c.ic)
    else Ok (c.format <- Some Jsonl)

  (* The end of the bytes on disk, [n] of them an incomplete record. *)
  let stop c n =
    c.ordinal <- c.complete + 1;
    c.dangling <- n;
    if n = 0 then End else Cut n

  let consumed c =
    c.complete <- c.complete + 1;
    c.ordinal <- c.complete;
    c.offset <- pos_in c.ic

  let open_file path =
    match open_in_bin path with
    | exception Sys_error msg -> Error { line = 0; message = msg }
    | ic -> (
        let c =
          {
            ic;
            format = None;
            complete = 0;
            ordinal = 1;
            offset = 0;
            dangling = 0;
            fragment = "";
          }
        in
        match detect c with
        | Ok () ->
            c.dangling <- String.length c.fragment;
            Ok c
        | Error message | (exception Sys_error message) ->
            close_in_noerr ic;
            Error { line = 0; message })

  let close c = close_in_noerr c.ic
  let format c = c.format
  let ordinal c = c.ordinal
  let offset c = c.offset

  (* One crash-cut rule for both codecs: a record is complete once its
     newline, or the last byte its length prefix promises, is on disk.
     An incomplete one rewinds the channel to its first byte, so the
     next call re-reads it whole once the writer finishes it — reading a
     regular file at EOF returns nothing but keeps the position.  A
     fragment is never decoded, so racing the writer cannot misread
     one. *)
  let rec next c =
    let start = pos_in c.ic in
    match c.format with
    | None -> (
        match detect c with
        | Error m ->
            c.ordinal <- 0;
            Malformed m
        | Ok () when c.format = None -> stop c (String.length c.fragment)
        | Ok () -> next c)
    | Some Rotb -> (
        match Binary.read_item c.ic with
        | Binary.Event e ->
            consumed c;
            Event e
        | Binary.Malformed m ->
            consumed c;
            Malformed m
        | Binary.Eof -> stop c 0
        | Binary.Cut n ->
            seek_in c.ic start;
            stop c n)
    | Some Jsonl -> (
        match input_line c.ic with
        | exception End_of_file -> stop c 0
        | line when pos_in c.ic = start + String.length line ->
            (* No newline: [input_line] stopped at the end of the file. *)
            seek_in c.ic start;
            c.fragment <- line;
            stop c (String.length line)
        | line -> (
            consumed c;
            (* Blank lines are tolerated (text editors add trailing ones). *)
            if blank line then next c
            else
              match Events.of_line line with
              | Ok e -> Event e
              | Error m -> Malformed m))

  (* The fragment rule, for a reader that takes the bytes on disk as
     final: a blank fragment ends the file, and a JSONL fragment that
     parses lost only its newline.  Any other fragment stays a cut. *)
  let finish ?strict c =
    if c.dangling = 0 || (c.format <> Some Rotb && blank c.fragment) then End
    else if c.format = Some Rotb then Cut c.dangling
    else
      match Events.of_line ?strict c.fragment with
      | Ok e -> Event e
      | Error _ -> Cut c.dangling
end

let with_cursor path k =
  match Cursor.open_file path with
  | Error _ as e -> e
  | Ok c -> Fun.protect ~finally:(fun () -> Cursor.close c) (fun () -> k c)

let fold_file path ~init ~f =
  with_cursor path @@ fun c ->
  let rec loop acc =
    match Cursor.next c with
    | Event e -> loop (f acc e)
    | End -> Ok (acc, Complete)
    | Malformed message -> Error { line = Cursor.ordinal c; message }
    | Cut bytes -> (
        (* The file ends inside a record: a crash-interrupted write, not
           a malformed trace — everything up to it is still good. *)
        match Cursor.finish c with
        | Event e -> Ok (f acc e, Complete)
        | End -> Ok (acc, Complete)
        | Cut _ | Malformed _ ->
            Ok (acc, Truncated { line = Cursor.ordinal c; bytes }))
  in
  loop init

let read_file path =
  Result.map
    (fun (acc, tail) -> (List.rev acc, tail))
    (fold_file path ~init:[] ~f:(fun acc e -> e :: acc))

(* --- following a growing file ------------------------------------------- *)

module Follow = struct
  let poll c =
    let rec loop acc =
      match Cursor.next c with
      | Event e -> loop (e :: acc)
      | End | Cut _ -> Ok (List.rev acc)
      | Malformed message -> Error { line = Cursor.ordinal c; message }
    in
    loop []

  let pending_bytes c = c.Cursor.dangling
end

(* --- validation --------------------------------------------------------- *)

type validation = { events : int; runs : int; errors : string list }

let valid v = v.errors = []

type vstate = {
  mutable n_events : int;
  mutable n_runs : int;
  mutable last_seq : int option;
  last_sim : (int, int) Hashtbl.t;  (* run -> last non-span sim *)
  spans : (int, float * float) Hashtbl.t;  (* id -> begin, end *)
  mutable parents : (int * int * float * float) list;
      (* (line, parent id, begin, end) to resolve *)
  mutable errs : int;  (* total, including suppressed *)
  mutable messages : string list;  (* newest first, capped *)
}

let validate_file ?(max_errors = 20) path =
  let st =
    {
      n_events = 0;
      n_runs = 0;
      last_seq = None;
      last_sim = Hashtbl.create 8;
      spans = Hashtbl.create 64;
      parents = [];
      errs = 0;
      messages = [];
    }
  in
  let report line fmt =
    Printf.ksprintf
      (fun msg ->
        st.errs <- st.errs + 1;
        if st.errs <= max_errors then
          st.messages <-
            (if line = 0 then msg else Printf.sprintf "line %d: %s" line msg)
            :: st.messages)
      fmt
  in
  let check_event ~roundtrip n (e : Events.t) =
    st.n_events <- st.n_events + 1;
    (match roundtrip e with
    | Ok e' when e' = e -> ()
    | Ok _ -> report n "event does not round-trip through the codec"
    | Error msg -> report n "re-serialized event fails to parse: %s" msg);
    (match st.last_seq with
    | Some prev when e.Events.seq <= prev ->
        report n "seq %d not greater than previous %d" e.Events.seq prev
    | Some _ | None -> ());
    st.last_seq <- Some e.Events.seq;
    match e.Events.payload with
    | Events.Run_started _ -> st.n_runs <- st.n_runs + 1
    | Events.Span { id; parent; begin_s; duration_s; _ } ->
        if duration_s < 0. then
          report n "span %d has negative duration %g s" id duration_s;
        let stop = begin_s +. duration_s in
        if id <> 0 then begin
          if Hashtbl.mem st.spans id then report n "duplicate span id %d" id
          else Hashtbl.replace st.spans id (begin_s, stop)
        end;
        Option.iter
          (fun p -> st.parents <- (n, p, begin_s, stop) :: st.parents)
          parent
    | _ -> (
        (* Within one run, non-span simulated times are nondecreasing. *)
        match e.Events.sim with
        | None -> ()
        | Some t ->
            (match Hashtbl.find_opt st.last_sim e.Events.run with
            | Some prev when t < prev ->
                report n "run %d: sim time %d after %d" e.Events.run t prev
            | Some _ | None -> ());
            Hashtbl.replace st.last_sim e.Events.run t)
  in
  (match
     with_cursor path @@ fun c ->
     let binary = Cursor.format c = Some Rotb in
     (* Round-trip through whichever codec the file uses: re-serializing
        and re-parsing must reproduce the event exactly (the codec's
        contract). *)
     let roundtrip =
       if binary then Binary.roundtrip
       else fun e -> Events.of_line ~strict:true (Events.to_line e)
     in
     let check_event = check_event ~roundtrip in
     let rec loop () =
       let item = Cursor.next c in
       let n = Cursor.ordinal c in
       match item with
       | End -> ()
       | Event e ->
           (match e.Events.payload with
           | Events.Unknown { kind; _ } when not (Events.legacy_kind kind) ->
               (* Strict parsing rejects an unknown kind.  A JSONL line
                  carrying one is therefore not an event; a binary record
                  arrives pre-parsed, so it is still checked (its tag
                  survives re-encoding, so it round-trips). *)
               report n "unknown event kind %S" kind;
               if binary then check_event n e
           | _ -> check_event n e);
           loop ()
       | Malformed msg ->
           report n "%s" msg;
           (* The next JSONL line is still framed; record framing past a
              malformed binary record cannot be trusted. *)
           if not binary then loop ()
       | Cut bytes -> (
           (* A crash-cut final record keeps the prefix valid but is
              still flagged, unless it is a strictly parseable JSONL
              fragment, which {!fold_file} keeps too. *)
           match Cursor.finish ~strict:true c with
           | Event e -> check_event n e
           | End -> ()
           | Cut _ | Malformed _ ->
               report n "truncated final %s (%d bytes)"
                 (if binary then "record" else "line")
                 bytes)
     in
     Ok (loop ())
   with
  | Ok () -> ()
  | Error e -> report e.line "%s" e.message);
  (* Parent spans are emitted after their children, so resolution runs
     once the whole file has been seen. *)
  List.iter
    (fun (n, p, b, e) ->
      match Hashtbl.find_opt st.spans p with
      | None -> report n "span parent id %d does not resolve" p
      | Some (pb, pe) ->
          if not (Events.span_within (b, e) (pb, pe)) then
            report n "span [%.6f, %.6f] escapes its parent %d [%.6f, %.6f]"
              b e p pb pe)
    (List.rev st.parents);
  let messages = List.rev st.messages in
  let messages =
    if st.errs > max_errors then
      messages
      @ [ Printf.sprintf "... and %d more errors" (st.errs - max_errors) ]
    else messages
  in
  { events = st.n_events; runs = st.n_runs; errors = messages }

type error = { line : int; message : string }

let pp_error ppf e =
  if e.line = 0 then Format.pp_print_string ppf e.message
  else Format.fprintf ppf "line %d: %s" e.line e.message

type tail = Complete | Truncated of { line : int; bytes : int }

let pp_tail ppf = function
  | Complete -> Format.pp_print_string ppf "complete"
  | Truncated { line; bytes } ->
      Format.fprintf ppf "truncated final line %d (%d bytes)" line bytes

(* --- raw line scanning --------------------------------------------------- *)

(* Split [len] fresh bytes of [buf] into lines, feeding each complete
   (newline-terminated) line — with [pending] as its accumulated prefix
   from earlier chunks — to [f]; the unterminated remainder stays in
   [pending] for the next chunk (or the caller's truncation verdict). *)
let feed ~pending ~buf ~len ~f acc line =
  let rec go acc line start =
    if start >= len then Ok (acc, line)
    else
      match Bytes.index_from_opt buf start '\n' with
      | Some i when i < len ->
          Buffer.add_subbytes pending buf start (i - start);
          let l = Buffer.contents pending in
          Buffer.clear pending;
          (match f acc line l with
          | Ok acc -> go acc (line + 1) (i + 1)
          | Error _ as e -> e)
      | _ ->
          Buffer.add_subbytes pending buf start (len - start);
          Ok (acc, line)
  in
  go acc line 0

(* Fold [f] over every newline-terminated line; returns the final
   unterminated line, if any, with its 1-based line number.  [input_line]
   cannot tell a terminated final line from a crash-cut one, so the file
   is scanned in binary chunks instead. *)
let fold_raw path ~init ~f =
  match open_in_bin path with
  | exception Sys_error msg -> Error { line = 0; message = msg }
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let buf = Bytes.create 65536 in
      let pending = Buffer.create 256 in
      let rec loop acc line =
        match input ic buf 0 (Bytes.length buf) with
        | 0 ->
            let rest = Buffer.contents pending in
            Ok (acc, if rest = "" then None else Some (line, rest))
        | len -> (
            match feed ~pending ~buf ~len ~f acc line with
            | Ok (acc, line) -> loop acc line
            | Error _ as e -> e)
      in
      loop init 1

let parse_line ?strict ~f acc n line =
  (* Tolerate blank lines (text editors add trailing ones). *)
  if String.trim line = "" then Ok acc
  else
    match Events.of_line ?strict line with
    | Ok e -> Ok (f acc e)
    | Error message -> Error { line = n; message }

(* --- binary traces -------------------------------------------------------- *)

(* The binary reader mirrors {!fold_file}'s contract with records in
   place of lines: "line" numbers are 1-based record ordinals, a
   crash-cut final record becomes the {!Truncated} tail (everything
   before it still delivered), and a {e complete} record that fails to
   decode is an error.  [strict] keeps its JSONL meaning — reject
   unknown event kinds — which in the binary format arrive pre-parsed
   as {!Events.Unknown} records rather than unrecognized kind strings. *)
let fold_binary ?(strict = false) path ~init ~f =
  match open_in_bin path with
  | exception Sys_error msg -> Error { line = 0; message = msg }
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      match Binary.read_header ic with
      | Error message -> Error { line = 0; message }
      | Ok () ->
          let rec loop acc n =
            match Binary.read_item ic with
            | Binary.Eof -> Ok (acc, Complete)
            | Binary.Cut bytes -> Ok (acc, Truncated { line = n; bytes })
            | Binary.Malformed message -> Error { line = n; message }
            | Binary.Event e -> (
                match e.Events.payload with
                | Events.Unknown { kind; _ } when strict ->
                    Error
                      {
                        line = n;
                        message = Printf.sprintf "unknown event kind %S" kind;
                      }
                | _ -> loop (f acc e) (n + 1))
          in
          loop init 1)

let fold_file ?strict path ~init ~f =
  if Binary.file_is_binary path then fold_binary ?strict path ~init ~f
  else
  match fold_raw path ~init ~f:(parse_line ?strict ~f) with
  | Error _ as e -> e
  | Ok (acc, None) -> Ok (acc, Complete)
  | Ok (acc, Some (n, rest)) -> (
      (* The final line lacks its newline: a crash-interrupted write.
         If the fragment happens to parse it lost nothing; otherwise
         report the cut as data, not as a malformed trace — everything
         up to it is still good.  A *terminated* malformed line, final
         or not, stays an error (the writer finished it that way). *)
      if String.trim rest = "" then Ok (acc, Complete)
      else
        match Events.of_line ?strict rest with
        | Ok e -> Ok (f acc e, Complete)
        | Error _ ->
            Ok (acc, Truncated { line = n; bytes = String.length rest }))

let read_file ?strict path =
  Result.map
    (fun (acc, tail) -> (List.rev acc, tail))
    (fold_file ?strict path ~init:[] ~f:(fun acc e -> e :: acc))

(* --- following a growing file ------------------------------------------- *)

module Follow = struct
  (* Which codec the growing file speaks.  [Undetected] covers a file
     still shorter than the binary header: the bytes on disk so far are
     a prefix of {!Binary.header} (or nothing at all), so the format is
     decided on a later poll, once enough bytes land to tell a ROTB
     header from a JSONL line. *)
  type format_mode = Undetected | Jsonl | Binary_records

  type cursor = {
    ic : in_channel;
    buf : Bytes.t;
    pending : Buffer.t;  (* JSONL: unterminated tail seen so far *)
    mutable line : int;  (* 1-based line / record ordinal being assembled *)
    strict : bool option;
    mutable mode : format_mode;
    mutable dangling : int;  (* binary: bytes of the cut record at EOF *)
  }

  (* Decide the format from the bytes on disk so far.  JSONL events
     always start with '{', so any first bytes that are not a prefix of
     the binary header settle the question immediately; a genuine ROTB
     header is consumed (the record loop starts right after it).  The
     position is left at 0 in every other case. *)
  let detect c =
    let len = in_channel_length c.ic in
    if len = 0 then Ok ()
    else begin
      let header_len = String.length Binary.header in
      let n = min len header_len in
      seek_in c.ic 0;
      let first = really_input_string c.ic n in
      if len >= header_len then
        if String.sub first 0 (String.length Binary.magic) = Binary.magic
        then begin
          seek_in c.ic 0;
          match Binary.read_header c.ic with
          | Ok () ->
              c.mode <- Binary_records;
              Ok ()
          | Error message -> Error { line = 0; message }
        end
        else begin
          seek_in c.ic 0;
          c.mode <- Jsonl;
          Ok ()
        end
      else if String.equal first (String.sub Binary.header 0 n) then begin
        seek_in c.ic 0;
        Ok () (* still ambiguous: wait for the rest of the header *)
      end
      else begin
        seek_in c.ic 0;
        c.mode <- Jsonl;
        Ok ()
      end
    end

  let open_file ?strict path =
    match open_in_bin path with
    | exception Sys_error msg -> Error { line = 0; message = msg }
    | ic -> (
        let c =
          {
            ic;
            buf = Bytes.create 65536;
            pending = Buffer.create 256;
            line = 1;
            strict;
            mode = Undetected;
            dangling = 0;
          }
        in
        match detect c with
        | Ok () -> Ok c
        | Error e ->
            close_in_noerr ic;
            Error e)

  let close c = close_in_noerr c.ic

  (* Reading a regular file at EOF returns 0 bytes but leaves the
     position; once the writer appends more, the next [poll] picks up
     exactly where this one stopped.  A line cut mid-write stays in
     [pending] — it is never parsed until its newline arrives, so a
     poll racing the writer cannot misread a fragment as an event. *)
  let poll_jsonl c =
    let f acc n line =
      parse_line ?strict:c.strict ~f:(fun acc e -> e :: acc) acc n line
    in
    let rec loop acc =
      match input c.ic c.buf 0 (Bytes.length c.buf) with
      | 0 -> Ok (List.rev acc)
      | len -> (
          match feed ~pending:c.pending ~buf:c.buf ~len ~f acc c.line with
          | Ok (acc, line) ->
              c.line <- line;
              loop acc
          | Error _ as e -> e)
    in
    loop []

  (* The binary analogue of the pending-line buffer is a seek: a record
     cut mid-write ({!Binary.Cut}) rewinds the channel to the record's
     first byte, so the next poll re-reads it whole once the writer
     finishes it.  Only complete records are ever delivered — the
     length prefix makes "complete" unambiguous, so racing the writer
     cannot misread a fragment. *)
  let poll_binary c =
    let rec loop acc =
      let start = pos_in c.ic in
      match Binary.read_item c.ic with
      | Binary.Eof ->
          c.dangling <- 0;
          Ok (List.rev acc)
      | Binary.Cut bytes ->
          seek_in c.ic start;
          c.dangling <- bytes;
          Ok (List.rev acc)
      | Binary.Malformed message -> Error { line = c.line; message }
      | Binary.Event e -> (
          match e.Events.payload with
          | Events.Unknown { kind; _ } when c.strict = Some true ->
              Error
                {
                  line = c.line;
                  message = Printf.sprintf "unknown event kind %S" kind;
                }
          | _ ->
              c.line <- c.line + 1;
              loop (e :: acc))
    in
    loop []

  let rec poll c =
    match c.mode with
    | Jsonl -> poll_jsonl c
    | Binary_records -> poll_binary c
    | Undetected -> (
        match detect c with
        | Error _ as e -> e
        | Ok () -> if c.mode = Undetected then Ok [] else poll c)

  let pending_bytes c =
    match c.mode with
    | Jsonl -> Buffer.length c.pending
    | Binary_records -> c.dangling
    | Undetected -> in_channel_length c.ic
end

(* --- validation --------------------------------------------------------- *)

type validation = { events : int; runs : int; errors : string list }

let valid v = v.errors = []

type vstate = {
  mutable n_events : int;
  mutable n_runs : int;
  mutable last_seq : int option;
  last_sim : (int, int) Hashtbl.t;  (* run -> last non-span sim *)
  span_ids : (int, unit) Hashtbl.t;
  mutable parents : (int * int) list;  (* (line, parent id) to resolve *)
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
      span_ids = Hashtbl.create 64;
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
  let is_binary = Binary.file_is_binary path in
  (* Round-trip through whichever codec the file uses: re-serializing
     and re-parsing must reproduce the event exactly (the codec's
     contract). *)
  let roundtrip =
    if is_binary then Binary.roundtrip
    else fun e -> Events.of_line ~strict:true (Events.to_line e)
  in
  let check_event n (e : Events.t) =
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
    | Events.Span { id; parent; _ } ->
        if id <> 0 then begin
          if Hashtbl.mem st.span_ids id then
            report n "duplicate span id %d" id
          else Hashtbl.replace st.span_ids id ()
        end;
        Option.iter (fun p -> st.parents <- (n, p) :: st.parents) parent
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
  let check acc n line =
    (if String.trim line <> "" then
       match Events.of_line ~strict:true line with
       | Ok e -> check_event n e
       | Error msg -> report n "%s" msg);
    Ok acc
  in
  (if is_binary then (
     (* Unknown kinds surface as pre-parsed {!Events.Unknown} records
        (the tag survives re-encoding, so they round-trip); they are
        flagged like an unknown kind string in strict JSONL parsing.
        A malformed complete record is corruption — record framing past
        it cannot be trusted, so scanning stops there. *)
     match open_in_bin path with
     | exception Sys_error msg -> report 0 "%s" msg
     | ic ->
         Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
         (match Binary.read_header ic with
         | Error msg -> report 0 "%s" msg
         | Ok () ->
             let rec loop n =
               match Binary.read_item ic with
               | Binary.Eof -> ()
               | Binary.Cut bytes ->
                   report n "truncated final record (%d bytes)" bytes
               | Binary.Malformed msg -> report n "%s" msg
               | Binary.Event e ->
                   (match e.Events.payload with
                   | Events.Unknown { kind; _ } when not (Events.legacy_kind kind) ->
                       report n "unknown event kind %S" kind
                   | _ -> ());
                   check_event n e;
                   loop (n + 1)
             in
             loop 1))
   else
     match fold_raw path ~init:() ~f:check with
     | Ok ((), None) -> ()
     | Ok ((), Some (n, rest)) ->
         (* Validation is a contract check: a crash-cut final line keeps
            the prefix valid but is still flagged, mirroring
            {!fold_file}'s parseable-fragment tolerance. *)
         if String.trim rest <> "" then (
           match Events.of_line ~strict:true rest with
           | Ok e -> check_event n e
           | Error _ ->
               report n "truncated final line (%d bytes)" (String.length rest))
     | Error e -> report e.line "%s" e.message);
  (* Parent spans are emitted after their children, so resolution runs
     once the whole file has been seen. *)
  List.iter
    (fun (n, p) ->
      if not (Hashtbl.mem st.span_ids p) then
        report n "span parent id %d does not resolve" p)
    (List.rev st.parents);
  let messages = List.rev st.messages in
  let messages =
    if st.errs > max_errors then
      messages
      @ [ Printf.sprintf "... and %d more errors" (st.errs - max_errors) ]
    else messages
  in
  { events = st.n_events; runs = st.n_runs; errors = messages }

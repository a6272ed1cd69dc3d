open Import

let wal_path ~dir = Filename.concat dir "wal.rotb"
let snapshot_path ~dir = Filename.concat dir "snapshot.json"

(* --- writer ---------------------------------------------------------------- *)

type writer = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable last_seq : int;
  mutable durable : int;
}

let seq w = w.last_seq
let offset w = w.durable
let buffered w = Buffer.length w.buf

let append w ~sim payloads =
  let wall_s = Clock.wall_s () in
  List.map
    (fun payload ->
      w.last_seq <- w.last_seq + 1;
      let e =
        { Events.seq = w.last_seq; run = 1; sim = Some sim; wall_s; payload }
      in
      Binary.encode w.buf e;
      e)
    payloads

let write_all fd s =
  let len = String.length s in
  let rec go pos =
    if pos < len then
      let n = Unix.write_substring fd s pos (len - pos) in
      go (pos + n)
  in
  go 0

let sync w =
  if Buffer.length w.buf > 0 then begin
    let s = Buffer.contents w.buf in
    Buffer.clear w.buf;
    write_all w.fd s;
    Unix.fsync w.fd;
    w.durable <- w.durable + String.length s
  end

let close w =
  sync w;
  Unix.close w.fd

let fresh_writer ~path ~label =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let w = { fd; buf = Buffer.create 4096; last_seq = 0; durable = 0 } in
  Buffer.add_string w.buf Binary.header;
  let events = append w ~sim:0 [ Events.Run_started { label } ] in
  sync w;
  (w, events)

(* Reopen after a scan: cut the file back to the last complete record
   (an interrupted append was never acknowledged, so dropping it loses
   nothing a client was told) and continue the sequence numbering. *)
let reopen_writer ~path ~at ~last_seq =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd at;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  { fd; buf = Buffer.create 4096; last_seq; durable = at }

(* --- snapshots ------------------------------------------------------------- *)

let snapshot_format = "rota-serve-snapshot-1"

let ( let* ) = Result.bind

let jfield name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "snapshot: missing field %S" name)

let save_snapshot ~path w replica =
  let json =
    Json.Obj
      [
        ("format", Json.String snapshot_format);
        ("seq", Json.Int w.last_seq);
        ("wal_offset", Json.Int w.durable);
        ("replica", Replica.snapshot replica);
      ]
  in
  let tmp = path ^ ".tmp" in
  match
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        write_all fd (Json.to_string json);
        Unix.fsync fd);
    Unix.rename tmp path
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "snapshot %s: %s" path (Unix.error_message e))

let read_snapshot path =
  let* contents =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Ok s
    | exception Sys_error m -> Error m
  in
  let* json = Json.parse contents in
  let* fmt = Result.bind (jfield "format" json) Json.to_str in
  if not (String.equal fmt snapshot_format) then
    Error (Printf.sprintf "snapshot: unknown format %S" fmt)
  else
    let* snap_seq = Result.bind (jfield "seq" json) Json.to_int in
    Ok (json, snap_seq)

(* --- recovery -------------------------------------------------------------- *)

type recovery = {
  replica : Replica.t;
  writer : writer;
  from_snapshot : bool;
  scanned : int;
  replayed : int;
  truncated : int;
  verified : int;
  diverged : int;
  digest : string;
  live : Live.t;
}

type scanned = Recovered of recovery | Empty of int

(* One pass over the whole WAL: every record feeds the independent
   auditor (the stream is the proof of what recovery must produce),
   records past [base_seq] also replay into the replica.  On agreement
   the writer reopens at the last complete record, cutting an
   interrupted tail, and the auditor is handed on with the replica.  A
   WAL with no complete record is [Empty], with its dangling bytes. *)
let scan ~wal ~label ~replica ~base_seq ~from_snapshot =
  let* c =
    Result.map_error
      (fun e -> e.Trace_reader.message)
      (Trace_reader.Cursor.open_file wal)
  in
  Fun.protect
    ~finally:(fun () -> Trace_reader.Cursor.close c)
    (fun () ->
      let* () =
        match Trace_reader.Cursor.format c with
        | Some Trace_reader.Jsonl -> Error "missing ROTB magic"
        | Some Trace_reader.Rotb | None -> Ok ()
      in
      let live = Live.create () in
      let verified = ref 0 and diverged = ref 0 in
      let rec loop last_seq scanned replayed =
        match Trace_reader.Cursor.next c with
        | Trace_reader.Event e -> (
            let* () =
              match e.Events.payload with
              | Events.Run_started { label = l } when not (String.equal l label)
                ->
                  Error
                    (Printf.sprintf "wal belongs to run %S, expected %S" l label)
              | _ -> Ok ()
            in
            (match Live.step live e with
            | Some o -> (
                match o.Live.verdict with
                | Live.Verified -> incr verified
                | Live.Diverged _ -> incr diverged
                | Live.Skipped _ -> ())
            | None -> ());
            let* replayed =
              if e.Events.seq > base_seq then
                match Replica.replay replica e with
                | Ok () -> Ok (replayed + 1)
                | Error m ->
                    Error (Printf.sprintf "wal record %d: %s" e.Events.seq m)
              else Ok replayed
            in
            loop (max last_seq e.Events.seq) (scanned + 1) replayed)
        | Trace_reader.End -> Ok (last_seq, scanned, replayed, 0)
        | Trace_reader.Cut n -> Ok (last_seq, scanned, replayed, n)
        | Trace_reader.Malformed m ->
            Error (Printf.sprintf "wal corrupt after record %d: %s" scanned m)
      in
      let* last_seq, scanned, replayed, truncated = loop 0 0 0 in
      if scanned = 0 then Ok (Empty truncated)
      else
        let* audited =
          Result.map_error (fun m -> "recovery audit: " ^ m)
            (Live.residual_digest live)
        in
        let mine = Replica.residual_digest replica in
        if not (String.equal mine audited) then
          Error
            (Printf.sprintf
               "recovered residual digest %s disagrees with the audited stream's %s"
               mine audited)
        else
          let at = Trace_reader.Cursor.offset c in
          Ok
            (Recovered
               {
                 replica;
                 writer = reopen_writer ~path:wal ~at ~last_seq;
                 from_snapshot;
                 scanned;
                 replayed;
                 truncated;
                 verified = !verified;
                 diverged = !diverged;
                 digest = mine;
                 live;
               }))

(* A snapshot is saved only after a sync, so one beside a WAL that
   holds no complete record proves acknowledged decisions were lost
   from the log: starting fresh would promise their capacity again. *)
let refuse_fresh ~snapshot =
  let covers =
    match
      let* json, snap_seq = read_snapshot snapshot in
      let* offset = Result.bind (jfield "wal_offset" json) Json.to_int in
      Ok (snap_seq, offset)
    with
    | Ok (snap_seq, offset) ->
        Printf.sprintf "covers seq %d at wal offset %d" snap_seq offset
    | Error m -> Printf.sprintf "exists (unreadable: %s)" m
  in
  Error
    (Printf.sprintf
       "the wal holds no complete record, but %s %s: acknowledged decisions \
        are missing from the wal; refusing to start fresh"
       snapshot covers)

let recover ?cost_model ~dir ~policy () =
  let wal = wal_path ~dir in
  let snapshot = snapshot_path ~dir in
  let label = Replica.run_label policy in
  let fresh ~truncated =
    if Sys.file_exists snapshot then refuse_fresh ~snapshot
    else
      let replica = Replica.create ?cost_model policy in
      let writer, events = fresh_writer ~path:wal ~label in
      let live = Live.create () in
      List.iter (fun e -> ignore (Live.step live e)) events;
      Ok
        {
          replica;
          writer;
          from_snapshot = false;
          scanned = 0;
          replayed = 0;
          truncated;
          verified = 0;
          diverged = 0;
          digest = Replica.residual_digest replica;
          live;
        }
  in
  if not (Sys.file_exists wal) then fresh ~truncated:0
  else
    let attempt ~base =
      let replica, base_seq, from_snapshot =
        match base with
        | Some (snap_seq, replica) -> (replica, snap_seq, true)
        | None -> (Replica.create ?cost_model policy, 0, false)
      in
      scan ~wal ~label ~replica ~base_seq ~from_snapshot
    in
    let base =
      match
        let* json, snap_seq = read_snapshot snapshot in
        let* replica =
          Result.bind (jfield "replica" json) (Replica.restore ?cost_model)
        in
        Ok (snap_seq, replica)
      with
      | Ok (snap_seq, replica) when Replica.policy replica = policy ->
          Some (snap_seq, replica)
      | Ok _ | Error _ -> None
    in
    let scanned =
      match base with
      | None -> attempt ~base:None
      | Some _ -> (
          (* A snapshot is an optimization: if recovering through it fails
             for any reason, the WAL alone is still the source of truth. *)
          match attempt ~base with
          | Ok _ as ok -> ok
          | Error _ -> attempt ~base:None)
    in
    match scanned with
    | Ok (Recovered r) -> Ok r
    | Ok (Empty truncated) -> fresh ~truncated
    | Error _ as e -> e

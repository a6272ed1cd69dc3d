open Import

(* A [rota serve] child process: spawned with the shipped defaults,
   ready once it prints its "listening" line, stopped by SIGTERM (drain)
   or SIGKILL (crash).  Every child is reaped before the benchmark
   exits, also when it exits by an exception. *)

type t = {
  pid : int;
  out : Unix.file_descr;  (** The daemon's stdout. *)
  dir : string;
  socket : string;
  ready_s : float;  (** Spawn to the "listening" line. *)
}

let live : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun p -> p <> pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let () = at_exit kill_all

(* One line from [fd], waiting at most [timeout] seconds for it. *)
let read_line ?(timeout = 120.) fd =
  let buf = Buffer.create 128 and byte = Bytes.create 1 in
  let rec go () =
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> None
    | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> None
        | _ ->
            let c = Bytes.get byte 0 in
            if c = '\n' then Some (Buffer.contents buf)
            else begin
              Buffer.add_char buf c;
              go ()
            end)
  in
  go ()

let spawn ~rota ~dir ~socket ~log =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = now_ns () in
  let pid =
    Unix.create_process rota
      [| rota; "serve"; "--dir"; dir; "--socket"; socket |]
      null w err
  in
  live := pid :: !live;
  List.iter Unix.close [ w; err; null ];
  let rec wait_ready () =
    match read_line r with
    | None -> None
    | Some line when String.starts_with ~prefix:"rota serve: listening" line ->
        Some (since_s t0)
    | Some _ -> wait_ready ()
  in
  match wait_ready () with
  | Some ready_s -> Ok { pid; out = r; dir; socket; ready_s }
  | None ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid;
      Unix.close r;
      Error (Printf.sprintf "rota serve in %s never reported listening (see %s)" dir log)

(* Peak resident set of a process, from the kernel's high-water mark in
   its [/proc/.../status] file. *)
let hwm_mb status =
  match In_channel.with_open_text status In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float kb /. 1024.))
      |> Option.value ~default:Float.nan

let peak_rss_mb t = hwm_mb (Printf.sprintf "/proc/%d/status" t.pid)

(* SIGTERM: the daemon drains, snapshots and exits 0. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status =
    match Unix.waitpid [] t.pid with
    | _, s -> Some s
    | exception Unix.Unix_error _ -> None
  in
  live := List.filter (fun p -> p <> t.pid) !live;
  Unix.close t.out;
  match status with
  | Some (Unix.WEXITED 0) -> Ok ()
  | _ -> Error (Printf.sprintf "rota serve in %s did not drain cleanly" t.dir)

(* SIGKILL: a crash, with whatever the WAL holds. *)
let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap t.pid;
  Unix.close t.out

(* --- state directories -------------------------------------------------- *)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let copy_file src dst =
  let contents = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc contents)

(* A fresh copy of a state directory's regular files. *)
let copy_dir src dst =
  remove_tree dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let p = Filename.concat src f in
      if (Unix.lstat p).Unix.st_kind = Unix.S_REG then
        copy_file p (Filename.concat dst f))
    (Sys.readdir src)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

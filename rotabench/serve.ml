open Import

(* Driving a real [rota serve] daemon: the optional crashed prefix, the
   timed set-ups, the phase over one connection, and the checks made
   after it against the oracle and the offline auditor. *)

type ctx = { rota : string; work : string }

(* The generated sequence, cut to end on a [stats] query so that the
   state any phase ends in has an oracle digest. *)
let prepare spec ~seed =
  step "generating requests and their oracle verdicts";
  let reqs = Workload.generate ~limit:spec.Workload.limit (Workload.serve_params spec ~seed) in
  let last = ref (-1) in
  Array.iteri (fun i r -> if r.Workload.kind = Workload.Query then last := i) reqs;
  Array.sub reqs 0 (!last + 1)

type tally = { mutable failed : int; mutable wrong : int; mutable notes : string list }

let tally () = { failed = 0; wrong = 0; notes = [] }
let note t m = if List.length t.notes < 8 then t.notes <- m :: t.notes

let check_replies t (reqs : Workload.request array) (p : Client.phase) =
  for i = p.Client.first to p.Client.last - 1 do
    match Wire.response_of_line p.Client.replies.(i) with
    | Error m ->
        t.failed <- t.failed + 1;
        note t (Printf.sprintf "request %d: unparseable reply: %s" i m)
    | Ok { Wire.reply = Wire.Shed _ | Wire.Failed _; _ } ->
        t.failed <- t.failed + 1;
        note t (Printf.sprintf "request %d: %s" i p.Client.replies.(i))
    | Ok { Wire.reply; _ } ->
        if not (Workload.reply_matches ~expected:reqs.(i).Workload.expected ~got:reply)
        then begin
          t.wrong <- t.wrong + 1;
          note t (Printf.sprintf "request %d: reply differs from the oracle: %s" i
                    p.Client.replies.(i))
        end
  done

let expected_digest (reqs : Workload.request array) i =
  match reqs.(i).Workload.expected with
  | Wire.Info fields -> (
      match List.assoc_opt "digest" fields with Some (Json.String d) -> Some d | _ -> None)
  | _ -> None

let ( let* ) = Result.bind

(* A state directory made by a daemon SIGKILLed after every reply of the
   workload's first part had been received. *)
let make_prefix ctx spec (reqs : Workload.request array) t =
  step "making the crashed prefix state";
  let dir = Filename.concat ctx.work "prefix" and socket = Filename.concat ctx.work "prefix.sock" in
  let* d = Proc.spawn ~rota:ctx.rota ~dir ~socket ~log:(Filename.concat ctx.work "prefix.log") in
  let c = Client.connect socket in
  let p =
    Client.drive c ~reqs ~first:0 ~depth:spec.Workload.pipeline
      ~stop:(fun next -> next >= spec.Workload.prefix)
  in
  Client.close c;
  Proc.kill d;
  check_replies t reqs p;
  if p.Client.silent || p.Client.last < spec.Workload.prefix then
    Error "the prefix daemon stopped answering"
  else Ok dir

(* Counters and histogram counts of the daemon's live registry. *)
let scrape c =
  match Client.call c Wire.Metrics with
  | Ok (Wire.Metrics_snapshot { samples; _ }) ->
      List.filter_map
        (fun j ->
          match Events.of_json j with
          | Ok { Events.payload = Events.Metric_sample { name; value; _ }; _ } ->
              Some (name, value)
          | Ok { Events.payload = Events.Hist_sample { name; count; _ }; _ } ->
              Some (name ^ "#count", float count)
          | _ -> None)
        samples
  | _ -> []

let scraped name s = Option.value (List.assoc_opt name s) ~default:0.

type outcome = {
  phase : Client.phase;
  setup_s : float list;
  rss_mb : float;
  wal_bytes : int;  (** WAL growth over the phase. *)
  scrape_delta : string -> float;  (** After minus before the phase. *)
  tally : tally;
  prefix_dir : string option;
}

(* Start [setups] daemons one after the other on the state the workload
   begins from, timing each; all but the last are drained again. *)
let start ctx ~setups ~prefix_dir =
  let socket = Filename.concat ctx.work "sock" in
  let rec go i times =
    let dir = Filename.concat ctx.work (Printf.sprintf "state-%d" i) in
    (match prefix_dir with
    | Some p -> Proc.copy_dir p dir
    | None -> Proc.remove_tree dir);
    let* d = Proc.spawn ~rota:ctx.rota ~dir ~socket ~log:(Filename.concat ctx.work "serve.log") in
    let times = d.Proc.ready_s :: times in
    if i >= setups then Ok (d, List.rev times)
    else
      let* () = Proc.stop d in
      go (i + 1) times
  in
  go 1 []

type mode = Timed of float | Count of int

let run ctx spec (reqs : Workload.request array) ~mode ~setups =
  let t = tally () in
  let* prefix_dir =
    if spec.Workload.prefix > 0 then Result.map Option.some (make_prefix ctx spec reqs t)
    else Ok None
  in
  step "timing set-ups";
  let* d, setup_s = start ctx ~setups ~prefix_dir in
  step "measured phase";
  let wal = Wal.wal_path ~dir:d.Proc.dir in
  let c = Client.connect d.Proc.socket in
  let before = scrape c in
  let size0 = Proc.file_size wal in
  let is_query next = reqs.(next - 1).Workload.kind = Workload.Query in
  let stop =
    match mode with
    | Timed seconds ->
        let deadline = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
        fun next -> is_query next && now_ns () >= deadline
    | Count k -> fun next -> is_query next && next >= spec.Workload.prefix + k
  in
  let phase = Client.drive c ~reqs ~first:spec.Workload.prefix ~depth:spec.Workload.pipeline ~stop in
  if phase.Client.silent then begin
    Client.close c;
    Proc.kill d;
    Error "the daemon stopped answering during the phase"
  end
  else begin
    step "checking";
    let after = scrape c in
    let rss_mb = Proc.peak_rss_mb d in
    (match Client.call c (Wire.Query "residual-digest") with
    | Ok (Wire.Info [ ("digest", Json.String got) ]) ->
        if Some got <> expected_digest reqs (phase.Client.last - 1) then
          note t "the daemon's final residual digest differs from the oracle's"
    | _ -> note t "the final residual-digest query failed");
    Client.close c;
    let* () = Proc.stop d in
    step "offline audit of the WAL";
    (match Audit.audit_file wal with
    | Ok r -> if not (Audit.ok r) then note t "the offline auditor reports divergences in the WAL"
    | Error _ -> note t "the offline auditor could not read the WAL");
    check_replies t reqs phase;
    Ok
      {
        phase;
        setup_s;
        rss_mb;
        wal_bytes = Proc.file_size wal - size0;
        scrape_delta = (fun name -> scraped name after -. scraped name before);
        tally = t;
        prefix_dir;
      }
  end

(* --- what a phase reached ----------------------------------------------- *)

let verdicts (reqs : Workload.request array) (p : Client.phase) =
  let v = ref 0 and admitted = ref 0 in
  for i = p.Client.first to p.Client.last - 1 do
    match Workload.verdict reqs.(i).Workload.expected with
    | Some a ->
        incr v;
        if a = "admit" then incr admitted
    | None -> ()
  done;
  (!v, !admitted)

(* Requests the daemon writes to the WAL: every decision, every release
   of a live computation, every join. *)
let logged (reqs : Workload.request array) (p : Client.phase) =
  let n = ref 0 in
  for i = p.Client.first to p.Client.last - 1 do
    match reqs.(i).Workload.expected with
    | Wire.Decided _ | Wire.Joined _ | Wire.Released { existed = true; _ } -> incr n
    | _ -> ()
  done;
  !n

let rtts (reqs : Workload.request array) (p : Client.phase) kind =
  let xs = ref [] in
  for i = p.Client.first to p.Client.last - 1 do
    if reqs.(i).Workload.kind = kind then xs := Client.rtt_ms p i :: !xs
  done;
  Stats.sorted !xs

(* Verdicts answered in each whole second of the phase. *)
let window_rates (reqs : Workload.request array) (p : Client.phase) =
  let t0 = p.Client.sent_ns.(p.Client.first) in
  let whole = int_of_float p.Client.wall_s in
  let counts = Array.make whole 0 in
  for i = p.Client.first to p.Client.last - 1 do
    if Workload.verdict reqs.(i).Workload.expected <> None then begin
      let k = Int64.to_int (Int64.div (Int64.sub p.Client.recv_ns.(i) t0) 1_000_000_000L) in
      if k < whole then counts.(k) <- counts.(k) + 1
    end
  done;
  Array.to_list (Array.map float counts)

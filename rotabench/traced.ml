open Import

(* The traced run's in-process replay: the same requests the daemon
   phase sent, fed through the layers' public functions in the order the
   daemon calls them, with a span around each call.  Admission and
   certificate work happens inside [Replica.apply]; it is timed by
   probes on the pre-state controller (both pure), reported as a
   breakdown of [replica.*] rather than added to it. *)

type result = {
  spans : (string, Spans.total) Hashtbl.t;
  recover_s : float;
  audit_s : float;  (** A [Live.step] pass over the recovered WAL. *)
  replay_s : float;  (** A [Replica.replay] pass over it. *)
  records : int;
  verdicts : int;
  admitted : int;
  wal_bytes : int;
  request_bytes : int;
  ledger_mean : float;  (** Per admit, before deciding. *)
  ledger_max : int;
  residual_mean : float;  (** Terms of the residual each admit is decided on. *)
  residual_max : int;
  live_mean : float;  (** The watchdog's live commitments, per request. *)
  live_max : int;
  mismatches : int;
}

let read_events path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match Rota_obs.Binary.read_header ic with
      | Error _ -> []
      | Ok () ->
          let rec go acc =
            match Rota_obs.Binary.read_item ic with
            | Rota_obs.Binary.Event e -> go (e :: acc)
            | _ -> List.rev acc
          in
          go [])

let kind_span = function
  | Workload.Admit -> "replica.admit"
  | Workload.Release -> "replica.release"
  | Workload.Query -> "replica.query"
  | Workload.Join -> "replica.join"

let replay ~dir ~(reqs : Workload.request array) ~first ~count ~depth =
  Spans.reset ();
  let t0 = now_ns () in
  let recovery =
    match Wal.recover ~dir ~policy:Admission.Rota () with
    | Ok r -> r
    | Error m -> failwith ("in-process recovery: " ^ m)
  in
  let recover_s = since_s t0 in
  let events = read_events (Wal.wal_path ~dir) in
  let t1 = now_ns () in
  let live = Live.create () in
  List.iter (fun e -> ignore (Live.step live e)) events;
  let audit_s = since_s t1 in
  let t2 = now_ns () in
  let fresh = Replica.create Admission.Rota in
  List.iter
    (fun e ->
      match Replica.replay fresh e with Ok () -> () | Error m -> failwith ("replay: " ^ m))
    events;
  let replay_s = since_s t2 in
  let records = List.length events in
  (* Start the replay from a compact heap, as a freshly recovered daemon
     would, so the benchmark's own data does not tax the layers' GC. *)
  Gc.compact ();
  let replica = recovery.Wal.replica and writer = recovery.Wal.writer in
  (* As in the daemon: telemetry on, and a watchdog made fresh at start. *)
  Rota_obs.Metrics.set_enabled true;
  let wd = Watchdog.create () in
  let bytes0 = Wal.offset writer in
  let verdicts = ref 0 and admitted = ref 0 in
  let request_bytes = ref 0 and mismatches = ref 0 in
  let ledger_sum = ref 0 and ledger_max = ref 0 and residual_sum = ref 0 and residual_max = ref 0 in
  let live_sum = ref 0 and live_max = ref 0 and admits = ref 0 in
  let last = first + count in
  let i = ref first in
  while !i < last do
    let window_end = min last (!i + depth) in
    let wrote = ref false in
    while !i < window_end do
      let r = reqs.(!i) in
      let cid = Printf.sprintf "r0-%d" (!i + 1) in
      let line = String.sub r.Workload.line 0 (String.length r.Workload.line - 1) in
      request_bytes := !request_bytes + String.length line;
      (match Spans.with_ "wire.parse" (fun () -> Wire.request_of_line line) with
      | Error _ -> incr mismatches
      | Ok { Wire.op; _ } ->
          (match op with
          | Wire.Admit { now; computation; _ } ->
              incr admits;
              let now = max now (Replica.now replica) in
              let ctrl = Replica.controller replica in
              let ctrl =
                if now > Replica.now replica then
                  Spans.with_ "admission.advance" (fun () -> Admission.advance ctrl now)
                else ctrl
              in
              let ledger = Admission.ledger_size ctrl in
              let residual = Admission.residual ctrl in
              let terms = List.length (Resource_set.to_terms residual) in
              ledger_sum := !ledger_sum + ledger;
              ledger_max := max !ledger_max ledger;
              residual_sum := !residual_sum + terms;
              residual_max := max !residual_max terms;
              let _, outcome =
                Spans.with_ "admission.request" (fun () -> Admission.request ctrl ~now computation)
              in
              let cert =
                Spans.with_ "certificate.force" (fun () -> Lazy.force outcome.Admission.certificate)
              in
              ignore (Spans.with_ "certificate.digest" (fun () -> Certificate.digest residual));
              ignore (Spans.with_ "certificate.to_json" (fun () -> Certificate.to_json cert))
          | _ -> ());
          let payloads, reply =
            Spans.with_ (kind_span r.Workload.kind) (fun () -> Replica.apply ~cid replica op)
          in
          if not (Workload.reply_matches ~expected:r.Workload.expected ~got:reply) then
            incr mismatches;
          (match Workload.verdict reply with
          | Some a ->
              incr verdicts;
              if a = "admit" then incr admitted
          | None -> ());
          (match payloads with
          | [] -> ()
          | ps ->
              let events =
                Spans.with_ "wal.append" (fun () -> Wal.append writer ~sim:(Replica.now replica) ps)
              in
              Spans.with_ "audit.observe" (fun () -> List.iter (Watchdog.observe wd) events);
              wrote := true);
          let l = Live.live_commitments (Watchdog.live wd) in
          live_sum := !live_sum + l;
          live_max := max !live_max l;
          ignore
            (Spans.with_ "wire.reply" (fun () ->
                 Wire.response_to_line { Wire.tag = Json.String cid; cid = Some cid; reply })));
      incr i
    done;
    (* Group commit: one fsync per window of outstanding requests. *)
    if !wrote then begin
      Spans.with_ "wal.sync" (fun () -> Wal.sync writer)
    end
  done;
  Wal.close writer;
  Rota_obs.Metrics.set_enabled false;
  let per n d = if d = 0 then 0. else float n /. float d in
  {
    spans = Spans.totals ();
    recover_s;
    audit_s;
    replay_s;
    records;
    verdicts = !verdicts;
    admitted = !admitted;
    wal_bytes = Wal.offset writer - bytes0;
    request_bytes = !request_bytes;
    ledger_mean = per !ledger_sum !admits;
    ledger_max = !ledger_max;
    residual_mean = per !residual_sum !admits;
    residual_max = !residual_max;
    live_mean = per !live_sum count;
    live_max = !live_max;
    mismatches = !mismatches;
  }

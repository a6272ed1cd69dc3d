open Import

type address = Unix_socket of string | Tcp of string * int

type config = {
  dir : string;
  address : address;
  policy : Admission.policy;
  cost_model : Cost_model.t option;
  max_queue : int;
  default_budget_ms : float;
  snapshot_every : int;
  decide_delay_ms : float;
  max_connections : int;
  telemetry : bool;
  metrics_listen : address option;
  metrics_out : string option;
  metrics_every : int;
  slo_budget : float;
  flight_capacity : int;
}

let config ?(max_queue = 512) ?(default_budget_ms = 250.) ?(snapshot_every = 512)
    ?(decide_delay_ms = 0.) ?(max_connections = 64) ?(telemetry = true)
    ?metrics_listen ?metrics_out ?(metrics_every = 256) ?(slo_budget = 0.01)
    ?(flight_capacity = 4096) ?cost_model ~dir ~address policy =
  {
    dir;
    address;
    policy;
    cost_model;
    max_queue;
    default_budget_ms;
    snapshot_every;
    decide_delay_ms;
    max_connections;
    telemetry;
    metrics_listen;
    metrics_out;
    metrics_every;
    slo_budget;
    flight_capacity;
  }

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  outq : string Queue.t;
  mutable out_off : int;  (* bytes of [Queue.peek outq] already written *)
  mutable alive : bool;
}

type work = Decide of Wire.op | Ready of Wire.reply

type item = {
  conn : conn;
  tag : Json.t;
  cid : string;  (* the daemon's correlation id for this request *)
  span : int;  (* pre-allocated [server/request] span id *)
  work : work;
  recv : Clock.t;  (* the request line arrived (parse began) *)
  enqueued : Clock.t;
  budget_ms : float option;
}

(* A metrics-scrape connection: one HTTP/1.0 request in, one response
   out, close.  Deliberately separate from [conn] — scrapers speak HTTP,
   never the JSONL wire protocol, and never touch the replica. *)
type scrape = {
  sfd : Unix.file_descr;
  sbuf : Buffer.t;
  mutable sout : string;  (* response bytes not yet written *)
  mutable soff : int;
  mutable sreplied : bool;
}

type stats = {
  mutable decided : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable shed : int;
  mutable failed : int;
}

let batch_size = 64

(* Cumulative sheds that trigger the one shed-storm flight dump: enough
   that a handful of stragglers in a normal drain never fires it, small
   enough that a real storm is captured while it is still ongoing. *)
let shed_storm_threshold = 128

let stop_requested = ref false
let quit_requested = ref false

let install_signals () =
  let note _ = stop_requested := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle note);
  Sys.set_signal Sys.sigint (Sys.Signal_handle note);
  (* SIGQUIT = "tell me what you were doing": dump the flight recorder,
     then drain — the crash-investigation analogue of a core dump. *)
  Sys.set_signal Sys.sigquit (Sys.Signal_handle (fun _ -> quit_requested := true));
  (* Peer hangups surface as write errors, not process death. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let listen_on address =
  match address with
  | Unix_socket path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd

let push_response conn response =
  if conn.alive then
    Queue.add (Wire.response_to_line response ^ "\n") conn.outq

(* One select round's worth of writing to a connection; partial writes
   keep their offset into the head chunk. *)
let write_some conn =
  try
    let progress = ref true in
    while !progress && not (Queue.is_empty conn.outq) do
      let chunk = Queue.peek conn.outq in
      let len = String.length chunk - conn.out_off in
      let n = Unix.write_substring conn.fd chunk conn.out_off len in
      if n = len then begin
        ignore (Queue.pop conn.outq);
        conn.out_off <- 0
      end
      else begin
        conn.out_off <- conn.out_off + n;
        progress := false
      end
    done;
    true
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      true
  | Unix.Unix_error _ -> false

let content_type = "application/openmetrics-text; version=1.0.0; charset=utf-8"

let http_response body =
  Printf.sprintf
    "HTTP/1.0 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    content_type (String.length body) body

(* End of an HTTP request head: a blank line.  The whole GET fits in one
   or two reads in practice, but a byte-at-a-time client works too. *)
let has_blank_line s =
  let rec go i =
    if i + 1 >= String.length s then false
    else if s.[i] = '\n' && (s.[i + 1] = '\n' || (s.[i + 1] = '\r' && i + 2 < String.length s && s.[i + 2] = '\n'))
    then true
    else go (i + 1)
  in
  String.length s >= 2 && (String.sub s 0 1 = "\n" || go 0)

let flight_file ~dir = Filename.concat dir (Printf.sprintf "flight-%d.rotb" (Unix.getpid ()))

let run ?(on_ready = fun (_ : Wal.recovery) -> ()) cfg =
  if not (Sys.file_exists cfg.dir) then Unix.mkdir cfg.dir 0o755;
  (* The observability plane is on unless explicitly refused: a serving
     daemon that cannot answer "what are you doing" is flying blind. *)
  if cfg.telemetry then Metrics.set_enabled true;
  match
    Wal.recover ?cost_model:cfg.cost_model ~dir:cfg.dir ~policy:cfg.policy ()
  with
  | Error m -> Error ("recovery: " ^ m)
  | Ok recovery -> (
      let replica = recovery.Wal.replica in
      let writer = ref recovery.Wal.writer in
      let shed =
        Shed.create
          ~default_budget_s:(cfg.default_budget_ms /. 1000.)
          ~max_queue:cfg.max_queue ()
      in
      let stats = { decided = 0; admitted = 0; rejected = 0; shed = 0; failed = 0 } in
      let queue : item Queue.t = Queue.create () in
      let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
      let scrapes : (Unix.file_descr, scrape) Hashtbl.t = Hashtbl.create 4 in
      let draining = ref false in
      let since_snapshot = ref 0 in
      let cid_counter = ref 0 in
      let pid = Unix.getpid () in
      let mint_cid () =
        incr cid_counter;
        Printf.sprintf "r%d-%d" pid !cid_counter
      in
      (* --- the observability plane ------------------------------------- *)
      (* Every record the daemon produces — WAL events, spans, sheds,
         audit divergences — goes into this one sink: the live watchdog
         (which re-verifies the logged decisions and passes over the
         telemetry-only kinds), the flight recorder's ring, and the
         --metrics-out refresh counter.  It is tied once the watchdog
         exists, because the watchdog's outcome hook records into it. *)
      let sink = ref Sink.null in
      let record ?sim payload =
        !sink.Sink.emit
          { Events.seq = 0; run = 1; sim; wall_s = Clock.wall_s (); payload }
      in
      let flight =
        if cfg.telemetry then Some (Flight.create ~capacity:cfg.flight_capacity ())
        else None
      in
      let flight_path = flight_file ~dir:cfg.dir in
      let flight_dumped = ref false in
      let dump_flight reason =
        match flight with
        | None -> ()
        | Some f -> (
            flight_dumped := true;
            match Flight.dump f flight_path with
            | Ok n ->
                Printf.eprintf
                  "rota serve: flight recorder: %d events -> %s (%s)\n%!" n
                  flight_path reason
            | Error m ->
                Printf.eprintf "rota serve: flight dump failed: %s\n%!" m)
      in
      (* Deadline-assurance SLO: every request that reached a verdict is
         good when the live audit re-verified the decision, bad when the
         auditor diverged or the daemon shed it without deciding. *)
      let slo = Slo.create ~budget:cfg.slo_budget () in
      let divergence_dumped = ref false in
      let on_outcome (o : Live.outcome) =
        let now = Clock.wall_s () in
        match o.Live.verdict with
        | Live.Verified | Live.Skipped _ -> Slo.record slo ~now ~good:true
        | Live.Diverged complaints ->
            List.iter
              (fun message ->
                Slo.record slo ~now ~good:false;
                record ?sim:o.Live.sim
                  (Events.Audit_divergence
                     { id = o.Live.id; action = o.Live.action; of_seq = o.Live.seq;
                       message }))
              complaints;
            if not !divergence_dumped then begin
              divergence_dumped := true;
              dump_flight "audit divergence"
            end
      in
      (match flight with
      | None -> ()
      | Some f ->
          let watchdog = Watchdog.create ~on_outcome () in
          let metrics_out =
            Option.map
              (Openmetrics.snapshot_sink ~every:cfg.metrics_every)
              cfg.metrics_out
          in
          sink :=
            List.fold_left Sink.tee (Watchdog.sink watchdog)
              (Flight.sink f :: Option.to_list metrics_out));
      let shed_total = ref 0 in
      let storm_dumped = ref false in
      let note_shed ~id ~slug ~reason =
        stats.shed <- stats.shed + 1;
        incr shed_total;
        Telemetry.count_shed slug;
        Slo.record slo ~now:(Clock.wall_s ()) ~good:false;
        record ~sim:(Replica.now replica) (Events.Shed { id; slug; reason });
        if !shed_total >= shed_storm_threshold && not !storm_dumped then begin
          storm_dumped := true;
          dump_flight
            (Printf.sprintf "shed storm (%d requests refused)" !shed_total)
        end
      in
      let refresh_gauges () =
        if cfg.telemetry then begin
          let now = Clock.wall_s () in
          Metrics.set Telemetry.queue_depth (Queue.length queue);
          Metrics.set Telemetry.connections (Hashtbl.length conns);
          Telemetry.set_burn Telemetry.burn_5m (Slo.burn slo ~now ~window_s:300);
          Telemetry.set_burn Telemetry.burn_1h (Slo.burn slo ~now ~window_s:3600);
          Runtime_sampler.update ()
        end
      in
      let exposition () =
        refresh_gauges ();
        Openmetrics.render (Metrics.snapshot ())
      in
      install_signals ();
      stop_requested := false;
      quit_requested := false;
      match listen_on cfg.address with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "bind: %s" (Unix.error_message e))
      | listener -> (
          match Option.map listen_on cfg.metrics_listen with
          | exception Unix.Unix_error (e, _, _) ->
              (try Unix.close listener with Unix.Unix_error _ -> ());
              Error (Printf.sprintf "bind metrics: %s" (Unix.error_message e))
          | mlistener ->
          on_ready recovery;
          let close_conn conn =
            if conn.alive then begin
              conn.alive <- false;
              Hashtbl.remove conns conn.fd;
              try Unix.close conn.fd with Unix.Unix_error _ -> ()
            end
          in
          let close_scrape s =
            Hashtbl.remove scrapes s.sfd;
            try Unix.close s.sfd with Unix.Unix_error _ -> ()
          in
          let daemon_stat_fields () =
            [
              ("queue", Json.Int (Queue.length queue));
              ("connections", Json.Int (Hashtbl.length conns));
              ("decided", Json.Int stats.decided);
              ("admitted", Json.Int stats.admitted);
              ("rejected", Json.Int stats.rejected);
              ("shed", Json.Int stats.shed);
              ("failed", Json.Int stats.failed);
              ("estimate_ms", Json.Float (Shed.estimate_s shed *. 1000.));
              ("wal_seq", Json.Int (Wal.seq !writer));
              ("wal_offset", Json.Int (Wal.offset !writer));
            ]
          in
          let snapshot () =
            match
              Wal.save_snapshot
                ~path:(Wal.snapshot_path ~dir:cfg.dir)
                !writer replica
            with
            | Ok () -> since_snapshot := 0
            | Error m -> Printf.eprintf "rota serve: snapshot failed: %s\n%!" m
          in
          let metrics_reply () =
            refresh_gauges ();
            let view = Metrics.snapshot () in
            let now = Clock.wall_s () in
            let samples =
              List.mapi
                (fun i payload ->
                  Events.to_json
                    { Events.seq = i + 1; run = 0; sim = None; wall_s = now;
                      payload })
                (Tracer.samples_of_view view)
            in
            Wire.Metrics_snapshot
              { exposition = Openmetrics.render view; samples }
          in
          (* Accept whatever parses; every line becomes exactly one queue
             item — verdicts included — so responses leave in request
             order no matter how they were produced. *)
          let handle_line conn line =
            let recv = Clock.now () in
            let parsed = Wire.request_of_line line in
            let now = Clock.now () in
            let cid = mint_cid () in
            let span = Tracer.alloc_span_id () in
            record (Tracer.span ~parent:span "server/parse" recv now);
            match parsed with
            | Error m ->
                stats.failed <- stats.failed + 1;
                Telemetry.count_request "invalid";
                Queue.add
                  { conn; tag = Json.Null; cid; span;
                    work = Ready (Wire.Failed m); recv; enqueued = now;
                    budget_ms = None }
                  queue
            | Ok { Wire.tag; op } -> (
                Telemetry.count_request (Telemetry.verb_of_op op);
                match op with
                | Wire.Admit { computation; budget_ms; _ } -> (
                    match
                      Shed.on_enqueue shed ~queue_len:(Queue.length queue)
                        ~budget_ms
                    with
                    | Shed.Accept ->
                        Queue.add
                          { conn; tag; cid; span; work = Decide op; recv;
                            enqueued = now; budget_ms }
                          queue
                    | Shed.Reject { slug; message } ->
                        let id = computation.Computation.id in
                        note_shed ~id ~slug ~reason:message;
                        Queue.add
                          { conn; tag; cid; span;
                            work = Ready (Wire.Shed { id; reason = message });
                            recv; enqueued = now; budget_ms }
                          queue)
                | _ ->
                    Queue.add
                      { conn; tag; cid; span; work = Decide op; recv;
                        enqueued = now; budget_ms = None }
                      queue)
          in
          let feed conn bytes n =
            Buffer.add_subbytes conn.inbuf bytes 0 n;
            List.iter
              (fun line ->
                let line = String.trim line in
                if line <> "" then handle_line conn line)
              (Wire.take_lines conn.inbuf)
          in
          let decide item =
            match item.work with
            | Ready reply -> (None, reply)
            | Decide op -> (
                let picked = Clock.now () in
                let waited = Clock.between item.enqueued picked in
                Metrics.observe Telemetry.queue_wait waited;
                record
                  (Tracer.span ~parent:item.span "server/queue-wait"
                     item.enqueued picked);
                let sheddable =
                  match op with Wire.Admit _ -> true | _ -> false
                in
                match
                  if sheddable then
                    Shed.on_dequeue shed ~waited_s:waited
                      ~budget_ms:item.budget_ms
                  else Shed.Accept
                with
                | Shed.Reject { slug; message } ->
                    let id =
                      match op with
                      | Wire.Admit { computation; _ } ->
                          computation.Computation.id
                      | _ -> ""
                    in
                    note_shed ~id ~slug ~reason:message;
                    (None, Wire.Shed { id; reason = message })
                | Shed.Accept when op = Wire.Metrics ->
                    (* Answered from the serving loop: a scrape must not
                       touch the replica or the WAL. *)
                    (None, metrics_reply ())
                | Shed.Accept ->
                    let t0 = Clock.now () in
                    if cfg.decide_delay_ms > 0. then
                      Unix.sleepf (cfg.decide_delay_ms /. 1000.);
                    let payloads, reply =
                      Replica.apply ~cid:item.cid replica op
                    in
                    let t1 = Clock.now () in
                    Shed.observe shed (Clock.between t0 t1);
                    record (Tracer.span ~parent:item.span "server/decide" t0 t1);
                    stats.decided <- stats.decided + 1;
                    (match reply with
                    | Wire.Decided { action = "admit"; _ } ->
                        stats.admitted <- stats.admitted + 1
                    | Wire.Decided _ -> stats.rejected <- stats.rejected + 1
                    | _ -> ());
                    let reply =
                      match (op, reply) with
                      | Wire.Query "stats", Wire.Info fields ->
                          Wire.Info (fields @ daemon_stat_fields ())
                      | _ -> reply
                    in
                    (match op with
                    | Wire.Shutdown -> draining := true
                    | _ -> ());
                    (Some payloads, reply))
          in
          (* Group commit: decide a batch, append everything, fsync once,
             only then let any of the batch's responses out. *)
          let process_queue () =
            let produced = ref [] in
            let logged = ref false in
            let rec go n =
              if n > 0 && not (Queue.is_empty queue) then begin
                let item = Queue.pop queue in
                let payloads, reply = decide item in
                (match payloads with
                | Some (_ :: _ as ps) ->
                    let b0 = Wal.buffered !writer in
                    let t0 = Clock.now () in
                    let events =
                      Wal.append !writer ~sim:(Replica.now replica) ps
                    in
                    let t1 = Clock.now () in
                    Metrics.add Telemetry.wal_bytes (Wal.buffered !writer - b0);
                    record (Tracer.span ~parent:item.span "server/encode" t0 t1);
                    List.iter !sink.Sink.emit events;
                    logged := true;
                    since_snapshot := !since_snapshot + 1
                | _ -> ());
                produced := (item, reply) :: !produced;
                go (n - 1)
              end
            in
            go batch_size;
            if !logged then begin
              let t0 = Clock.now () in
              Wal.sync !writer;
              let t1 = Clock.now () in
              Metrics.observe Telemetry.fsync (Clock.between t0 t1);
              (* One flush covers the whole batch, so the span stands
                 alone rather than under any single request. *)
              record (Tracer.span "server/wal-fsync" t0 t1)
            end;
            List.iter
              (fun (item, reply) ->
                let now = Clock.now () in
                Metrics.observe Telemetry.rtt (Clock.between item.recv now);
                record (Tracer.span ~id:item.span "server/request" item.recv now);
                let tag =
                  (* Untagged clients still get a correlation handle: the
                     cid doubles as the echoed tag. *)
                  match item.tag with
                  | Json.Null -> Json.String item.cid
                  | t -> t
                in
                push_response item.conn
                  { Wire.tag; cid = Some item.cid; reply })
              (List.rev !produced)
          in
          let serve_scrape s =
            if has_blank_line (Buffer.contents s.sbuf) && not s.sreplied then begin
              s.sreplied <- true;
              s.sout <- http_response (exposition ())
            end
          in
          let write_scrape s =
            match
              let len = String.length s.sout - s.soff in
              if len = 0 then 0
              else Unix.write_substring s.sfd s.sout s.soff len
            with
            | n ->
                s.soff <- s.soff + n;
                if s.sreplied && s.soff >= String.length s.sout then
                  close_scrape s
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ()
            | exception Unix.Unix_error _ -> close_scrape s
          in
          let accept_scrapes fd =
            let rec go () =
              match Unix.accept fd with
              | sfd, _ ->
                  Unix.set_nonblock sfd;
                  Hashtbl.replace scrapes sfd
                    {
                      sfd;
                      sbuf = Buffer.create 128;
                      sout = "";
                      soff = 0;
                      sreplied = false;
                    };
                  go ()
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  ()
              | exception Unix.Unix_error _ -> ()
            in
            go ()
          in
          let rec loop () =
            if !stop_requested then draining := true;
            if !quit_requested then begin
              quit_requested := false;
              dump_flight "sigquit";
              draining := true
            end;
            refresh_gauges ();
            let accepting =
              (not !draining)
              && Hashtbl.length conns < cfg.max_connections
              && Queue.length queue < cfg.max_queue
            in
            let reading =
              (not !draining) && Queue.length queue < cfg.max_queue
            in
            let reads =
              (if accepting then [ listener ] else [])
              @ (match mlistener with
                | Some m when not !draining -> [ m ]
                | _ -> [])
              @ Hashtbl.fold
                  (fun fd s acc -> if s.sreplied then acc else fd :: acc)
                  scrapes []
              @
              if reading then
                Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
              else []
            in
            let writes =
              Hashtbl.fold
                (fun fd c acc ->
                  if Queue.is_empty c.outq then acc else fd :: acc)
                conns []
              @ Hashtbl.fold
                  (fun fd s acc ->
                    if s.soff < String.length s.sout then fd :: acc else acc)
                  scrapes []
            in
            let timeout = if Queue.is_empty queue then 0.2 else 0. in
            let readable, writable, _ =
              try Unix.select reads writes [] timeout
              with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
            in
            List.iter
              (fun fd ->
                if fd == listener then begin
                  let rec accept_all () =
                    match Unix.accept listener with
                    | cfd, _ ->
                        Unix.set_nonblock cfd;
                        Hashtbl.replace conns cfd
                          {
                            fd = cfd;
                            inbuf = Buffer.create 256;
                            outq = Queue.create ();
                            out_off = 0;
                            alive = true;
                          };
                        accept_all ()
                    | exception
                        Unix.Unix_error
                          ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                        ()
                    | exception Unix.Unix_error _ -> ()
                  in
                  accept_all ()
                end
                else if (match mlistener with Some m -> fd == m | None -> false)
                then accept_scrapes fd
                else
                  match Hashtbl.find_opt scrapes fd with
                  | Some s -> (
                      let bytes = Bytes.create 1024 in
                      match Unix.read fd bytes 0 1024 with
                      | 0 -> close_scrape s
                      | n ->
                          Buffer.add_subbytes s.sbuf bytes 0 n;
                          serve_scrape s;
                          if s.sreplied then write_scrape s
                      | exception
                          Unix.Unix_error
                            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                        ->
                          ()
                      | exception Unix.Unix_error _ -> close_scrape s)
                  | None -> (
                      match Hashtbl.find_opt conns fd with
                      | None -> ()
                      | Some conn -> (
                          let bytes = Bytes.create 8192 in
                          match Unix.read fd bytes 0 8192 with
                          | 0 -> close_conn conn
                          | n -> feed conn bytes n
                          | exception
                              Unix.Unix_error
                                ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR),
                                  _, _ ) ->
                              ()
                          | exception Unix.Unix_error _ -> close_conn conn)))
              readable;
            process_queue ();
            List.iter
              (fun fd ->
                match Hashtbl.find_opt conns fd with
                | None -> (
                    match Hashtbl.find_opt scrapes fd with
                    | Some s -> write_scrape s
                    | None -> ())
                | Some conn -> if not (write_some conn) then close_conn conn)
              writable;
            (* Whatever process_queue just produced should not wait for
               the next select round on an idle socket. *)
            Hashtbl.iter
              (fun _ conn ->
                if not (Queue.is_empty conn.outq) then
                  if not (write_some conn) then close_conn conn)
              (Hashtbl.copy conns);
            if !since_snapshot >= cfg.snapshot_every then snapshot ();
            let drained =
              !draining && Queue.is_empty queue
              && Hashtbl.fold
                   (fun _ c acc -> acc && Queue.is_empty c.outq)
                   conns true
            in
            if drained then begin
              Wal.sync !writer;
              snapshot ();
              Wal.close !writer;
              !sink.Sink.close ();
              Hashtbl.iter (fun _ c -> close_conn c) (Hashtbl.copy conns);
              Hashtbl.iter (fun _ s -> close_scrape s) (Hashtbl.copy scrapes);
              (try Unix.close listener with Unix.Unix_error _ -> ());
              (match mlistener with
              | Some m -> ( try Unix.close m with Unix.Unix_error _ -> ())
              | None -> ());
              (match cfg.address with
              | Unix_socket path ->
                  if Sys.file_exists path then Unix.unlink path
              | Tcp _ -> ());
              (match cfg.metrics_listen with
              | Some (Unix_socket path) ->
                  if Sys.file_exists path then Unix.unlink path
              | Some (Tcp _) | None -> ());
              Ok ()
            end
            else loop ()
          in
          (* A daemon dying of an uncaught exception still leaves its
             last seconds on disk for the post-mortem. *)
          try loop ()
          with exn ->
            if not !flight_dumped then
              dump_flight ("fatal: " ^ Printexc.to_string exn);
            raise exn))

open Import

type config = {
  address : Daemon.address;
  connections : int;
  pipeline : int;
  budget_ms : float option;
  trace : Trace.t;
}

type report = {
  offered : int;
  joins : int;
  admitted : int;
  rejected : int;
  shed : int;
  failed : int;
  duration_s : float;
  rtt_ms : float * float * float * float;  (* p50, p90, p95, p99 *)
  rtt_mean_ms : float;
  rtt_max_ms : float;
  digest : string option;
}

(* Sub-millisecond through multi-second decision RTTs, log-ish spacing. *)
let rtt_buckets =
  [|
    0.05; 0.1; 0.2; 0.5; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.;
    2000.; 5000.;
  |]

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  inflight : Clock.t Queue.t;  (* send times, FIFO = response order *)
}

let send_line fd line = Daemon.send fd (line ^ "\n")

let requests_of_trace ~budget_ms trace =
  List.filter_map
    (fun (at, ev) ->
      match ev with
      | Trace.Join theta ->
          Some
            {
              Wire.tag = Json.Null;
              op =
                Wire.Join
                  { now = at; terms = Certificate.rects_of_set theta };
            }
      | Trace.Arrive computation ->
          Some
            {
              Wire.tag = Json.Null;
              op = Wire.Admit { now = at; computation; budget_ms };
            }
      | Trace.Arrive_session _ -> None)
    (Trace.events trace)

let run cfg =
  let requests = ref (requests_of_trace ~budget_ms:cfg.budget_ms cfg.trace) in
  let offered =
    List.length
      (List.filter
         (fun r -> match r.Wire.op with Wire.Admit _ -> true | _ -> false)
         !requests)
  and joins =
    List.length
      (List.filter
         (fun r -> match r.Wire.op with Wire.Join _ -> true | _ -> false)
         !requests)
  in
  (* The registry ships disabled (observation is a no-op); the whole
     point of this process is the latency histogram, so switch it on. *)
  Metrics.set_enabled true;
  let hist = Metrics.histogram ~buckets:rtt_buckets "load_rtt_ms" in
  (* The buckets bound the quantiles; the tail's one worst round trip is
     kept exactly. *)
  let rtt_max = ref 0. in
  let admitted = ref 0
  and rejected = ref 0
  and shed = ref 0
  and failed = ref 0 in
  (* With a tracer installed ([rota load --trace]), the RTT histogram
     also lands in the trace as periodic hist-sample events, so [rota
     trace summarize] and [rota top] can render load-test latency the
     same way they render engine latency.  [sample_metrics] is a no-op
     without a sink. *)
  let since_sample = ref 0 in
  let sample_tick () =
    incr since_sample;
    if !since_sample >= 256 then begin
      since_sample := 0;
      Tracer.sample_metrics ()
    end
  in
  match
    Array.init (max 1 cfg.connections) (fun _ ->
        {
          fd = Daemon.connect cfg.address;
          inbuf = Buffer.create 256;
          inflight = Queue.create ();
        })
  with
  | exception Unix.Unix_error (e, _, s) ->
      Error (Printf.sprintf "connect %s: %s" s (Unix.error_message e))
  | conns ->
      let started = Clock.now () in
      let classify reply =
        match reply with
        | Wire.Decided { action = "admit"; _ } -> incr admitted
        | Wire.Decided _ -> incr rejected
        | Wire.Shed _ -> incr shed
        | Wire.Joined _ | Wire.Info _ | Wire.Metrics_snapshot _ | Wire.Pong
        | Wire.Draining | Wire.Released _ | Wire.Revoked _ ->
            ()
        | Wire.Failed _ -> incr failed
      in
      let finally () =
        Array.iter
          (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
          conns
      in
      let consume c =
        let rec go = function
          | [] -> Ok ()
          | line :: rest -> (
              match Wire.response_of_line line with
              | Error m -> Error ("bad response: " ^ m)
              | Ok { Wire.reply; _ } ->
                  (match Queue.take_opt c.inflight with
                  | Some t0 ->
                      let ms = Clock.since t0 *. 1000. in
                      Metrics.observe hist ms;
                      if ms > !rtt_max then rtt_max := ms
                  | None -> ());
                  classify reply;
                  sample_tick ();
                  go rest)
        in
        go (Wire.take_lines c.inbuf)
      in
      let outstanding () =
        Array.fold_left (fun acc c -> acc + Queue.length c.inflight) 0 conns
      in
      (* Closed loop: keep every connection at its pipeline depth from
         the shared time-ordered request list, then wait for responses. *)
      let rec drive idle =
        let sent = ref false in
        Array.iter
          (fun c ->
            while
              Queue.length c.inflight < max 1 cfg.pipeline && !requests <> []
            do
              match !requests with
              | [] -> ()
              | r :: rest ->
                  requests := rest;
                  Queue.add (Clock.now ()) c.inflight;
                  send_line c.fd (Wire.request_to_line r);
                  sent := true
            done)
          conns;
        if !requests = [] && outstanding () = 0 then Ok ()
        else begin
          let fds =
            Array.to_list conns
            |> List.filter_map (fun c ->
                   if Queue.is_empty c.inflight then None else Some c.fd)
          in
          match Unix.select fds [] [] 1.0 with
          | [], _, _ ->
              if (not !sent) && idle > 30 then
                Error
                  (Printf.sprintf
                     "timed out with %d responses outstanding" (outstanding ()))
              else drive (idle + 1)
          | readable, _, _ ->
              let err = ref None in
              List.iter
                (fun fd ->
                  match
                    Array.to_list conns |> List.find_opt (fun c -> c.fd == fd)
                  with
                  | None -> ()
                  | Some c -> (
                      let bytes = Bytes.create 8192 in
                      match Unix.read fd bytes 0 8192 with
                      | 0 ->
                          err :=
                            Some
                              (Printf.sprintf
                                 "server closed the connection with %d \
                                  responses outstanding"
                                 (outstanding ()))
                      | n -> (
                          Buffer.add_subbytes c.inbuf bytes 0 n;
                          match consume c with
                          | Ok () -> ()
                          | Error m -> err := Some m)
                      | exception Unix.Unix_error (e, _, _) ->
                          err := Some (Unix.error_message e)))
                readable;
              (match !err with Some m -> Error m | None -> drive 0)
        end
      in
      let result =
        match drive 0 with
        | Error m ->
            finally ();
            Error m
        | Ok () ->
            Tracer.sample_metrics ();
            let duration_s = Clock.since started in
            (* One last round trip: the state the run left behind, for
               cross-checking against [rota audit] of the daemon's WAL. *)
            let digest =
              let c = conns.(0) in
              match
                send_line c.fd
                  (Wire.request_to_line
                     { Wire.tag = Json.Null; op = Wire.Query "residual-digest" });
                Unix.select [ c.fd ] [] [] 5.0
              with
              | [], _, _ -> None
              | _ -> (
                  let bytes = Bytes.create 8192 in
                  match Unix.read c.fd bytes 0 8192 with
                  | 0 -> None
                  | n -> (
                      let line =
                        String.trim (Bytes.sub_string bytes 0 n)
                      in
                      match Wire.response_of_line line with
                      | Ok { Wire.reply = Wire.Info fields; _ } -> (
                          match List.assoc_opt "digest" fields with
                          | Some (Json.String d) -> Some d
                          | _ -> None)
                      | _ -> None)
                  | exception Unix.Unix_error _ -> None)
            in
            finally ();
            let q p = Metrics.quantile hist p in
            Ok
              {
                offered;
                joins;
                admitted = !admitted;
                rejected = !rejected;
                shed = !shed;
                failed = !failed;
                duration_s;
                rtt_ms = (q 0.5, q 0.9, q 0.95, q 0.99);
                rtt_mean_ms = Metrics.hist_mean hist;
                rtt_max_ms = !rtt_max;
                digest;
              }
      in
      result

let pp_report ppf r =
  let p50, p90, p95, p99 = r.rtt_ms in
  Format.fprintf ppf
    "@[<v>offered %d (joins %d): admitted %d, rejected %d, shed %d, failed %d@,\
     %.2fs wall, %.1f req/s@,\
     rtt ms: mean %.3f  p50 %.3f  p90 %.3f  p95 %.3f  p99 %.3f  max %.3f"
    r.offered r.joins r.admitted r.rejected r.shed r.failed r.duration_s
    (float_of_int (r.offered + r.joins) /. max 1e-9 r.duration_s)
    r.rtt_mean_ms p50 p90 p95 p99 r.rtt_max_ms;
  (match r.digest with
  | Some d -> Format.fprintf ppf "@,residual digest: %s" d
  | None -> ());
  Format.fprintf ppf "@]"

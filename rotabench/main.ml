open Import

(* rotabench: the repository's end-to-end and per-layer benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--rota PATH]

   With --trace 0 it measures one workload end to end (a real [rota
   serve] daemon, or the simulator) for S seconds; with --trace 1 it
   makes the traced run that breaks the same work down by layer.  Every
   run checks its outputs; the last line of standard output is the
   result as one JSON object.  See rotabench/NOTES.md. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let json_number v =
  if not (Float.is_finite v) then "-1"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line r =
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " metrics)

let say fmt = Printf.printf (fmt ^^ "\n%!")
let ( let* ) = Result.bind

let report_notes (t : Serve.tally) =
  List.iter (fun n -> say "CHECK FAILED: %s" n) (List.rev t.Serve.notes)

(* --- end to end: a serve workload --------------------------------------- *)

let live_reached (reqs : Workload.request array) (p : Client.phase) =
  let mx = ref 0 and sum = ref 0 in
  for i = p.Client.first to p.Client.last - 1 do
    mx := max !mx reqs.(i).Workload.live;
    sum := !sum + reqs.(i).Workload.live
  done;
  (!mx, float !sum /. float (max 1 (p.Client.last - p.Client.first)))

let serve_e2e ctx spec ~seed ~seconds =
  let reqs = Serve.prepare spec ~seed in
  let* o =
    Serve.run ctx spec reqs ~mode:(Serve.Timed seconds) ~setups:spec.Workload.setups
  in
  let p = o.Serve.phase in
  let attempted = p.Client.last - p.Client.first in
  let verdicts, admitted = Serve.verdicts reqs p in
  let admit = Serve.rtts reqs p Workload.Admit
  and release = Serve.rtts reqs p Workload.Release
  and query = Serve.rtts reqs p Workload.Query in
  let t = o.Serve.tally in
  let failed = t.Serve.failed + t.Serve.wrong in
  let q = Stats.quantile in
  let live_max, live_mean = live_reached reqs p in
  (* The median second, so a stall of a second or two moves it less
     than it moves the mean. *)
  let rates = Serve.window_rates reqs p in
  let rate = if rates = [] then float verdicts /. p.Client.wall_s else Stats.median rates in
  say "workload %s, seed %d: closed loop, 1 connection, pipeline depth %d, %.2f s measured"
    spec.Workload.name seed spec.Workload.pipeline p.Client.wall_s;
  say
    "  reached: %d requests (%d admit, %d release, %d query), %d verdicts, admit ratio %.3f, \
     live commitments max %d mean %.1f, WAL +%d bytes"
    attempted (Array.length admit) (Array.length release) (Array.length query) verdicts
    (float admitted /. float (max 1 verdicts))
    live_max live_mean o.Serve.wal_bytes;
  if p.Client.last >= Array.length reqs then
    say "  note: the generated sequence ran out before the time was up";
  say "  setup_s (median of %d): %.4f s   [%s]" (List.length o.Serve.setup_s)
    (Stats.median o.Serve.setup_s)
    (String.concat " " (List.map (Printf.sprintf "%.4f") o.Serve.setup_s));
  say "  decisions_per_s: %.1f 1/s (median of %d one-second windows; %.1f over the whole phase)"
    rate (List.length rates) (float verdicts /. p.Client.wall_s);
  say "  admit_rtt: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms (n=%d%s)" (q admit 0.5) (q admit 0.9)
    (q admit 0.99) (Array.length admit)
    (if Stats.p99_ok (Array.length admit) then "" else ", too few for p99");
  say "  release_rtt: p50 %.4f ms (n=%d)" (q release 0.5) (Array.length release);
  say "  query_rtt: p50 %.4f ms, p99 %.4f ms (n=%d%s)" (q query 0.5) (q query 0.99)
    (Array.length query)
    (if Stats.p99_ok (Array.length query) then "" else ", too few for p99");
  say "  failed_ratio: %.6f (%d failed or shed, %d differ from the oracle, of %d)"
    (float failed /. float (max 1 attempted))
    t.Serve.failed t.Serve.wrong attempted;
  say "  wal_bytes_per_decision: %.1f bytes" (float o.Serve.wal_bytes /. float (max 1 verdicts));
  say "  peak_rss_mb (daemon VmHWM): %.2f MB" o.Serve.rss_mb;
  report_notes t;
  Ok
    {
      correct = t.Serve.notes = [] && failed = 0;
      attempted;
      failed;
      metrics =
        [
          m "setup_s" "s" (Stats.median o.Serve.setup_s);
          m "decisions_per_s" "1/s" rate;
          m "admit_rtt_p50_ms" "ms" (q admit 0.5);
          m "admit_rtt_p90_ms" "ms" (q admit 0.9);
          m "release_rtt_p50_ms" "ms" (q release 0.5);
          m "peak_rss_mb" "MB" o.Serve.rss_mb;
        ];
    }

(* --- end to end: the simulator ------------------------------------------ *)

let sim_e2e spec ~seed ~seconds =
  let params = Workload.sim_params spec ~seed in
  (* Generate the inputs several times and keep the last copy only. *)
  let setup_s = ref [] and inputs = ref None in
  for _ = 1 to spec.Workload.setups do
    inputs := None;
    let t0 = now_ns () in
    inputs := Some (Sim.inputs ~intensity:spec.Workload.intensity params);
    setup_s := since_s t0 :: !setup_s
  done;
  let inputs = Option.get !inputs and setup_s = List.rev !setup_s in
  let deadline = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  (* Every repetition does the same work, so the first one reaches the
     simulation's peak; reading it then keeps the samples this benchmark
     stores for later repetitions out of the figure. *)
  let first = Sim.run_all inputs in
  let rss = Proc.hwm_mb "/proc/self/status" in
  let rec loop sets =
    if now_ns () >= deadline then List.rev sets else loop (Sim.run_all inputs :: sets)
  in
  let sets = loop [ first ] in
  let runs = List.concat sets in
  let counts set = List.map (fun r -> r.Sim.counts) set in
  let reference = counts (List.hd sets) in
  let repeat = List.for_all (fun s -> counts s = reference) sets in
  let clean = List.for_all (fun r -> Sim.audit_clean r.Sim.counts) runs in
  let sum f rs = List.fold_left (fun a r -> a + f r.Sim.counts) 0 rs in
  let verdicts_of = sum (fun c -> c.Sim.admitted + c.Sim.rejected)
  and wall_of rs = List.fold_left (fun a r -> a +. r.Sim.wall_s) 0. rs in
  let verdicts = verdicts_of runs and wall = wall_of runs in
  let rate = Stats.median (List.map (fun set -> float (verdicts_of set) /. wall_of set) sets) in
  let gaps = Stats.sorted (List.concat_map (fun r -> r.Sim.verdict_gaps_ms) runs)
  and completions = Stats.sorted (List.concat_map (fun r -> r.Sim.completion_gaps_ms) runs) in
  let q = Stats.quantile in
  let failed = sum (fun c -> c.Sim.audit_decisions - c.Sim.audited + c.Sim.divergences) runs in
  say
    "workload %s, seed %d: %d x the work of rota simulate --seed %d --arrivals %d --horizon %d \
     --locations %d --slack %g --faults %g --watchdog; %.2f s of engine time"
    spec.Workload.name seed (List.length sets) seed params.Scenario.arrivals
    params.Scenario.horizon params.Scenario.locations params.Scenario.slack
    spec.Workload.intensity wall;
  List.iter
    (fun c ->
      say
        "  %-17s offered %d admitted %d rejected %d on-time %d missed %d revoked %d repaired %d \
         audited %d/%d divergent %d"
        c.Sim.policy c.Sim.offered c.Sim.admitted c.Sim.rejected c.Sim.on_time c.Sim.missed
        c.Sim.revoked c.Sim.repaired c.Sim.audited c.Sim.audit_decisions c.Sim.divergences)
    reference;
  say "  setup_s (median of %d): %.5f s" (List.length setup_s) (Stats.median setup_s);
  say "  decisions_per_s: %.1f 1/s (median of %d repetitions; %.1f over all of them)" rate
    (List.length sets) (float verdicts /. wall);
  say "  admit_rtt (engine time between verdicts): p50 %.5f ms, p90 %.5f ms, p99 %.5f ms (n=%d)"
    (q gaps 0.5) (q gaps 0.9) (q gaps 0.99) (Array.length gaps);
  say "  release_rtt (engine time before a completion): p50 %.5f ms (n=%d)" (q completions 0.5)
    (Array.length completions);
  say "  peak_rss_mb (this process): %.2f MB" rss;
  if not repeat then say "CHECK FAILED: per-policy report counts differ between repetitions";
  if not clean then say "CHECK FAILED: the live watchdog did not verify every decision cleanly";
  Ok
    {
      correct = repeat && clean;
      attempted = verdicts;
      failed;
      metrics =
        [
          m "setup_s" "s" (Stats.median setup_s);
          m "decisions_per_s" "1/s" rate;
          m "admit_rtt_p50_ms" "ms" (q gaps 0.5);
          m "admit_rtt_p90_ms" "ms" (q gaps 0.9);
          m "release_rtt_p50_ms" "ms" (q completions 0.5);
          m "peak_rss_mb" "MB" rss;
        ];
    }

(* --- the traced run ----------------------------------------------------- *)

(* The layers the daemon runs in sequence for every request; their self
   times plus the unattributed remainder make up the wall time per
   request the daemon phase measured. *)
let path_layers =
  [
    "wire.parse"; "replica.admit"; "replica.release"; "replica.query"; "replica.join";
    "wal.append"; "wal.sync"; "audit.observe"; "wire.reply";
  ]

(* Timed inside [replica.admit] by probes on the pre-state controller. *)
let probe_layers =
  [
    "admission.advance"; "admission.request"; "certificate.force"; "certificate.digest";
    "certificate.to_json";
  ]

let traced ctx spec ~seed =
  let reqs = Serve.prepare spec ~seed in
  let* o =
    Serve.run ctx spec reqs ~mode:(Serve.Count spec.Workload.traced) ~setups:1
  in
  let p = o.Serve.phase in
  let n = p.Client.last - p.Client.first in
  let dir = Filename.concat ctx.Serve.work "replay" in
  (match o.Serve.prefix_dir with
  | Some src -> Proc.copy_dir src dir
  | None ->
      Proc.remove_tree dir;
      Unix.mkdir dir 0o755);
  let r = Traced.replay ~dir ~reqs ~first:p.Client.first ~count:n ~depth:spec.Workload.pipeline in
  let sims =
    Sim.run_all (Sim.inputs ~intensity:spec.Workload.intensity (Workload.sim_params spec ~seed))
  in
  let t = o.Serve.tally in
  let tbl = r.Traced.spans in
  let mean = Spans.mean_us tbl and total = Spans.total_us tbl in
  let wall_per_req_us = p.Client.wall_s *. 1e6 /. float n in
  let per_req name = total name /. float n in
  let attributed = List.fold_left (fun a l -> a +. per_req l) 0. path_layers in
  let unattributed = wall_per_req_us -. attributed in
  let logged = Serve.logged reqs p in
  let fsyncs = o.Serve.scrape_delta "server/fsync_s#count" in
  let live_divergences = o.Serve.scrape_delta "audit/divergence" in
  say
    "workload %s, seed %d: traced run over %d requests (daemon phase, then the same requests \
     in-process)"
    spec.Workload.name seed n;
  say
    "  daemon phase: %.3f s, %.1f us wall per request, client busy %.3f s, %d logged requests \
     in %.0f fsyncs, %.0f live-audit divergences"
    p.Client.wall_s wall_per_req_us p.Client.busy_s logged fsyncs live_divergences;
  say
    "  reached: %d verdicts, admit ratio %.3f, ledger before each admit mean %.1f max %d, \
     residual terms mean %.1f max %d, watchdog live commitments mean %.1f max %d, WAL +%d bytes"
    r.Traced.verdicts
    (float r.Traced.admitted /. float (max 1 r.Traced.verdicts))
    r.Traced.ledger_mean r.Traced.ledger_max r.Traced.residual_mean r.Traced.residual_max
    r.Traced.live_mean r.Traced.live_max r.Traced.wal_bytes;
  say "  %-44s %12s %12s %8s" "layer (self time)" "us/call" "us/request" "share";
  let row ?(indent = "") name =
    match Hashtbl.find_opt tbl name with
    | Some c when c.Spans.calls > 0 ->
        say "  %-44s %12.2f %12.2f %7.1f%%" (indent ^ name) (mean name) (per_req name)
          (100. *. per_req name /. wall_per_req_us)
    | _ -> ()
  in
  List.iter
    (fun l ->
      row l;
      if l = "replica.admit" then List.iter (row ~indent:"  inside replica.admit: ") probe_layers)
    path_layers;
  say "  %-44s %12s %12.2f %7.1f%%" "daemon.unattributed" "" unattributed
    (100. *. unattributed /. wall_per_req_us);
  say "  %-44s %12s %12.2f %7.1f%%" "= daemon wall per request" "" wall_per_req_us 100.;
  say
    "  recovery of the starting state: recover %.4f s, audit pass %.4f s, replay pass %.4f s \
     over %d records"
    r.Traced.recover_s r.Traced.audit_s r.Traced.replay_s r.Traced.records;
  List.iter
    (fun (s : Sim.run) ->
      let c = s.Sim.counts in
      say "  engine %-17s %.4f s, %d decisions, %d repaired, %d revoked, audited %d/%d" c.Sim.policy
        s.Sim.wall_s (c.Sim.admitted + c.Sim.rejected) c.Sim.repaired c.Sim.revoked c.Sim.audited
        c.Sim.audit_decisions)
    sims;
  if live_divergences > 0. then
    say
      "  note: the daemon's live watchdog starts with an empty ledger after recovery, so it \
       flags decisions the offline auditor verifies (%.0f here)"
      live_divergences;
  report_notes t;
  if r.Traced.mismatches > 0 then
    say "CHECK FAILED: %d in-process replies differ from the oracle" r.Traced.mismatches;
  let sims_clean = List.for_all (fun s -> Sim.audit_clean s.Sim.counts) sims in
  if not sims_clean then say "CHECK FAILED: the engine's live watchdog flagged a decision";
  let sum f = List.fold_left (fun a s -> a + f s.Sim.counts) 0 sims in
  let failed = t.Serve.failed + t.Serve.wrong + r.Traced.mismatches in
  Ok
    {
      correct = t.Serve.notes = [] && failed = 0 && sims_clean;
      attempted = n;
      failed;
      metrics =
        [
          m "wire.parse_us" "us" (mean "wire.parse");
          m "wire.reply_us" "us" (mean "wire.reply");
          m "wire.request_bytes" "bytes" (float r.Traced.request_bytes /. float n);
          m "replica.admit_us" "us" (mean "replica.admit");
          m "replica.release_us" "us" (mean "replica.release");
          m "replica.query_us" "us" (mean "replica.query");
          m "admission.advance_us" "us" (mean "admission.advance");
          m "admission.request_us" "us" (mean "admission.request");
          m "admission.ledger_size" "count" r.Traced.ledger_mean;
          m "certificate.force_us" "us" (mean "certificate.force");
          m "certificate.digest_us" "us" (mean "certificate.digest");
          m "certificate.to_json_us" "us" (mean "certificate.to_json");
          m "certificate.residual_terms" "count" r.Traced.residual_mean;
          m "wal.append_us" "us" (mean "wal.append");
          m "wal.sync_us" "us" (mean "wal.sync");
          m "wal.bytes_per_decision" "bytes"
            (float r.Traced.wal_bytes /. float (max 1 r.Traced.verdicts));
          m "wal.requests_per_sync" "count" (float logged /. Float.max 1. fsyncs);
          m "audit.observe_us" "us" (mean "audit.observe");
          m "audit.live_commitments" "count" r.Traced.live_mean;
          m "audit.live_divergences" "count" live_divergences;
          m "recovery.recover_s" "s" r.Traced.recover_s;
          m "recovery.audit_s" "s" r.Traced.audit_s;
          m "recovery.replay_s" "s" r.Traced.replay_s;
          m "recovery.records" "count" (float r.Traced.records);
          m "daemon.request_us" "us" wall_per_req_us;
          m "daemon.unattributed_us" "us" unattributed;
          m "loadgen.busy_s" "s" p.Client.busy_s;
        ]
        @ List.map
            (fun (s : Sim.run) -> m ("engine.run_s." ^ s.Sim.counts.Sim.policy) "s" s.Sim.wall_s)
            sims
        @ [
            m "engine.decisions" "count" (float (sum (fun c -> c.Sim.admitted + c.Sim.rejected)));
            m "engine.repaired" "count" (float (sum (fun c -> c.Sim.repaired)));
            m "engine.revoked" "count" (float (sum (fun c -> c.Sim.revoked)));
          ];
    }


(* --- command line ------------------------------------------------------- *)

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--rota PATH]";
  exit 2

let () =
  (* A dead daemon surfaces as a write error, not as our death; a killed
     benchmark still reaps its daemons (at_exit in Proc). *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun (signal, code) -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit code)))
    [ (Sys.sigterm, 143); (Sys.sigint, 130) ];
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let spec =
    match Option.bind (get "workload") Workload.find with Some s -> s | None -> usage ()
  in
  let int k = match Option.bind (get k) int_of_string_opt with Some i -> i | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" <> 0 in
  let rota = Option.value (get "rota") ~default:"_build/default/bin/main.exe" in
  if not (Sys.file_exists rota) then begin
    Printf.eprintf "rotabench: no rota binary at %s\n" rota;
    exit 2
  end;
  let base = ".rotabench" in
  let work = Filename.concat base (Printf.sprintf "%s-%d" spec.Workload.name (Unix.getpid ())) in
  if not (Sys.file_exists base) then Unix.mkdir base 0o755;
  Proc.remove_tree work;
  Unix.mkdir work 0o755;
  at_exit (fun () ->
      Proc.kill_all ();
      Proc.remove_tree work;
      try Unix.rmdir base with Unix.Unix_error _ -> ());
  let ctx = { Serve.rota; work } in
  let outcome =
    try
      if trace then traced ctx spec ~seed
      else
        match spec.Workload.e2e with
        | `Serve -> serve_e2e ctx spec ~seed ~seconds:(float seconds)
        | `Sim -> sim_e2e spec ~seed ~seconds:(float seconds)
    with e -> Error (Printexc.to_string e)
  in
  match outcome with
  | Error msg ->
      Printf.eprintf "rotabench: %s\n%!" msg;
      exit 1
  | Ok r ->
      let finite = List.for_all (fun x -> Float.is_finite x.value) r.metrics in
      if not finite then say "CHECK FAILED: a metric could not be measured";
      print_endline (result_line { r with correct = r.correct && finite });
      exit (if r.correct && finite then 0 else 1)

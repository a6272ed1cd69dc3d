(* The rota command-line tool: run experiments, simulate open-system
   traces under different admission policies, and check single admission
   questions with certificates. *)

module Interval = Rota_interval.Interval
module Term = Rota_resource.Term
module Located_type = Rota_resource.Located_type
module Location = Rota_resource.Location
module Resource_set = Rota_resource.Resource_set
module Accommodation = Rota.Accommodation
module Admission = Rota_scheduler.Admission
module Engine = Rota_sim.Engine
module Trace = Rota_sim.Trace
module Scenario = Rota_workload.Scenario
module Computation = Rota_actor.Computation
module Cost_model = Rota_actor.Cost_model
module Document = Rota_syntax.Document

open Cmdliner

let seed_arg =
  let doc = "Random seed for workload generation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let file_arg =
  let doc =
    "Read the scenario (resources and computations) from a file in the \
     scenario language instead of generating one (see examples/*.rota)."
  in
  Arg.(value & opt (some file) None & info [ "file"; "f" ] ~docv:"FILE" ~doc)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_document path =
  match Document.parse (read_file path) with
  | Ok doc -> Ok doc
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

(* --- telemetry flags ----------------------------------------------------- *)

let trace_arg =
  let doc =
    "Write telemetry (engine events and spans) to $(docv), one JSON object \
     per line.  Schema: doc/observability.md."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.jsonl" ~doc)

let metrics_arg =
  let doc =
    "Record counters and latency histograms during the run and print a \
     summary table at exit."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let sample_every_arg =
  let doc =
    "With $(b,--trace): emit a metric-sample event for every counter and \
     gauge each $(docv) simulated ticks, so registry series become time \
     series inside the trace.  0 disables sampling."
  in
  Arg.(value & opt int 25 & info [ "sample-every" ] ~docv:"TICKS" ~doc)

let trace_buffer_arg =
  let doc =
    "With $(b,--trace): flush the trace file every $(docv) events instead \
     of after each one.  The default (1) survives interruption with every \
     completed event on disk; larger values amortize the flush syscall for \
     high-rate tracing."
  in
  Arg.(value & opt int 1 & info [ "trace-buffer" ] ~docv:"N" ~doc)

let trace_format_arg =
  let doc =
    "With $(b,--trace): wire format to write — $(b,jsonl) (one JSON object \
     per line, the default) or $(b,binary) (the compact length-prefixed \
     ROTB format, roughly a third the bytes; record layout in \
     doc/observability.md).  Every $(b,rota trace) tool auto-detects the \
     format on read; $(b,rota trace convert) rewrites a binary trace as \
     JSONL for line-oriented tooling."
  in
  Arg.(
    value
    & opt (enum [ ("jsonl", `Jsonl); ("binary", `Binary) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT" ~doc)

let watchdog_arg =
  let doc =
    "Run the live audit watchdog next to the run: every decision \
     certificate is re-verified through the independent validator as it \
     is emitted, divergences are written back into the trace as \
     audit-divergence events, and a summary line is printed at exit.  \
     $(docv) is $(b,warn) (default: report and keep going) or \
     $(b,fail-fast) (abort at the first divergence with a nonzero exit \
     naming the decision)."
  in
  Arg.(
    value
    & opt
        ~vopt:(Some Rota_audit.Watchdog.Warn)
        (some
           (enum
              [
                ("warn", Rota_audit.Watchdog.Warn);
                ("fail-fast", Rota_audit.Watchdog.Fail_fast);
              ]))
        None
    & info [ "watchdog" ] ~docv:"MODE" ~doc)

let metrics_out_arg =
  let doc =
    "Write an OpenMetrics/Prometheus text snapshot of the metrics registry \
     to $(docv) (atomically, write-then-rename): refreshed during the run \
     every $(b,--metrics-every) telemetry events, and once more at exit.  \
     Implies metrics recording.  This file is the scrape surface a \
     monitoring agent (or the future serve daemon) reads."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let metrics_every_arg =
  let doc =
    "With $(b,--metrics-out): rewrite the snapshot after every $(docv) \
     telemetry events observed (clamped to >= 1)."
  in
  Arg.(value & opt int 1000 & info [ "metrics-every" ] ~docv:"N" ~doc)

type obs_opts = {
  trace : string option;
  metrics : bool;
  sample_every : int;
  trace_buffer : int;
  trace_format : [ `Jsonl | `Binary ];
  watchdog : Rota_audit.Watchdog.mode option;
  metrics_out : string option;
  metrics_every : int;
}

let obs_args =
  Term.(
    const (fun trace metrics sample_every trace_buffer trace_format watchdog
              metrics_out metrics_every ->
        {
          trace;
          metrics;
          sample_every;
          trace_buffer;
          trace_format;
          watchdog;
          metrics_out;
          metrics_every;
        })
    $ trace_arg $ metrics_arg $ sample_every_arg $ trace_buffer_arg
    $ trace_format_arg $ watchdog_arg $ metrics_out_arg $ metrics_every_arg)

exception Interrupted of int
(* Raised out of the SIGTERM/SIGINT handlers [with_obs] installs; the
   payload is the conventional exit code (143/130). *)

(* Install the requested sinks/registry around [f], and tear them down
   (flushing files, printing the metrics tables) afterwards — also on
   exceptions and on SIGTERM/SIGINT, so a failed or interrupted run
   still leaves a valid trace prefix. *)
let with_obs ?(console = false)
    {
      trace;
      metrics;
      sample_every;
      trace_buffer;
      trace_format;
      watchdog;
      metrics_out;
      metrics_every;
    } f =
  let file_sink_for =
    match trace_format with
    | `Jsonl -> Rota_obs.Sink.jsonl_file
    | `Binary -> Rota_obs.Sink.binary_file
  in
  match
    Option.map
      (fun path ->
        try Ok (file_sink_for ~flush_every:(max 1 trace_buffer) path)
        with Sys_error msg -> Error msg)
      trace
  with
  | Some (Error msg) ->
      Printf.eprintf "rota: cannot open trace file: %s\n" msg;
      1
  | (None | Some (Ok _)) as file_sink ->
  let wd = Option.map (fun mode -> Rota_audit.Watchdog.create ~mode ()) watchdog in
  let sinks =
    List.filter_map Fun.id
      [
        (match file_sink with Some (Ok s) -> Some s | _ -> None);
        (if console then Some (Rota_obs.Sink.console Format.std_formatter)
         else None);
        (* The snapshot writer only counts events (and rewrites the
           OpenMetrics file at its cadence plus once on close). *)
        Option.map
          (fun path ->
            Rota_obs.Openmetrics.snapshot_sink ~every:metrics_every path)
          metrics_out;
        (* The watchdog tees last, so the trace file already holds the
           decision line the verdict is about when it is re-verified. *)
        Option.map Rota_audit.Watchdog.sink wd;
      ]
  in
  (match sinks with
  | [] -> ()
  | first :: rest ->
      Rota_obs.Tracer.install (List.fold_left Rota_obs.Sink.tee first rest));
  Option.iter Rota_audit.Watchdog.install wd;
  Rota_obs.Tracer.set_sample_period (if trace = None then 0 else sample_every);
  (* Sampling and the snapshot writer read the registry, so a traced
     run with sampling on — or any run with --metrics-out — records
     metrics even without --metrics (which only controls the printed
     report). *)
  let record_metrics =
    metrics || metrics_out <> None || (trace <> None && sample_every > 0)
  in
  if record_metrics then Rota_obs.Metrics.set_enabled true;
  let finally () =
    Rota_obs.Tracer.uninstall ();
    Rota_audit.Watchdog.uninstall ();
    Rota_obs.Tracer.set_sample_period 0;
    if record_metrics then Rota_obs.Metrics.set_enabled false;
    Option.iter
      (fun w ->
        Format.printf "%a@." Rota_audit.Watchdog.pp_stats
          (Rota_audit.Watchdog.stats w))
      wd;
    if metrics then begin
      print_newline ();
      Rota_experiments.Metrics_report.print ()
    end
  in
  (* SIGTERM/SIGINT land as an exception at the next safe point, so the
     [finally] above — sink teardown, trace flush, metrics snapshot —
     runs on an interrupted run exactly as on a completed one; [at_exit]
     alone would miss buffered tail events on some sinks.  Previous
     handlers are restored so nested uses (e.g. the serve daemon, which
     installs its own drain handlers) are unaffected. *)
  let previous =
    List.filter_map
      (fun (signal, code) ->
        match
          Sys.signal signal
            (Sys.Signal_handle (fun _ -> raise (Interrupted code)))
        with
        | old -> Some (signal, old)
        | exception (Invalid_argument _ | Sys_error _) -> None)
      [ (Sys.sigterm, 143); (Sys.sigint, 130) ]
  in
  let restore () =
    List.iter
      (fun (signal, old) ->
        try Sys.set_signal signal old with Invalid_argument _ | Sys_error _ -> ())
      previous
  in
  Fun.protect ~finally @@ fun () ->
  match f () with
  | code ->
      restore ();
      code
  | exception Interrupted code ->
      restore ();
      Format.eprintf "rota: interrupted; telemetry flushed@.";
      code
  | exception Rota_audit.Watchdog.Trip { seq; id; message } ->
      restore ();
      Format.eprintf
        "rota: watchdog tripped (fail-fast) at seq %d on decision %s: %s@." seq
        id message;
      1

(* --- rota experiment --------------------------------------------------- *)

let run_experiment seed id obs =
  with_obs obs (fun () ->
      match Rota_experiments.Experiments.run ~seed id with
      | Ok () -> 0
      | Error msg ->
          prerr_endline msg;
          1)

let experiment_cmd =
  let id_arg =
    let doc =
      Printf.sprintf "Experiment to run: %s, or $(b,all)."
        (String.concat ", " Rota_experiments.Experiments.all_ids)
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
  in
  let run seed id obs = run_experiment seed id obs in
  let doc = "Run the experiment suite (see EXPERIMENTS.md)." in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(const run $ seed_arg $ id_arg $ obs_args)

(* One top-level alias per experiment, so [rota e6 --trace run.jsonl
   --metrics] works without the [experiment] prefix. *)
let experiment_alias_cmds =
  List.map
    (fun id ->
      let doc =
        Option.value
          (Rota_experiments.Experiments.description id)
          ~default:"Run this experiment."
      in
      Cmd.v (Cmd.info id ~doc)
        Term.(const (fun seed obs -> run_experiment seed id obs)
              $ seed_arg $ obs_args))
    Rota_experiments.Experiments.all_ids

(* --- rota simulate ------------------------------------------------------ *)

let policy_conv =
  let parse s =
    match
      List.find_opt
        (fun p -> String.equal (Admission.policy_name p) s)
        Admission.all_policies
    with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown policy %S (expected %s)" s
               (String.concat ", "
                  (List.map Admission.policy_name Admission.all_policies))))
  in
  let print ppf p = Format.pp_print_string ppf (Admission.policy_name p) in
  Arg.conv (parse, print)

let simulate_cmd =
  let policy_arg =
    let doc = "Admission policy (or $(b,all) via repeated runs)." in
    Arg.(
      value
      & opt (some policy_conv) None
      & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let arrivals_arg =
    Arg.(value & opt int 30 & info [ "arrivals" ] ~docv:"N"
           ~doc:"Number of computations offered.")
  in
  let horizon_arg =
    Arg.(value & opt int 200 & info [ "horizon" ] ~docv:"T"
           ~doc:"Trace horizon in ticks.")
  in
  let locations_arg =
    Arg.(value & opt int 3 & info [ "locations" ] ~docv:"K"
           ~doc:"Number of nodes.")
  in
  let slack_arg =
    Arg.(value & opt float 2.0 & info [ "slack" ] ~docv:"S"
           ~doc:"Deadline slack factor (1.0 = just feasible in isolation).")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ]
           ~doc:"Print one line per engine event (admission decisions, \
                 completions, deadline kills) as it happens, in \
                 simulated-time order.")
  in
  let faults_arg =
    Arg.(value & opt float 0.0 & info [ "faults" ] ~docv:"INTENSITY"
           ~doc:"Inject a generated fault plan of this intensity \
                 (roughly 8*INTENSITY unannounced revocations, blackouts, \
                 slowdowns and rejoins; 0 disables).  With $(b,--file), \
                 the document's own fault stanzas are used instead.")
  in
  let fault_seed_arg =
    Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Vary the generated fault plan without disturbing the \
                 workload.")
  in
  let no_repair_arg =
    Arg.(value & flag & info [ "no-repair" ]
           ~doc:"Disable the commitment-repair ladder: broken commitments \
                 stall and die at their deadlines.")
  in
  let run seed policy arrivals horizon locations slack verbose intensity
      fault_seed no_repair file obs =
    let inputs_result =
      match file with
      | Some path ->
          Result.map
            (fun doc -> (Document.to_trace doc, doc.Document.faults))
            (load_document path)
      | None ->
          let params =
            {
              Scenario.default_params with
              seed;
              arrivals;
              horizon;
              locations;
              slack;
            }
          in
          Ok (Scenario.trace params, Scenario.fault_plan ~fault_seed ~intensity params)
    in
    match inputs_result with
    | Error e ->
        prerr_endline e;
        1
    | Ok (trace, faults) ->
    let policies =
      match policy with Some p -> [ p ] | None -> Admission.all_policies
    in
    (* Outcome narration goes through the telemetry sink (the console
       sink when --verbose): one ordered stream of simulated-time events
       instead of a second, post-hoc rendering of the report. *)
    with_obs ~console:verbose obs (fun () ->
        List.iter
          (fun policy ->
            let report = Engine.run ~faults ~repair:(not no_repair) ~policy trace in
            Format.printf "%a@." Engine.pp_report report)
          policies;
        0)
  in
  let doc = "Simulate an open-system trace under admission policies." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ seed_arg $ policy_arg $ arrivals_arg $ horizon_arg
      $ locations_arg $ slack_arg $ verbose_arg $ faults_arg $ fault_seed_arg
      $ no_repair_arg $ file_arg $ obs_args)

(* --- rota check ---------------------------------------------------------- *)

let check_cmd =
  let arrivals_arg =
    Arg.(value & opt int 8 & info [ "arrivals" ] ~docv:"N"
           ~doc:"Number of generated computations to check one by one.")
  in
  let run seed arrivals file obs =
    with_obs obs @@ fun () ->
    let inputs =
      match file with
      | Some path ->
          Result.map
            (fun doc ->
              ( Document.capacity doc,
                doc.Document.computations,
                doc.Document.sessions ))
            (load_document path)
      | None ->
          let params =
            { Scenario.default_params with seed; arrivals; horizon = 150 }
          in
          Ok (Scenario.capacity_of params, Scenario.computations params, [])
    in
    match inputs with
    | Error e ->
        prerr_endline e;
        1
    | Ok (capacity, computations, sessions) ->
        let ctrl = ref (Admission.create Admission.Rota capacity) in
        Format.printf "capacity: %a@.@." Resource_set.pp capacity;
        let print_schedules outcome =
          match outcome.Admission.schedules with
          | Some schedules ->
              List.iter
                (fun (actor, schedule) ->
                  Format.printf "  %a: %a@." Rota_actor.Actor_name.pp actor
                    Accommodation.pp_schedule schedule)
                schedules
          | None -> ()
        in
        List.iter
          (fun (c : Computation.t) ->
            let next, outcome = Admission.request !ctrl ~now:0 c in
            ctrl := next;
            Format.printf "%a -> %a@." Computation.pp c Admission.pp_outcome
              outcome;
            print_schedules outcome)
          computations;
        List.iter
          (fun (s : Rota.Session.t) ->
            let next, outcome = Admission.request_session !ctrl ~now:0 s in
            ctrl := next;
            Format.printf "%a -> %a@." Rota.Session.pp s Admission.pp_outcome
              outcome;
            print_schedules outcome)
          sessions;
        0
  in
  let doc =
    "Ask the Theorem-4 question for a stream of computations, printing \
     admission decisions and schedule certificates."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ seed_arg $ arrivals_arg $ file_arg $ obs_args)

(* --- rota plan ------------------------------------------------------------ *)

let plan_cmd =
  let home_rate_arg =
    Arg.(value & opt int 1 & info [ "home-rate" ] ~docv:"R"
           ~doc:"CPU rate at the home node.")
  in
  let remote_rate_arg =
    Arg.(value & opt int 2 & info [ "remote-rate" ] ~docv:"R"
           ~doc:"CPU rate at the remote node.")
  in
  let net_rate_arg =
    Arg.(value & opt int 3 & info [ "net-rate" ] ~docv:"R"
           ~doc:"Link rate between the nodes, both ways.")
  in
  let work_arg =
    Arg.(value & opt int 2 & info [ "evaluations" ] ~docv:"N"
           ~doc:"Number of complexity-2 evaluations in the work body.")
  in
  let window_arg =
    Arg.(value & opt int 60 & info [ "window" ] ~docv:"T"
           ~doc:"Deadline window in ticks.")
  in
  let run home_rate remote_rate net_rate evaluations window_stop =
    let home = Location.make "home" and remote = Location.make "remote" in
    let window = Interval.of_pair 0 window_stop in
    let theta =
      Resource_set.of_terms
        (List.filter_map Fun.id
           [
             Rota_resource.Term.make ~rate:home_rate ~interval:window
               ~ltype:(Located_type.cpu home);
             Rota_resource.Term.make ~rate:remote_rate ~interval:window
               ~ltype:(Located_type.cpu remote);
             Rota_resource.Term.make ~rate:net_rate ~interval:window
               ~ltype:(Located_type.network ~src:home ~dst:remote);
             Rota_resource.Term.make ~rate:net_rate ~interval:window
               ~ltype:(Located_type.network ~src:remote ~dst:home);
           ])
    in
    let work =
      List.init evaluations (fun _ -> Rota_actor.Action.evaluate 2)
      @ [ Rota_actor.Action.ready ]
    in
    Format.printf "resources: %a@.@." Resource_set.pp theta;
    let verdicts =
      Rota_scheduler.Planner.evaluate theta ~window
        ~name:(Rota_actor.Actor_name.make "worker")
        ~home ~sites:[ remote ] ~work
    in
    if verdicts = [] then begin
      Format.printf "no feasible plan within %a@." Interval.pp window;
      1
    end
    else begin
      List.iteri
        (fun i v ->
          Format.printf "%d. %a%s@." (i + 1) Rota_scheduler.Planner.pp_verdict v
            (if i = 0 then "   <- best" else ""))
        verdicts;
      0
    end
  in
  let doc =
    "Compare stay-or-migrate strategies for a body of work (the paper's      future-work planning question), ranked by certified completion time."
  in
  Cmd.v
    (Cmd.info "plan" ~doc)
    Term.(
      const run $ home_rate_arg $ remote_rate_arg $ net_rate_arg $ work_arg
      $ window_arg)

(* --- rota calibrate --------------------------------------------------------- *)

let calibrate_cmd =
  let factor_arg =
    Arg.(value & opt float 2.0 & info [ "error" ] ~docv:"F"
           ~doc:"How much the world's true CPU cost exceeds the believed one.")
  in
  let iterations_arg =
    Arg.(value & opt int 3 & info [ "iterations" ] ~docv:"N"
           ~doc:"Calibration iterations.")
  in
  let arrivals_arg =
    Arg.(value & opt int 24 & info [ "arrivals" ] ~docv:"N"
           ~doc:"Number of computations offered.")
  in
  let run seed factor iterations arrivals obs =
    with_obs obs @@ fun () ->
    let believed = Cost_model.default in
    let scale v = max 1 (int_of_float (ceil (float_of_int v *. factor))) in
    let true_model =
      {
        believed with
        Cost_model.evaluate_cost = scale believed.Cost_model.evaluate_cost;
        create_cost = scale believed.Cost_model.create_cost;
        ready_cost = scale believed.Cost_model.ready_cost;
        migrate_pack_cost = scale believed.Cost_model.migrate_pack_cost;
        migrate_unpack_cost = scale believed.Cost_model.migrate_unpack_cost;
      }
    in
    let params =
      { Scenario.default_params with seed; horizon = 200; arrivals;
        locations = 2; slack = 2.5 }
    in
    let trace = Scenario.trace params in
    Format.printf "believed %a@.true     %a@.@." Cost_model.pp believed
      Cost_model.pp true_model;
    List.iteri
      (fun i (model, report) ->
        Format.printf "iteration %d: believed evaluate=%d -> %a@." (i + 1)
          model.Cost_model.evaluate_cost Rota_sim.Engine.pp_report report)
      (Rota_sim.Calibration.calibrate ~iterations ~policy:Admission.Rota
         ~believed ~true_model trace);
    0
  in
  let doc =
    "Demonstrate the cost-estimate revision loop: run with a mispriced      cost model, learn the true prices from consumed plus owed work, and      converge back to zero deadline misses."
  in
  Cmd.v
    (Cmd.info "calibrate" ~doc)
    Term.(
      const run $ seed_arg $ factor_arg $ iterations_arg $ arrivals_arg
      $ obs_args)

(* --- rota trace ------------------------------------------------------------ *)

module Trace_reader = Rota_obs.Trace_reader
module Trace_summary = Rota_obs.Summary

let trace_pos ?(idx = 0) ~docv () =
  Arg.(required & pos idx (some file) None & info [] ~docv
         ~doc:"A telemetry trace written with --trace (JSONL or binary; \
               the format is auto-detected).")

(* Load a whole trace leniently (unknown kinds pass through), reporting
   the first malformed line on stderr. *)
let with_trace_events path k =
  match Trace_reader.read_file path with
  | Ok (events, tail) ->
      (match tail with
      | Trace_reader.Complete -> ()
      | Trace_reader.Truncated _ ->
          Format.eprintf "rota trace: %s: warning: %a (crash-interrupted \
                          write); using everything before the cut@."
            path Trace_reader.pp_tail tail);
      k events
  | Error e ->
      Format.eprintf "rota trace: %s: %a@." path Trace_reader.pp_error e;
      1

let trace_validate_cmd =
  let run file =
    let v = Trace_reader.validate_file file in
    if Trace_reader.valid v then begin
      Printf.printf "ok: %d events, %d runs\n" v.Trace_reader.events
        v.Trace_reader.runs;
      0
    end
    else begin
      List.iter (Printf.eprintf "%s: %s\n" file) v.Trace_reader.errors;
      Printf.eprintf "invalid: %d events, %d runs\n" v.Trace_reader.events
        v.Trace_reader.runs;
      1
    end
  in
  let doc =
    "Check the trace contract: every line parses strictly and round-trips, \
     seq strictly increases, per-run simulated time is nondecreasing, and \
     span parent ids resolve."
  in
  Cmd.v (Cmd.info "validate" ~doc)
    Term.(const run $ trace_pos ~docv:"TRACE" ())

let trace_summarize_cmd =
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N"
           ~doc:"How many individual slowest spans — and sampled \
                 latency-series rows — to list.")
  in
  let run file top =
    with_trace_events file @@ fun events ->
    Rota_experiments.Trace_report.print_summary ~top
      (Trace_summary.of_events ~top events);
    0
  in
  let doc =
    "Per-run admit/reject/kill breakdown by policy, span self/total time \
     rollups, the slowest spans, metric time-series extents, and sampled \
     latency series."
  in
  Cmd.v (Cmd.info "summarize" ~doc)
    Term.(const run $ trace_pos ~docv:"TRACE" () $ top_arg)

let trace_timeline_cmd =
  let width_arg =
    Arg.(value & opt int 60 & info [ "width" ] ~docv:"COLS"
           ~doc:"Columns the simulated horizon is scaled onto.")
  in
  let run file width =
    with_trace_events file @@ fun events ->
    print_string (Rota_obs.Timeline.render ~width events);
    0
  in
  let doc =
    "ASCII Gantt of computation lifecycles (arrival, admit, run, \
     complete/kill) and capacity joins against simulated time."
  in
  Cmd.v (Cmd.info "timeline" ~doc)
    Term.(const run $ trace_pos ~docv:"TRACE" () $ width_arg)

let trace_diff_cmd =
  let run file_a file_b =
    with_trace_events file_a @@ fun events_a ->
    with_trace_events file_b @@ fun events_b ->
    Rota_experiments.Trace_report.print_diff ~label_a:file_a ~label_b:file_b
      (Trace_summary.of_events events_a)
      (Trace_summary.of_events events_b);
    0
  in
  let doc =
    "Policy-vs-policy deltas between two traces: admit rate, deadline \
     misses, and latency quantiles (the paper's E6 comparison)."
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(
      const run
      $ trace_pos ~docv:"TRACE_A" ()
      $ trace_pos ~idx:1 ~docv:"TRACE_B" ())

let trace_export_cmd =
  let format_arg =
    let doc = "Output format; $(b,chrome) is Chrome trace-event JSON \
               (array form), loadable in Perfetto or chrome://tracing." in
    Arg.(value & opt (enum [ ("chrome", `Chrome) ]) `Chrome
           & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let out_arg =
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Where to write the export; - is stdout.")
  in
  let run file `Chrome out =
    with_trace_events file @@ fun events ->
    let payload = Rota_obs.Chrome.to_string events in
    match out with
    | "-" -> print_endline payload; 0
    | path -> (
        try
          let oc = open_out path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
              output_string oc payload;
              output_char oc '\n');
          0
        with Sys_error msg ->
          Printf.eprintf "rota trace export: %s\n" msg;
          1)
  in
  let doc = "Convert a trace for an external viewer (Perfetto)." in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run $ trace_pos ~docv:"TRACE" () $ format_arg $ out_arg)

let trace_convert_cmd =
  let out_arg =
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Where to write the JSONL; - is stdout.")
  in
  let run file out =
    with_trace_events file @@ fun events ->
    let write oc =
      List.iter
        (fun e ->
          output_string oc (Rota_obs.Events.to_line e);
          output_char oc '\n')
        events
    in
    match out with
    | "-" ->
        write stdout;
        flush stdout;
        0
    | path -> (
        try
          let oc = open_out_bin path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc);
          0
        with Sys_error msg ->
          Printf.eprintf "rota trace convert: %s\n" msg;
          1)
  in
  let doc =
    "Rewrite a trace as JSONL — the escape hatch from \
     $(b,--trace-format=binary) back to line-oriented tooling (grep, jq, \
     $(b,rota audit --follow)).  JSONL input passes through re-serialized, \
     so the command also normalizes a trace to the current schema."
  in
  Cmd.v (Cmd.info "convert" ~doc)
    Term.(const run $ trace_pos ~docv:"TRACE" () $ out_arg)

let trace_cmd =
  let doc =
    "Analyse telemetry traces (JSONL or binary): validate, summarize, \
     timeline, diff, convert, export."
  in
  Cmd.group (Cmd.info "trace" ~doc)
    [
      trace_validate_cmd; trace_summarize_cmd; trace_timeline_cmd;
      trace_diff_cmd; trace_convert_cmd; trace_export_cmd;
    ]

(* --- rota metrics ---------------------------------------------------------- *)

let metrics_export_cmd =
  let out_arg =
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Where to write the exposition; - is stdout.")
  in
  let run file out =
    with_trace_events file @@ fun events ->
    let payload = Rota_obs.Openmetrics.render_events events in
    match out with
    | "-" ->
        print_string payload;
        0
    | path -> (
        try
          Rota_obs.Openmetrics.write_file path payload;
          0
        with Sys_error msg ->
          Printf.eprintf "rota metrics export: %s\n" msg;
          1)
  in
  let doc =
    "Render a finished trace's sampled series in OpenMetrics/Prometheus \
     text format: the last metric-sample per counter/gauge and the last \
     hist-sample per histogram (as a quantile summary — the trace carries \
     no bucket boundaries).  For bucketed histograms of a live registry, \
     use $(b,--metrics-out) on the run itself."
  in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run $ trace_pos ~docv:"TRACE" () $ out_arg)

let metrics_lint_cmd =
  let file_pos =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"An OpenMetrics text file (e.g. written by --metrics-out).")
  in
  let run file =
    match Rota_obs.Openmetrics.lint (read_file file) with
    | Ok () ->
        Printf.printf "ok: %s\n" file;
        0
    | Error e ->
        Printf.eprintf "rota metrics lint: %s: %s\n" file e;
        1
    | exception Sys_error msg ->
        Printf.eprintf "rota metrics lint: %s\n" msg;
        1
  in
  let doc =
    "Validate an OpenMetrics text file: line grammar, one TYPE per family, \
     the EOF terminator, cumulative bucket monotonicity, and +Inf == _count."
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const run $ file_pos)

(* An endpoint the user typed: HOST:PORT if the suffix parses as a
   port, otherwise a Unix socket path.  (A path containing a colon can
   always be written ./path:with:colon — the heuristic only misfires on
   bare relative paths that end in :<digits>.) *)
let parse_endpoint s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i
      and port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          Rota_server.Daemon.Tcp ((if host = "" then "127.0.0.1" else host), p)
      | _ -> Rota_server.Daemon.Unix_socket s)
  | None -> Rota_server.Daemon.Unix_socket s

let connect_endpoint address =
  match address with
  | Rota_server.Daemon.Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Rota_server.Daemon.Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      fd

(* Minimal HTTP/1.0 GET against the daemon's --metrics-listen endpoint:
   send the request, read to EOF, return the body. *)
let http_scrape address =
  match connect_endpoint address with
  | exception Unix.Unix_error (e, _, s) ->
      Error (Printf.sprintf "connect %s: %s" s (Unix.error_message e))
  | fd -> (
      Fun.protect ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      let req = "GET /metrics HTTP/1.0\r\nHost: rota\r\n\r\n" in
      let rec send pos =
        if pos < String.length req then
          send (pos + Unix.write_substring fd req pos (String.length req - pos))
      in
      send 0;
      let buf = Buffer.create 4096 in
      let bytes = Bytes.create 8192 in
      let rec recv () =
        match Unix.read fd bytes 0 8192 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf bytes 0 n;
            recv ()
      in
      (try recv ()
       with Unix.Unix_error (e, _, _) ->
         if Buffer.length buf = 0 then raise (Sys_error (Unix.error_message e)));
      let raw = Buffer.contents buf in
      let find_substring sep =
        let n = String.length sep and len = String.length raw in
        let rec go i =
          if i + n > len then None
          else if String.sub raw i n = sep then Some i
          else go (i + 1)
        in
        go 0
      in
      let body_at sep =
        Option.map
          (fun i -> String.sub raw (i + String.length sep)
              (String.length raw - i - String.length sep))
          (find_substring sep)
      in
      match body_at "\r\n\r\n" with
      | Some body -> Ok body
      | None -> (
          match body_at "\n\n" with
          | Some body -> Ok body
          | None -> Error "malformed HTTP response (no header terminator)"))

let metrics_scrape_cmd =
  let addr_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ADDR"
             ~doc:
               "The daemon's $(b,--metrics-listen) endpoint: a Unix socket \
                path or HOST:PORT.")
  in
  let out_arg =
    Arg.(value & opt string "-" & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the exposition to $(docv) (atomically) instead of \
                 stdout.")
  in
  let run addr out =
    match http_scrape (parse_endpoint addr) with
    | Error m | (exception Sys_error m) ->
        Printf.eprintf "rota metrics scrape: %s\n" m;
        1
    | Ok body -> (
        match out with
        | "-" ->
            print_string body;
            0
        | path -> (
            try
              Rota_obs.Openmetrics.write_file path body;
              0
            with Sys_error m ->
              Printf.eprintf "rota metrics scrape: %s\n" m;
              1))
  in
  let doc =
    "Fetch one OpenMetrics exposition from a running daemon's \
     $(b,--metrics-listen) endpoint (a curl-free HTTP GET), for piping \
     into $(b,rota metrics lint) or a file-based collector."
  in
  Cmd.v (Cmd.info "scrape" ~doc) Term.(const run $ addr_pos $ out_arg)

let metrics_cmd =
  let doc =
    "Work with OpenMetrics expositions: export a finished trace's series, \
     scrape a live daemon, lint a snapshot file."
  in
  Cmd.group (Cmd.info "metrics" ~doc)
    [ metrics_export_cmd; metrics_scrape_cmd; metrics_lint_cmd ]

(* --- rota top --------------------------------------------------------------- *)

let top_cmd =
  let once_arg =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:
               "Read the whole trace, print a single dashboard frame (plain \
                text, no redraw), and exit.")
  in
  let interval_arg =
    Arg.(value & opt float 0.5 & info [ "interval" ] ~docv:"SECS"
           ~doc:"Seconds between polls/redraws when following.")
  in
  let idle_exit_arg =
    Arg.(value & opt float 0. & info [ "idle-exit" ] ~docv:"SECS"
           ~doc:
             "Following a TRACE file, exit after $(docv) seconds without \
              new events.  0 follows forever (quit with q+Enter or \
              Ctrl-C).  Not used with $(b,--connect), which stops when \
              the daemon drains.")
  in
  let width_arg =
    Arg.(value & opt int 80 & info [ "width" ] ~docv:"COLS"
           ~doc:"Frame width (bounds the throughput sparkline).")
  in
  let connect_arg =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR"
           ~doc:
             "Drive the dashboard from a running daemon instead of a trace \
              file: poll the wire $(b,metrics) verb on $(docv) (the \
              daemon's $(b,--socket)/$(b,--tcp) address) every \
              $(b,--interval) seconds and render the returned samples.")
  in
  (* Line-buffered key handling — no raw terminal mode, so the dashboard
     is safe to pipe and cannot wedge the tty. *)
  let quit_requested () =
    match Unix.select [ Unix.stdin ] [] [] 0. with
    | [ _ ], _, _ -> (
        let buf = Bytes.create 64 in
        match Unix.read Unix.stdin buf 0 64 with
        | 0 -> true (* EOF: non-interactive stdin drained *)
        | n -> Bytes.exists (fun c -> c = 'q' || c = 'Q') (Bytes.sub buf 0 n)
        | exception Unix.Unix_error _ -> false)
    | _ -> false
  in
  let redraw ~width ~following st =
    (* Home + clear: each followed frame fully repaints the screen. *)
    if following then print_string "\027[H\027[2J";
    print_string (Rota_obs.Top.render ~width ~following st);
    if following then print_string "\n[q+Enter or Ctrl-C to quit]\n";
    flush stdout
  in
  let run_connected ~addr ~once ~interval ~width =
    match connect_endpoint (parse_endpoint addr) with
    | exception Unix.Unix_error (e, _, s) ->
        Format.eprintf "rota top: connect %s: %s@." s (Unix.error_message e);
        1
    | fd ->
        let ic = Unix.in_channel_of_descr fd in
        Fun.protect ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        let st = Rota_obs.Top.create ~source:("live " ^ addr) () in
        let line =
          Rota_server.Wire.request_to_line
            { Rota_server.Wire.tag = Rota_obs.Json.Null;
              op = Rota_server.Wire.Metrics }
          ^ "\n"
        in
        let scrape () =
          let rec send pos =
            if pos < String.length line then
              send
                (pos
                + Unix.write_substring fd line pos (String.length line - pos))
          in
          send 0;
          match Rota_server.Wire.response_of_line (input_line ic) with
          | Error m -> Error ("bad response: " ^ m)
          | Ok { Rota_server.Wire.reply = Rota_server.Wire.Metrics_snapshot
                     { samples; _ }; _ } ->
              List.iter
                (fun j ->
                  match Rota_obs.Events.of_json j with
                  | Ok e -> Rota_obs.Top.step st e
                  | Error _ -> ())
                samples;
              Ok ()
          | Ok _ -> Error "daemon did not answer the metrics verb"
        in
        if once then (
          match scrape () with
          | Error m ->
              Format.eprintf "rota top: %s@." m;
              1
          | Ok () ->
              redraw ~width ~following:false st;
              0)
        else begin
          let interval = Float.max 0.05 interval in
          let rec loop () =
            if quit_requested () then 0
            else
              match scrape () with
              | Error m ->
                  Format.eprintf "rota top: %s@." m;
                  1
              | exception End_of_file ->
                  (* Daemon drained: leave the last frame standing. *)
                  0
              | Ok () ->
                  redraw ~width ~following:true st;
                  Unix.sleepf interval;
                  loop ()
          in
          loop ()
        end
  in
  let run file connect once interval idle_exit width =
    match (connect, file) with
    | Some _, Some _ ->
        Format.eprintf "rota top: TRACE and --connect are mutually exclusive@.";
        2
    | None, None ->
        Format.eprintf "rota top: a TRACE file or --connect is required@.";
        2
    | Some addr, None -> run_connected ~addr ~once ~interval ~width
    | None, Some file ->
    if once then
      with_trace_events file @@ fun events ->
      let st = Rota_obs.Top.create ~source:file () in
      List.iter (Rota_obs.Top.step st) events;
      redraw ~width ~following:false st;
      0
    else
      match Trace_reader.Follow.open_file file with
      | Error e ->
          Format.eprintf "rota top: %s: %a@." file Trace_reader.pp_error e;
          1
      | Ok cursor ->
          Fun.protect ~finally:(fun () -> Trace_reader.Follow.close cursor)
          @@ fun () ->
          let st = Rota_obs.Top.create ~source:file () in
          let interval = Float.max 0.05 interval in
          let redraw () = redraw ~width ~following:true st in
          redraw ();
          let rec loop idle =
            if quit_requested () then 0
            else
              match Trace_reader.Follow.poll cursor with
              | Error e ->
                  Format.eprintf "rota top: %s: %a@." file
                    Trace_reader.pp_error e;
                  1
              | Ok [] ->
                  if idle_exit > 0. && idle >= idle_exit then begin
                    redraw ();
                    0
                  end
                  else begin
                    Unix.sleepf interval;
                    loop (idle +. interval)
                  end
              | Ok events ->
                  List.iter (Rota_obs.Top.step st) events;
                  redraw ();
                  Unix.sleepf interval;
                  loop 0.
          in
          loop 0.
  in
  let doc =
    "Live terminal dashboard over a (possibly still growing) trace: \
     lifecycle counters, audit watchdog verified/divergent tallies, \
     sampled latency quantiles (p50/p95/p99), counter/gauge last values, \
     and a completions-per-tick sparkline.  Tails the file like \
     $(b,rota audit --follow); with $(b,--once) renders a single frame \
     from a finished trace.  With $(b,--connect) the same dashboard runs \
     against a live daemon, fed by periodic wire-protocol metric scrapes \
     instead of a trace file."
  in
  let trace_opt_pos =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"TRACE"
             ~doc:
               "A telemetry trace written with --trace (JSONL or binary; \
                the format is auto-detected).  Omit with $(b,--connect).")
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      const run $ trace_opt_pos $ connect_arg $ once_arg $ interval_arg
      $ idle_exit_arg $ width_arg)

(* --- rota audit / rota explain --------------------------------------------- *)

(* Tail a growing trace with the same incremental core the offline
   audit drives: poll for completed lines, step the auditor, print each
   verdict's complaints as they land.  A partial last line is buffered
   by the cursor, never parsed, so racing the writer is safe. *)
let follow_audit ~idle_exit file =
  match Trace_reader.Follow.open_file file with
  | Error e ->
      Format.eprintf "rota audit: %s: %a@." file Trace_reader.pp_error e;
      1
  | Ok cursor ->
      Fun.protect ~finally:(fun () -> Trace_reader.Follow.close cursor)
      @@ fun () ->
      let module Live = Rota_audit.Audit.Live in
      let live = Live.create () in
      let divergences = ref 0 in
      let on_outcome (o : Live.outcome) =
        match o.Live.verdict with
        | Live.Verified | Live.Skipped _ -> ()
        | Live.Diverged msgs ->
            divergences := !divergences + List.length msgs;
            List.iter
              (fun m ->
                Format.printf "seq %d (run %d, %s %s): DIVERGENCE: %s@."
                  o.Live.seq o.Live.run o.Live.action o.Live.id m)
              msgs
      in
      let finish () =
        Format.printf
          "%d events across %d runs: %d decisions, %d verified, %d skipped, \
           %d divergent@."
          (Live.events live) (Live.runs live) (Live.decisions live)
          (Live.verified live) (Live.skipped live) !divergences;
        if !divergences > 0 then 1 else 0
      in
      let tick = 0.2 in
      let rec loop idle =
        match Trace_reader.Follow.poll cursor with
        | Error e ->
            Format.eprintf "rota audit: %s: %a@." file Trace_reader.pp_error e;
            1
        | Ok [] ->
            if idle_exit > 0. && idle >= idle_exit then finish ()
            else begin
              Unix.sleepf tick;
              loop (idle +. tick)
            end
        | Ok events ->
            List.iter
              (fun e ->
                match Live.step live e with
                | Some o -> on_outcome o
                | None -> ())
              events;
            loop 0.
      in
      loop 0.

let audit_cmd =
  let max_div_arg =
    Arg.(value & opt int 100 & info [ "max-divergences" ] ~docv:"N"
           ~doc:"How many divergences to report before summarizing the rest.")
  in
  let follow_arg =
    Arg.(value & flag
         & info [ "follow" ]
             ~doc:
               "Tail a trace that is still being written: audit events as \
                their lines complete, printing divergences as they happen, \
                until interrupted (or idle past $(b,--idle-exit)).  A \
                crash-cut partial last line is waited on, not an error.")
  in
  let idle_exit_arg =
    Arg.(value & opt float 0. & info [ "idle-exit" ] ~docv:"SECS"
           ~doc:
             "With $(b,--follow): exit (with the audit summary and verdict) \
              after $(docv) seconds without new events.  0 follows forever.")
  in
  let run file max_divergences follow idle_exit =
    if follow then follow_audit ~idle_exit file
    else
      match Rota_audit.Audit.audit_file ~max_divergences file with
      | Error e ->
          Format.eprintf "rota audit: %s: %a@." file Trace_reader.pp_error e;
          1
      | Ok report ->
          Format.printf "%a@." Rota_audit.Audit.pp_report report;
          if Rota_audit.Audit.ok report then 0 else 1
  in
  let doc =
    "Independently re-verify every decision certificate in a trace: replay \
     the trace, reconstruct capacity and the commitment ledger from prior \
     events alone, and re-check each certificate through the validator \
     (never the decision procedure).  Exits non-zero on any divergence.  \
     With $(b,--follow), tails a growing trace live."
  in
  Cmd.v (Cmd.info "audit" ~doc)
    Term.(
      const run $ trace_pos ~docv:"TRACE" () $ max_div_arg $ follow_arg
      $ idle_exit_arg)

let explain_cmd =
  let id_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"ID"
           ~doc:"A computation or session id appearing in the trace.")
  in
  let run file id =
    match Rota_audit.Audit.explain_file file ~id with
    | Error e ->
        Format.eprintf "rota explain: %s: %a@." file Trace_reader.pp_error e;
        1
    | Ok [] ->
        Printf.eprintf "rota explain: no decision about %s in %s\n" id file;
        1
    | Ok blocks ->
        List.iteri
          (fun i b ->
            if i > 0 then print_newline ();
            print_endline b)
          blocks;
        0
  in
  let doc =
    "Explain why a computation was admitted, rejected, evicted, or \
     repaired: its decision records with the theorem consulted, the \
     breakpoint timeline of the certified schedule, and the auditor's \
     verdict."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ trace_pos ~docv:"TRACE" () $ id_arg)

(* --- rota serve / rota load ---------------------------------------------- *)

let address_args =
  let socket_arg =
    let doc = "Listen on (or connect to) a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc = "Listen on (or connect to) TCP $(docv) (HOST:PORT)." in
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"ADDR" ~doc)
  in
  let combine socket tcp =
    match (socket, tcp) with
    | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"
    | Some path, None -> Ok (Rota_server.Daemon.Unix_socket path)
    | None, Some addr -> (
        match String.rindex_opt addr ':' with
        | None -> Error (Printf.sprintf "bad --tcp %S (expected HOST:PORT)" addr)
        | Some i -> (
            let host = String.sub addr 0 i
            and port = String.sub addr (i + 1) (String.length addr - i - 1) in
            match int_of_string_opt port with
            | Some p when p > 0 && p < 65536 ->
                Ok (Rota_server.Daemon.Tcp (host, p))
            | _ -> Error (Printf.sprintf "bad --tcp port %S" port)))
    | None, None -> Error "one of --socket or --tcp is required"
  in
  Term.(const combine $ socket_arg $ tcp_arg)

let serve_cmd =
  let dir_arg =
    let doc = "State directory: the WAL ($(b,wal.rotb), a valid binary \
               trace — every trace tool reads it) and snapshots live here." in
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let policy_arg =
    Arg.(value & opt policy_conv Admission.Rota
         & info [ "policy" ] ~docv:"POLICY" ~doc:"Admission policy.")
  in
  let max_queue_arg =
    Arg.(value & opt int 512 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Bounded request queue size; beyond it the accept loop \
                 backpressures and admits are shed.")
  in
  let budget_arg =
    Arg.(value & opt float 250. & info [ "budget-ms" ] ~docv:"MS"
           ~doc:"Default decision-latency budget for requests that carry \
                 none; a request whose queue delay would exceed its budget \
                 is rejected fast with the $(b,shed) slug.")
  in
  let snapshot_every_arg =
    Arg.(value & opt int 512 & info [ "snapshot-every" ] ~docv:"N"
           ~doc:"Snapshot admission state every $(docv) decided requests \
                 (and on graceful shutdown).")
  in
  let decide_delay_arg =
    Arg.(value & opt float 0. & info [ "decide-delay-ms" ] ~docv:"MS"
           ~doc:"Testing: add artificial latency to every decision, to \
                 provoke overload deterministically.")
  in
  let metrics_listen_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-listen" ] ~docv:"ADDR"
             ~doc:
               "Answer HTTP scrapes with the OpenMetrics exposition on \
                $(docv) (a Unix socket path or HOST:PORT), served from the \
                same select loop as the wire protocol.  Pair with \
                $(b,rota metrics scrape) or any Prometheus-style agent.")
  in
  let serve_metrics_out_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:
               "Atomically rewrite an OpenMetrics snapshot of the daemon's \
                registry to $(docv) every $(b,--metrics-every) observed \
                events, and once at drain.")
  in
  let serve_metrics_every_arg =
    Arg.(value & opt int 256 & info [ "metrics-every" ] ~docv:"N"
           ~doc:"With $(b,--metrics-out): events between rewrites.")
  in
  let no_telemetry_arg =
    Arg.(value & flag
         & info [ "no-telemetry" ]
             ~doc:
               "Switch the observability plane off entirely: no metric \
                recording, no request spans, no live audit watchdog, no \
                flight recorder.  The decide path is otherwise identical — \
                the $(b,server/telemetry-overhead) bench pair measures \
                exactly this flag.")
  in
  let slo_budget_arg =
    Arg.(value & opt float 0.01 & info [ "slo-budget" ] ~docv:"FRACTION"
           ~doc:
             "Deadline-assurance error budget: the fraction of requests \
              allowed to go bad (shed, or contradicted by the live audit) \
              before the $(b,slo/burn_*) gauges exceed 1000 (= burning at \
              exactly budget).")
  in
  let flight_capacity_arg =
    Arg.(value & opt int 4096 & info [ "flight-capacity" ] ~docv:"N"
           ~doc:
             "Flight-recorder ring size: the last $(docv) events are kept \
              in memory and dumped to $(b,DIR/flight-<pid>.rotb) — a valid \
              binary trace — on SIGQUIT, the first audit divergence, a \
              shed storm, or a fatal error.")
  in
  let run address_r dir policy max_queue budget_ms snapshot_every
      decide_delay_ms metrics_listen metrics_out metrics_every no_telemetry
      slo_budget flight_capacity =
    match address_r with
    | Error m ->
        prerr_endline ("rota serve: " ^ m);
        2
    | Ok address -> (
        let metrics_listen = Option.map parse_endpoint metrics_listen in
        let cfg =
          Rota_server.Daemon.config ~max_queue ~default_budget_ms:budget_ms
            ~snapshot_every ~decide_delay_ms:decide_delay_ms
            ~telemetry:(not no_telemetry) ?metrics_listen ?metrics_out
            ~metrics_every ~slo_budget ~flight_capacity ~dir ~address policy
        in
        let on_ready (r : Rota_server.Wal.recovery) =
          Printf.printf
            "rota serve: listening (policy %s, wal seq %d%s%s)\n%!"
            (Admission.policy_name policy)
            r.Rota_server.Wal.scanned
            (if r.Rota_server.Wal.from_snapshot then ", from snapshot" else "")
            (if r.Rota_server.Wal.truncated > 0 then
               Printf.sprintf ", %d dangling bytes truncated"
                 r.Rota_server.Wal.truncated
             else "");
          if r.Rota_server.Wal.scanned > 0 then
            Printf.printf
              "rota serve: recovered %d records (%d replayed, %d decisions \
               re-verified, %d diverged), residual digest %s\n%!"
              r.Rota_server.Wal.scanned r.Rota_server.Wal.replayed
              r.Rota_server.Wal.verified r.Rota_server.Wal.diverged
              r.Rota_server.Wal.digest;
          match cfg.Rota_server.Daemon.metrics_listen with
          | Some (Rota_server.Daemon.Unix_socket p) ->
              Printf.printf "rota serve: metrics on %s\n%!" p
          | Some (Rota_server.Daemon.Tcp (h, p)) ->
              Printf.printf "rota serve: metrics on %s:%d\n%!" h p
          | None -> ()
        in
        match Rota_server.Daemon.run ~on_ready cfg with
        | Ok () ->
            print_endline "rota serve: drained";
            0
        | Error m ->
            prerr_endline ("rota serve: " ^ m);
            1)
  in
  let doc =
    "Run the admission daemon: decide admit/release/revoke/query requests \
     (JSONL over a socket) through the admission controller, write-ahead \
     logging every decided request to a binary trace before replying, with \
     digest-verified crash recovery and deadline-aware load shedding."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ address_args $ dir_arg $ policy_arg $ max_queue_arg
      $ budget_arg $ snapshot_every_arg $ decide_delay_arg
      $ metrics_listen_arg $ serve_metrics_out_arg $ serve_metrics_every_arg
      $ no_telemetry_arg $ slo_budget_arg $ flight_capacity_arg)

let load_cmd =
  let connections_arg =
    Arg.(value & opt int 2 & info [ "connections" ] ~docv:"C"
           ~doc:"Client connections.")
  in
  let pipeline_arg =
    Arg.(value & opt int 8 & info [ "pipeline" ] ~docv:"P"
           ~doc:"Outstanding requests per connection (closed loop).")
  in
  let budget_arg =
    Arg.(value & opt (some float) None & info [ "budget-ms" ] ~docv:"MS"
           ~doc:"Decision-latency budget attached to every admit request.")
  in
  let arrivals_arg =
    Arg.(value & opt int 100 & info [ "arrivals" ] ~docv:"N"
           ~doc:"Number of computations offered (generated workload).")
  in
  let horizon_arg =
    Arg.(value & opt int 400 & info [ "horizon" ] ~docv:"T"
           ~doc:"Workload horizon in ticks.")
  in
  let locations_arg =
    Arg.(value & opt int 3 & info [ "locations" ] ~docv:"K"
           ~doc:"Number of nodes in the generated workload.")
  in
  let slack_arg =
    Arg.(value & opt float 2.0 & info [ "slack" ] ~docv:"S"
           ~doc:"Deadline slack factor of the generated workload.")
  in
  let load_trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "Record the load test's RTT histogram into $(docv) as \
                periodic hist-sample events (binary ROTB if $(docv) ends \
                in $(b,.rotb), JSONL otherwise), so $(b,rota trace \
                summarize) and $(b,rota top) render client-side latency \
                the same way they render engine latency.")
  in
  let run address_r seed connections pipeline budget_ms arrivals horizon
      locations slack trace file =
    match address_r with
    | Error m ->
        prerr_endline ("rota load: " ^ m);
        2
    | Ok address -> (
        let trace_r =
          match file with
          | Some path -> Result.map Document.to_trace (load_document path)
          | None ->
              Ok
                (Scenario.trace
                   {
                     Scenario.default_params with
                     seed;
                     arrivals;
                     horizon;
                     locations;
                     slack;
                   })
        in
        match trace_r with
        | Error m ->
            prerr_endline ("rota load: " ^ m);
            1
        | Ok workload -> (
            let sink_r =
              match trace with
              | None -> Ok None
              | Some path -> (
                  let open_sink =
                    if Filename.check_suffix path ".rotb" then
                      Rota_obs.Sink.binary_file
                    else Rota_obs.Sink.jsonl_file
                  in
                  try Ok (Some (open_sink ~flush_every:64 path))
                  with Sys_error m -> Error m)
            in
            match sink_r with
            | Error m ->
                prerr_endline ("rota load: cannot open trace file: " ^ m);
                1
            | Ok sink -> (
                Option.iter Rota_obs.Tracer.install sink;
                let finally () = Rota_obs.Tracer.uninstall () in
                Fun.protect ~finally @@ fun () ->
                let cfg =
                  {
                    Rota_server.Loadgen.address;
                    connections;
                    pipeline;
                    budget_ms;
                    trace = workload;
                  }
                in
                match Rota_server.Loadgen.run cfg with
                | Ok report ->
                    Format.printf "%a@." Rota_server.Loadgen.pp_report report;
                    0
                | Error m ->
                    prerr_endline ("rota load: " ^ m);
                    1)))
  in
  let doc =
    "Drive a running serve daemon with a scenario workload (closed loop): \
     joins and arrivals replay as wire requests in event order, and the \
     report quotes admit/reject/shed counts and round-trip latency \
     percentiles."
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      const run $ address_args $ seed_arg $ connections_arg $ pipeline_arg
      $ budget_arg $ arrivals_arg $ horizon_arg $ locations_arg $ slack_arg
      $ load_trace_arg $ file_arg)

(* --- rota ----------------------------------------------------------------- *)

let main_cmd =
  let doc =
    "ROTA: resource-oriented temporal logic for deadline assurance in \
     open distributed systems (ICDCS 2010 reproduction)."
  in
  Cmd.group
    (Cmd.info "rota" ~version:"1.0.0" ~doc)
    ([ experiment_cmd; simulate_cmd; check_cmd; plan_cmd; calibrate_cmd;
       trace_cmd; metrics_cmd; top_cmd; audit_cmd; explain_cmd; serve_cmd;
       load_cmd ]
    @ experiment_alias_cmds)

let () = exit (Cmd.eval' main_cmd)

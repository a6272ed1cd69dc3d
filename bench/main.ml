(* Benchmark harness: one bechamel test (or indexed family) per experiment
   of EXPERIMENTS.md.  Prints OLS estimates (ns/run) per benchmark.

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit

module Interval = Rota_interval.Interval
module Allen = Rota_interval.Allen
module Ia_network = Rota_interval.Ia_network
module Location = Rota_resource.Location
module Located_type = Rota_resource.Located_type
module Term = Rota_resource.Term
module Profile = Rota_resource.Profile
module Resource_set = Rota_resource.Resource_set
module Requirement = Rota_resource.Requirement
module Actor_name = Rota_actor.Actor_name
module Action = Rota_actor.Action
module Program = Rota_actor.Program
module Computation = Rota_actor.Computation
module Calendar = Rota_scheduler.Calendar
module State = Rota.State
module Formula = Rota.Formula
module Semantics = Rota.Semantics
module Accommodation = Rota.Accommodation
module Admission = Rota_scheduler.Admission
module Engine = Rota_sim.Engine
module Trace = Rota_sim.Trace
module Prng = Rota_workload.Prng
module Scenario = Rota_workload.Scenario

let iv = Interval.of_pair
let l1 = Location.make "l1"
let cpu1 = Located_type.cpu l1
let amount = Requirement.amount

(* --- E1: interval algebra ------------------------------------------------ *)

let bench_allen_compose =
  Test.make ~name:"e1/allen-compose-13x13"
    (Staged.stage (fun () ->
         List.iter
           (fun r1 ->
             List.iter (fun r2 -> ignore (Allen.compose r1 r2)) Allen.all)
           Allen.all))

let bench_allen_set_compose =
  Test.make ~name:"e1/allen-set-compose"
    (Staged.stage (fun () ->
         ignore (Allen.Set.compose Allen.Set.full Allen.Set.full)))

let bench_ia_propagate =
  Test.make_indexed ~name:"e1/ia-propagate" ~args:[ 4; 8; 12 ] (fun n ->
      Staged.stage (fun () ->
          let prng = Prng.create n in
          let net = Ia_network.create n in
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              if Prng.bool prng then
                Ia_network.constrain_relation net i j
                  (Prng.choose prng Allen.all)
            done
          done;
          ignore (Ia_network.propagate net)))

(* --- E2: resource algebra ------------------------------------------------- *)

let random_segments seed n =
  let prng = Prng.create seed in
  List.init n (fun _ ->
      let a = Prng.int prng 200 in
      let d = Prng.int_range prng 1 10 in
      (iv a (a + d), Prng.int_range prng 1 9))

let bench_profile_union =
  Test.make_indexed ~name:"e2/profile-union" ~args:[ 4; 16; 64; 256 ] (fun n ->
      let p = Profile.of_segments (random_segments 1 n) in
      let q = Profile.of_segments (random_segments 2 n) in
      Staged.stage (fun () -> ignore (Profile.add p q)))

let bench_profile_sub =
  Test.make_indexed ~name:"e2/profile-complement" ~args:[ 4; 16; 64 ] (fun n ->
      let q = Profile.of_segments (random_segments 3 n) in
      let p = Profile.add (Profile.of_segments (random_segments 4 n)) q in
      Staged.stage (fun () -> ignore (Profile.sub p q)))

let bench_rset_union =
  Test.make ~name:"e2/resource-set-union"
    (Staged.stage
       (let a =
          Resource_set.of_terms
            (Profile.to_terms ~ltype:cpu1 (Profile.of_segments (random_segments 5 32)))
        in
        let b =
          Resource_set.of_terms
            (Profile.to_terms ~ltype:cpu1 (Profile.of_segments (random_segments 6 32)))
        in
        fun () -> ignore (Resource_set.union a b)))

(* --- E3: semantics --------------------------------------------------------- *)

let bench_semantics_exists =
  Test.make ~name:"e3/exists-path"
    (Staged.stage
       (let theta = Resource_set.singleton (Term.v 2 (iv 0 6) cpu1) in
        let idle = State.make ~available:theta ~now:0 in
        let busy =
          Result.get_ok
            (State.accommodate_parts idle ~id:"busy" ~window:(iv 0 6)
               [ (Actor_name.make "a1", [ [ amount cpu1 8 ] ]) ])
        in
        let psi =
          Formula.satisfy_simple
            (Requirement.make_simple ~amounts:[ amount cpu1 4 ] ~window:(iv 0 6))
        in
        fun () -> ignore (Semantics.exists_path busy psi)))

(* --- E4: sequential accommodation ------------------------------------------ *)

let bench_schedule_sequential =
  Test.make_indexed ~name:"e4/schedule-sequential" ~args:[ 4; 16; 64; 256 ]
    (fun n ->
      let window = iv 0 (4 * n) in
      let theta = Resource_set.singleton (Term.v 2 window cpu1) in
      let c =
        Requirement.make_complex
          ~steps:(List.init n (fun _ -> [ amount cpu1 6 ]))
          ~window
      in
      Staged.stage (fun () -> ignore (Accommodation.schedule_sequential theta c)))

(* --- E5: admission vs commitments ------------------------------------------- *)

let controller_with_commitments n =
  let params =
    { Scenario.default_params with seed = 5; arrivals = n; horizon = 40 * (n + 1);
      slack = 4.0; locations = 2 }
  in
  let ctrl = ref (Admission.create Admission.Rota (Scenario.capacity_of params)) in
  List.iter
    (fun c ->
      let next, _ = Admission.request !ctrl ~now:0 c in
      ctrl := next)
    (Scenario.computations params);
  (!ctrl, params)

let bench_admission =
  Test.make_indexed ~name:"e5/admit-one-more" ~args:[ 0; 8; 32; 64 ] (fun n ->
      let ctrl, params = controller_with_commitments n in
      let probe =
        List.hd
          (Scenario.computations
             { params with seed = 99; arrivals = 1 })
      in
      Staged.stage (fun () -> ignore (Admission.request ctrl ~now:0 probe)))

(* --- scheduler: admission at ledger scale ------------------------------------ *)

(* The incremental-ledger contract: one decision against a controller
   carrying n live commitments must cost flat-to-logarithmic in n (the
   cached residual replaces the O(n) re-fold).  Reservations all share
   one window so the residual stays a single segment and only the
   ledger's own bookkeeping varies with n. *)
let controller_at_scale n =
  let window = iv 0 100 in
  let capacity = Resource_set.singleton (Term.v (n + 16) window cpu1) in
  let ctrl = ref (Admission.create Admission.Rota capacity) in
  for i = 0 to n - 1 do
    let entry =
      {
        Calendar.computation = Printf.sprintf "c%04d" i;
        window;
        reservation = Resource_set.singleton (Term.v 1 window cpu1);
        schedules = [];
      }
    in
    match Admission.adopt !ctrl entry with
    | Ok next -> ctrl := next
    | Error e -> failwith e
  done;
  !ctrl

let bench_admission_scale =
  let probe =
    Computation.make ~id:"probe" ~start:0 ~deadline:100
      [
        Program.make ~name:(Actor_name.make "a1") ~home:l1
          [ Action.evaluate 1; Action.ready ];
      ]
  in
  Test.make_grouped ~name:"scheduler/admission-scale"
    [
      Test.make_indexed ~name:"decide" ~args:[ 10; 100; 1000 ] (fun n ->
          let ctrl = controller_at_scale n in
          Staged.stage (fun () ->
              ignore (Admission.request ctrl ~now:0 probe)));
      Test.make_indexed ~name:"residual" ~args:[ 10; 100; 1000 ] (fun n ->
          let ctrl = controller_at_scale n in
          Staged.stage (fun () -> ignore (Admission.residual ctrl)));
      Test.make_indexed ~name:"commit-release" ~args:[ 10; 100; 1000 ]
        (fun n ->
          let ctrl = controller_at_scale n in
          let entry =
            {
              Calendar.computation = "one-more";
              window = iv 0 100;
              reservation = Resource_set.singleton (Term.v 1 (iv 0 100) cpu1);
              schedules = [];
            }
          in
          Staged.stage (fun () ->
              match Admission.adopt ctrl entry with
              | Ok next ->
                  ignore (Admission.complete next ~computation:"one-more")
              | Error e -> failwith e));
    ]

(* --- server: the daemon's request path ----------------------------------------- *)

module Wire = Rota_server.Wire
module Replica = Rota_server.Replica

(* The fixture both server groups time: a replica warmed with 24
   admissions over a two-node scenario, and one probe request that admits
   against it and is then released, so the ledger returns to its warmed
   size and every iteration measures the identical transition.  The probe
   has its own id (a scenario id would collide with a warmed admission
   and time a duplicate reject), and setup checks both outcomes. *)
module Serve_probe = struct
  let params =
    { Scenario.default_params with seed = 31; arrivals = 24; horizon = 400;
      locations = 2; slack = 3.0 }

  let probe =
    let c = List.hd (Scenario.computations { params with seed = 78; arrivals = 1 }) in
    Computation.make ~id:"probe" ~start:c.Computation.start
      ~deadline:c.Computation.deadline c.Computation.programs

  let admit_op = Wire.Admit { now = 0; computation = probe; budget_ms = None }
  let release_op = Wire.Release { now = 0; id = probe.Computation.id }

  let warmed () =
    let r = Replica.create Admission.Rota in
    ignore
      (Replica.apply r
         (Wire.Join
            { now = 0;
              terms = Rota.Certificate.rects_of_set (Scenario.capacity_of params) }));
    List.iter
      (fun c ->
        ignore
          (Replica.apply r (Wire.Admit { now = 0; computation = c; budget_ms = None })))
      (Scenario.computations params);
    (match Replica.apply r admit_op with
    | _, Wire.Decided { action = "admit"; _ } -> ()
    | _ -> failwith "bench setup: the probe must admit against the warmed ledger");
    (match Replica.apply r release_op with
    | _, Wire.Released { existed = true; _ } -> ()
    | _ -> failwith "bench setup: the probe's release must find it live");
    r

  let stamp payload =
    { Rota_obs.Events.seq = 1; run = 1; sim = Some 0; wall_s = 0.; payload }
end

(* The serve daemon's per-request cost with the socket and the fsync
   taken out: parse the wire line, decide through the replica, encode
   the WAL records, frame the response.  The fsync is deliberately
   excluded — group commit amortizes it across a batch, so the
   per-request cost the daemon's RTT is built from is exactly this
   path. *)
let bench_server_decide =
  let open Serve_probe in
  let module Binary = Rota_obs.Binary in
  let admit_line =
    Wire.request_to_line { Wire.tag = Rota_obs.Json.Null; op = admit_op }
  in
  Test.make_grouped ~name:"server/decide-rtt"
    [
      Test.make ~name:"parse"
        (Staged.stage (fun () -> ignore (Wire.request_of_line admit_line)));
      Test.make ~name:"decide"
        (Staged.stage
           (let r = warmed () in
            fun () ->
              ignore (Replica.apply r admit_op);
              ignore (Replica.apply r release_op)));
      Test.make ~name:"encode-wal"
        (Staged.stage
           (let r = warmed () in
            let payloads, _ = Replica.apply r admit_op in
            let events = List.map stamp payloads in
            let buf = Buffer.create 1024 in
            fun () ->
              Buffer.clear buf;
              List.iter (Binary.encode buf) events));
      Test.make ~name:"full-path"
        (Staged.stage
           (let r = warmed () in
            let buf = Buffer.create 1024 in
            fun () ->
              match Wire.request_of_line admit_line with
              | Error e -> failwith e
              | Ok { Wire.op; _ } ->
                  let payloads, reply = Replica.apply r op in
                  Buffer.clear buf;
                  List.iter (fun p -> Binary.encode buf (stamp p)) payloads;
                  ignore
                    (Wire.response_to_line { Wire.tag = Rota_obs.Json.Null; cid = None; reply });
                  ignore (Replica.apply r release_op)));
    ]

(* --- server: telemetry overhead ------------------------------------------------ *)

(* The cost of the observability plane on the daemon's per-request path:
   the identical decide transition run with the metrics registry enabled
   (counters, latency histograms, admit-slack observation — what `rota
   serve` does by default) and disabled (`--no-telemetry`).  The ratio
   of the two rows is the plane's overhead on an admitting request; the
   gate checks each row against its own baseline. *)
let bench_telemetry_overhead =
  let open Serve_probe in
  let module Telemetry = Rota_server.Telemetry in
  let module Metrics = Rota_obs.Metrics in
  let module Binary = Rota_obs.Binary in
  (* One request exactly as the daemon runs it; [enabled] is flipped
     inside the measured closure so both arms pay the same flag cost. *)
  let request_path enabled =
    let r = warmed () in
    let buf = Buffer.create 1024 in
    fun () ->
      Metrics.set_enabled enabled;
      Telemetry.count_request "admit";
      let t0 = Rota_obs.Clock.now () in
      let payloads, _reply = Replica.apply ~cid:"bench-1" r admit_op in
      let t1 = Rota_obs.Clock.now () in
      Metrics.observe Telemetry.queue_wait 1e-4;
      Buffer.clear buf;
      List.iter (fun p -> Binary.encode buf (stamp p)) payloads;
      Metrics.observe Telemetry.rtt (Rota_obs.Clock.between t0 t1);
      ignore (Replica.apply r release_op);
      Metrics.set_enabled false
  in
  Test.make_grouped ~name:"server/telemetry-overhead"
    [
      Test.make ~name:"bare" (Staged.stage (request_path false));
      Test.make ~name:"instrumented" (Staged.stage (request_path true));
    ]

(* --- E6: end-to-end engine --------------------------------------------------- *)

let small_trace =
  Scenario.trace
    { Scenario.default_params with seed = 9; arrivals = 12; horizon = 100; locations = 2 }

let bench_engine =
  Test.make_grouped ~name:"e6/engine"
    [
      Test.make ~name:"rota"
        (Staged.stage (fun () ->
             ignore (Engine.run ~policy:Admission.Rota small_trace)));
      Test.make ~name:"aggregate"
        (Staged.stage (fun () ->
             ignore (Engine.run ~policy:Admission.Aggregate small_trace)));
      Test.make ~name:"optimistic"
        (Staged.stage (fun () ->
             ignore (Engine.run ~policy:Admission.Optimistic small_trace)));
    ]

(* --- E11: fault repair --------------------------------------------------------- *)

let bench_fault_repair =
  let fault_params =
    { Scenario.default_params with seed = 9; arrivals = 12; horizon = 100; locations = 2 }
  in
  let plan = Scenario.fault_plan ~intensity:1.0 fault_params in
  Test.make_grouped ~name:"sim/fault-repair"
    [
      Test.make ~name:"no-faults"
        (Staged.stage (fun () ->
             ignore (Engine.run ~policy:Admission.Rota small_trace)));
      Test.make ~name:"faults-repair"
        (Staged.stage (fun () ->
             ignore (Engine.run ~faults:plan ~policy:Admission.Rota small_trace)));
      Test.make ~name:"faults-no-repair"
        (Staged.stage (fun () ->
             ignore
               (Engine.run ~faults:plan ~repair:false ~policy:Admission.Rota
                  small_trace)));
    ]

(* --- E7: scoping -------------------------------------------------------------- *)

let bench_scoping =
  let pools = 4 in
  let horizon = 120 in
  let global, tagged = Scenario.pooled ~seed:3 ~pools ~per_pool:4 ~horizon in
  let slice = Scenario.pool_capacity ~seed:3 ~pools ~horizon 0 in
  let c = snd (List.hd tagged) in
  Test.make_grouped ~name:"e7/scoping"
    [
      Test.make ~name:"admit-on-global"
        (Staged.stage (fun () ->
             let ctrl = Admission.create Admission.Rota global in
             ignore (Admission.request ctrl ~now:0 c)));
      Test.make ~name:"admit-on-pool-slice"
        (Staged.stage (fun () ->
             let ctrl = Admission.create Admission.Rota slice in
             ignore (Admission.request ctrl ~now:0 c)));
    ]

(* --- E7b: observability overhead ------------------------------------------------ *)

(* The telemetry layer's contract is that instrumentation left in hot
   paths costs one load-and-branch while recording is off.  The
   [-disabled] benchmarks run with the registry off (the process
   default); the [-enabled]/[-traced] ones toggle the flag (or install a
   sink) inside the measured closure, which adds two stores — noise at
   the profile/engine scale being measured. *)
let bench_obs_overhead =
  let module Metrics = Rota_obs.Metrics in
  let module Tracer = Rota_obs.Tracer in
  let c = Metrics.counter "bench/counter" in
  let h = Metrics.histogram "bench/hist" in
  let p = Profile.of_segments (random_segments 7 64) in
  let q = Profile.of_segments (random_segments 8 64) in
  Test.make_grouped ~name:"e7/obs-overhead"
    [
      Test.make ~name:"counter-incr-disabled"
        (Staged.stage (fun () -> Metrics.incr c));
      Test.make ~name:"histogram-observe-disabled"
        (Staged.stage (fun () -> Metrics.observe h 1e-6));
      Test.make ~name:"with-span-no-sink"
        (Staged.stage (fun () -> Tracer.with_span "bench" (fun () -> ())));
      Test.make ~name:"profile-add-disabled"
        (Staged.stage (fun () -> ignore (Profile.add p q)));
      Test.make ~name:"profile-add-enabled"
        (Staged.stage (fun () ->
             Metrics.set_enabled true;
             let r = Profile.add p q in
             Metrics.set_enabled false;
             ignore r));
      Test.make ~name:"engine-run-metrics-off"
        (Staged.stage (fun () ->
             ignore (Engine.run ~policy:Admission.Rota small_trace)));
      Test.make ~name:"engine-run-metrics-on"
        (Staged.stage (fun () ->
             Metrics.set_enabled true;
             let r = Engine.run ~policy:Admission.Rota small_trace in
             Metrics.set_enabled false;
             ignore r));
      Test.make ~name:"engine-run-traced-null-sink"
        (Staged.stage (fun () ->
             Tracer.install Rota_obs.Sink.null;
             let r = Engine.run ~policy:Admission.Rota small_trace in
             Tracer.uninstall ();
             ignore r));
      (* The buffered-flush option: one flush syscall per event vs one
         per 256 events, measured on the same sink machinery (writing to
         /dev/null so the disk does not participate). *)
      (let devnull = open_out "/dev/null" in
       let ev =
         {
           Rota_obs.Events.seq = 1;
           run = 1;
           sim = Some 7;
           wall_s = 1754500000.0625;
           payload =
             Rota_obs.Events.Decision
               {
                 id = "c001";
                 policy = "rota";
                 action = "admit";
                 slug = "reservation-committed";
                 certificate = Rota_obs.Json.Null;
                 cid = None;
               };
         }
       in
       let per_line = Rota_obs.Sink.jsonl devnull in
       let buffered = Rota_obs.Sink.jsonl ~flush_every:256 devnull in
       Test.make_grouped ~name:"jsonl-sink"
         [
           Test.make ~name:"flush-per-line"
             (Staged.stage (fun () -> per_line.Rota_obs.Sink.emit ev));
           Test.make ~name:"flush-every-256"
             (Staged.stage (fun () -> buffered.Rota_obs.Sink.emit ev));
         ]);
    ]

(* --- obs: live audit watchdog overhead ------------------------------------------ *)

(* The watchdog's contract is that live re-verification rides the trace
   stream at a cost proportional to the decision count, not the event
   count.  Both benchmarks pay the same sink-installation and teeing
   cost inside the measured closure; the difference between the pair is
   the price of [Live.step] over every event plus a
   [Accommodation.check_schedule] per decision. *)
let bench_audit_overhead =
  let module Tracer = Rota_obs.Tracer in
  let module Sink = Rota_obs.Sink in
  let module Watchdog = Rota_audit.Watchdog in
  Test.make_grouped ~name:"obs/audit-overhead"
    [
      Test.make ~name:"engine-run-watchdog-off"
        (Staged.stage (fun () ->
             Tracer.install (Sink.tee Sink.null Sink.null);
             let r = Engine.run ~policy:Admission.Rota small_trace in
             Tracer.uninstall ();
             ignore r));
      Test.make ~name:"engine-run-watchdog-on"
        (Staged.stage (fun () ->
             let w = Watchdog.create () in
             Tracer.install (Sink.tee Sink.null (Watchdog.sink w));
             let r = Engine.run ~policy:Admission.Rota small_trace in
             Tracer.uninstall ();
             ignore r));
    ]

(* --- obs: OpenMetrics export overhead -------------------------------------------- *)

(* What --metrics-out adds to a sampled run: both benchmarks pay for
   metrics recording and the periodic sampler (sample period 16); the
   [-on] one also tees the snapshot sink, which renders and atomically
   rewrites the scrape file every [every] observed events.  The pair
   prices the render+write, not the sampling. *)
let bench_export_overhead =
  let module Metrics = Rota_obs.Metrics in
  let module Tracer = Rota_obs.Tracer in
  let module Sink = Rota_obs.Sink in
  let scrape = Filename.temp_file "rota-bench-scrape" ".prom" in
  let sampled_run extra_sink =
    Metrics.set_enabled true;
    Tracer.set_sample_period 16;
    let sink =
      match extra_sink with
      | None -> Sink.null
      | Some s -> Sink.tee Sink.null s
    in
    Tracer.install sink;
    let r = Engine.run ~policy:Admission.Rota small_trace in
    Tracer.uninstall ();
    Tracer.set_sample_period 0;
    Metrics.set_enabled false;
    ignore r
  in
  Test.make_grouped ~name:"obs/export-overhead"
    [
      Test.make ~name:"sampled-run-export-off"
        (Staged.stage (fun () -> sampled_run None));
      Test.make ~name:"sampled-run-export-on"
        (Staged.stage (fun () ->
             sampled_run
               (Some (Rota_obs.Openmetrics.snapshot_sink ~every:64 scrape))));
    ]

(* --- E8: extensions ------------------------------------------------------------- *)

let bench_stn =
  Test.make_indexed ~name:"ext/stn-consistency" ~args:[ 8; 32; 128 ] (fun n ->
      Staged.stage (fun () ->
          let stn = Rota_interval.Stn.create n in
          for i = 0 to n - 2 do
            Rota_interval.Stn.before stn ~gap:1 i (i + 1)
          done;
          Rota_interval.Stn.window stn (n - 1) ~lo:0 ~hi:(4 * n);
          ignore (Rota_interval.Stn.schedule stn)))

let bench_precedence =
  Test.make_indexed ~name:"ext/precedence-chain" ~args:[ 4; 16; 64 ] (fun n ->
      let w = iv 0 (8 * n) in
      let theta = Resource_set.singleton (Term.v 1 w cpu1) in
      let nodes =
        List.init n (fun i ->
            {
              Rota.Precedence.id = string_of_int i;
              requirement =
                Requirement.make_complex ~steps:[ [ amount cpu1 3 ] ] ~window:w;
              deps = (if i = 0 then [] else [ string_of_int (i - 1) ]);
            })
      in
      Staged.stage (fun () -> ignore (Rota.Precedence.schedule theta nodes)))

let bench_session =
  Test.make ~name:"ext/session-compile+schedule"
    (Staged.stage
       (let l2 = Location.make "l2" in
        let alice = Actor_name.make "alice" and bob = Actor_name.make "bob" in
        let session =
          Result.get_ok
            (Rota.Session.make ~id:"bench" ~start:0 ~deadline:200
               [
                 Rota.Session.participant ~name:alice ~home:l1
                   [
                     Rota.Session.Act (Rota_actor.Action.evaluate 1);
                     Rota.Session.Act (Rota_actor.Action.send ~dest:bob ~size:1);
                     Rota.Session.Await bob;
                     Rota.Session.Act (Rota_actor.Action.evaluate 1);
                   ];
                 Rota.Session.participant ~name:bob ~home:l2
                   [
                     Rota.Session.Await alice;
                     Rota.Session.Act (Rota_actor.Action.evaluate 1);
                     Rota.Session.Act (Rota_actor.Action.send ~dest:alice ~size:1);
                   ];
               ])
        in
        let theta =
          Resource_set.of_terms
            [
              Term.v 1 (iv 0 200) cpu1;
              Term.v 1 (iv 0 200) (Located_type.cpu l2);
              Term.v 2 (iv 0 200) (Located_type.network ~src:l1 ~dst:l2);
              Term.v 2 (iv 0 200) (Located_type.network ~src:l2 ~dst:l1);
            ]
        in
        fun () ->
          ignore
            (Rota.Session.meets_deadline Rota_actor.Cost_model.default theta
               session)))

let bench_planner =
  Test.make ~name:"ext/planner-evaluate"
    (Staged.stage
       (let remote = Location.make "remote" in
        let window = iv 0 60 in
        let theta =
          Resource_set.of_terms
            [
              Term.v 1 window cpu1;
              Term.v 2 window (Located_type.cpu remote);
              Term.v 3 window (Located_type.network ~src:l1 ~dst:remote);
              Term.v 3 window (Located_type.network ~src:remote ~dst:l1);
            ]
        in
        let work =
          [ Rota_actor.Action.evaluate 2; Rota_actor.Action.evaluate 2 ]
        in
        fun () ->
          ignore
            (Rota_scheduler.Planner.evaluate theta ~window
               ~name:(Actor_name.make "w") ~home:l1 ~sites:[ remote ] ~work)))

let scenario_text =
  let params =
    { Scenario.default_params with seed = 11; arrivals = 8; horizon = 80 }
  in
  let resources =
    Resource_set.to_terms (Scenario.capacity_of params)
    |> List.map (fun term -> { Rota_syntax.Document.term; join_at = 0 })
  in
  Rota_syntax.Document.print
    { Rota_syntax.Document.resources; computations = Scenario.computations params; sessions = []; faults = [] }

let bench_parse =
  Test.make ~name:"ext/scenario-parse"
    (Staged.stage (fun () -> ignore (Rota_syntax.Document.parse scenario_text)))

let bench_session_engine =
  Test.make ~name:"ext/engine-mixed-sessions"
    (Staged.stage
       (let trace =
          Scenario.trace_with_sessions
            { Scenario.default_params with seed = 21; arrivals = 8; horizon = 100;
              locations = 2 }
            ~sessions:6
        in
        fun () -> ignore (Engine.run ~policy:Admission.Rota trace)))

let bench_calibration =
  Test.make ~name:"ext/calibration-iteration"
    (Staged.stage
       (let believed = Rota_actor.Cost_model.default in
        let true_model =
          { believed with Rota_actor.Cost_model.evaluate_cost = 16 }
        in
        let trace =
          Scenario.trace
            { Scenario.default_params with seed = 23; arrivals = 10; horizon = 100;
              locations = 2 }
        in
        fun () ->
          ignore
            (Rota_sim.Calibration.calibrate ~iterations:1 ~policy:Admission.Rota
               ~believed ~true_model trace)))

(* --- runner -------------------------------------------------------------------- *)

(* Named registry so a CLI argument can select a subset: any argument
   that is a substring of a suite name keeps that suite (used by `make
   bench-smoke` to exercise just scheduler/admission-scale in CI). *)
let suites =
  [
    ("e1/allen-compose", bench_allen_compose);
    ("e1/allen-set-compose", bench_allen_set_compose);
    ("e1/ia-propagate", bench_ia_propagate);
    ("e2/profile-union", bench_profile_union);
    ("e2/profile-complement", bench_profile_sub);
    ("e2/resource-set-union", bench_rset_union);
    ("e3/exists-path", bench_semantics_exists);
    ("e4/schedule-sequential", bench_schedule_sequential);
    ("e5/admit-one-more", bench_admission);
    ("scheduler/admission-scale", bench_admission_scale);
    ("server/decide-rtt", bench_server_decide);
    ("server/telemetry-overhead", bench_telemetry_overhead);
    ("e6/engine", bench_engine);
    ("sim/fault-repair", bench_fault_repair);
    ("e7/scoping", bench_scoping);
    ("e7/obs-overhead", bench_obs_overhead);
    ("obs/audit-overhead", bench_audit_overhead);
    ("obs/export-overhead", bench_export_overhead);
    ("ext/stn-consistency", bench_stn);
    ("ext/precedence-chain", bench_precedence);
    ("ext/session-compile", bench_session);
    ("ext/planner-evaluate", bench_planner);
    ("ext/scenario-parse", bench_parse);
    ("ext/engine-mixed-sessions", bench_session_engine);
    ("ext/calibration-iteration", bench_calibration);
  ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- machine-readable output ----------------------------------------------- *)

(* BENCH_<n>.json: group -> test -> ns/run, plus enough metadata to
   compare numbers across commits (schema "rota-bench-1").  Committed
   snapshots let a later change diff its perf claims against the repo's
   recorded baseline instead of a hand-copied table. *)
module Json = Rota_obs.Json

(* Bechamel reports NaN when a suite produced no usable estimate; JSON
   has no NaN literal, so encode it (and infinities) as null. *)
let json_float x = if Float.is_finite x then Json.Float x else Json.Null

(* Machine-speed anchor: ns per iteration of a fixed integer spin loop,
   minimum over several trials (the minimum is robust to preemption on
   a shared machine).  Two snapshots' anchors give the perf gate a
   machine-speed ratio to rescale by before applying its threshold —
   the loop touches no rota code, so a real regression cannot hide
   behind the rescaling, while a VM that is simply running 2x slower
   today no longer fails every row. *)
let spin_iters = 2_000_000

let spin () =
  let x = ref 0 in
  for i = 1 to spin_iters do
    x := !x lxor i
  done;
  Sys.opaque_identity !x

let spin_ns_per_iter () =
  let best = ref infinity in
  for _ = 1 to 7 do
    let t0 = Rota_obs.Clock.now () in
    ignore (spin ());
    let dt = Rota_obs.Clock.since t0 in
    best := Float.min !best (dt *. 1e9 /. float_of_int spin_iters)
  done;
  !best

let json_results ~filters ~chosen ~quota_s ~limit rows =
  (* Attribute each measured row back to its registry suite: row names
     are "rota/<suite...>", so the longest suite name that is a
     substring wins (suite names never overlap in practice, but indexed
     rows append ":<arg>" and grouped rows insert subtest segments). *)
  let group_of name =
    List.fold_left
      (fun best (suite, _) ->
        if contains name suite then
          match best with
          | Some b when String.length b >= String.length suite -> best
          | _ -> Some suite
        else best)
      None chosen
    |> Option.value ~default:"other"
  in
  let groups =
    List.fold_left
      (fun acc (name, ns, r2) ->
        let g = group_of name in
        let entry =
          (* A row whose OLS fit explains less than half the variance is
             tagged so downstream consumers (the perf gate) skip it
             loudly instead of trusting a noise-dominated estimate. *)
          let unstable =
            if Float.is_finite r2 && r2 >= 0.5 then []
            else [ ("unstable", Json.Bool true) ]
          in
          Json.Obj
            ([ ("ns_per_run", json_float ns); ("r_square", json_float r2) ]
            @ unstable)
        in
        match List.assoc_opt g acc with
        | Some tests -> (g, (name, entry) :: tests) :: List.remove_assoc g acc
        | None -> (g, [ (name, entry) ]) :: acc)
      [] rows
    |> List.rev_map (fun (g, tests) -> (g, Json.Obj (List.rev tests)))
  in
  Json.Obj
    [
      ("schema", Json.String "rota-bench-1");
      ( "metadata",
        Json.Obj
          [
            ("ocaml", Json.String Sys.ocaml_version);
            ("word_size", Json.Int Sys.word_size);
            ("quota_s", Json.Float quota_s);
            ("limit", Json.Int limit);
            ("spin_ns_per_iter", json_float (spin_ns_per_iter ()));
            ("filters", Json.List (List.map (fun f -> Json.String f) filters));
          ] );
      ("groups", Json.Obj groups);
    ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  (* --json PATH, --quota SECS, and --limit N (with --flag=value forms)
     are the harness's own flags; everything else is a suite-name
     filter.  The default quota is fine for the broad sweep, but a
     baseline worth gating on needs enough samples per row for the OLS
     fit to be trustworthy — bump --quota until r^2 stops complaining. *)
  let json_out = ref None
  and quota_s = ref 0.25
  and limit = ref 1000 in
  let requested =
    let split_eq arg =
      match String.index_opt arg '=' with
      | Some i when String.length arg > 2 && arg.[0] = '-' ->
          Some
            ( String.sub arg 0 i,
              String.sub arg (i + 1) (String.length arg - i - 1) )
      | _ -> None
    in
    let set flag value =
      match flag with
      | "--json" -> json_out := Some value
      | "--quota" -> (
          match float_of_string_opt value with
          | Some q when q > 0. -> quota_s := q
          | _ -> failwith (flag ^ ": expected a positive number of seconds"))
      | "--limit" -> (
          match int_of_string_opt value with
          | Some n when n > 0 -> limit := n
          | _ -> failwith (flag ^ ": expected a positive sample count"))
      | _ -> failwith ("unknown flag " ^ flag)
    in
    let rec go acc = function
      | [] -> List.rev acc
      | ("--json" | "--quota" | "--limit") :: ([] as rest) ->
          ignore rest;
          failwith "flag needs a value"
      | (("--json" | "--quota" | "--limit") as flag) :: value :: rest ->
          set flag value;
          go acc rest
      | arg :: rest -> (
          match split_eq arg with
          | Some (flag, value) ->
              set flag value;
              go acc rest
          | None -> go (arg :: acc) rest)
    in
    go [] requested
  in
  let json_out = !json_out
  and quota_s = !quota_s
  and limit = !limit in
  let chosen =
    if requested = [] then suites
    else
      List.filter
        (fun (name, _) -> List.exists (contains name) requested)
        suites
  in
  if chosen = [] then begin
    Printf.eprintf "no benchmark matches %s; known suites:\n"
      (String.concat " " requested);
    List.iter (fun (name, _) -> Printf.eprintf "  %s\n" name) suites;
    exit 1
  end;
  let tests = Test.make_grouped ~name:"rota" (List.map snd chosen) in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota_s) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ x ] -> x
          | Some _ | None -> nan
        in
        let r2 = Option.value (Analyze.OLS.r_square ols) ~default:nan in
        (name, ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  Printf.printf "%-44s %16s %8s\n" "benchmark" "ns/run" "r^2";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter
    (fun (name, ns, r2) -> Printf.printf "%-44s %16.1f %8.3f\n" name ns r2)
    rows;
  (* A low r^2 means the OLS fit barely explains the samples — the
     ns/run figure is noise-dominated and should not back a perf claim
     without a longer quota or a quieter machine. *)
  let low_confidence =
    List.filter (fun (_, _, r2) -> Float.is_finite r2 && r2 < 0.5) rows
  in
  if low_confidence <> [] then begin
    Printf.printf "\nwarning: %d benchmark(s) with r^2 < 0.5 (estimate unreliable):\n"
      (List.length low_confidence);
    List.iter
      (fun (name, _, r2) -> Printf.printf "  %s (r^2 = %.3f)\n" name r2)
      low_confidence
  end;
  match json_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc
            (Json.to_string
               (json_results ~filters:requested ~chosen ~quota_s ~limit rows));
          output_char oc '\n');
      Printf.printf "json written to %s\n" path

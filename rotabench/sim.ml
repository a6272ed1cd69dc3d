open Import

(* The work of [rota simulate --faults F --watchdog]: every admission
   policy over one scenario and its generated fault plan, with the live
   audit watchdog teed in as a sink, exactly as the CLI installs it. *)

type inputs = { trace : Trace.t; faults : Rota_sim.Fault.plan }

let inputs ~intensity params =
  { trace = Scenario.trace params; faults = Scenario.fault_plan ~intensity params }

type counts = {
  policy : string;
  offered : int;
  admitted : int;
  rejected : int;
  on_time : int;
  missed : int;
  revoked : int;  (** Commitments evicted by faults. *)
  repaired : int;  (** Rescued on any rung of the repair ladder. *)
  audited : int;  (** Decisions the watchdog re-verified. *)
  audit_decisions : int;
  divergences : int;
}

let counts_of (r : Engine.report) =
  let f = r.Engine.faults in
  let wd = Option.value r.Engine.watchdog ~default:Watchdog.no_stats in
  {
    policy = Admission.policy_name r.Engine.policy;
    offered = r.Engine.offered;
    admitted = r.Engine.admitted;
    rejected = r.Engine.rejected;
    on_time = r.Engine.completed_on_time;
    missed = r.Engine.missed_deadlines;
    revoked = f.Engine.commitments_revoked;
    repaired = f.Engine.reaccommodated + f.Engine.migrated;
    audited = wd.Watchdog.verified;
    audit_decisions = wd.Watchdog.decisions;
    divergences = wd.Watchdog.divergences;
  }

(* What one policy's run must show: every decision re-verified live,
   none divergent. *)
let audit_clean c = c.divergences = 0 && c.audited = c.audit_decisions

type run = {
  counts : counts;
  wall_s : float;
  verdict_gaps_ms : float list;
      (** Per verdict: monotonic time since the previous verdict or
          completion the engine emitted. *)
  completion_gaps_ms : float list;  (** The same, per completion. *)
}

(* The engine decides arrivals one at a time, so the time between two
   lifecycle events on its stream is how long the second one waited
   once the first was out — the sequential analogue of a closed-loop
   caller's round trip. *)
let gap_sink () =
  let last = ref (now_ns ()) in
  let verdicts = ref [] and completions = ref [] in
  let mark into =
    let t = now_ns () in
    into := (Int64.to_float (Int64.sub t !last) /. 1e6) :: !into;
    last := t
  in
  let emit (e : Events.t) =
    match e.Events.payload with
    | Events.Decision { action = "admit" | "reject"; _ } -> mark verdicts
    | Events.Completed _ -> mark completions
    | _ -> ()
  in
  (Sink.make ~emit ~close:ignore, fun () -> (!verdicts, !completions))

let run_policy inputs policy =
  let wd = Watchdog.create ~mode:Watchdog.Warn () in
  let gaps, collect = gap_sink () in
  Tracer.install (Sink.tee gaps (Watchdog.sink wd));
  Watchdog.install wd;
  let t0 = now_ns () in
  let report =
    Fun.protect
      ~finally:(fun () ->
        Tracer.uninstall ();
        Watchdog.uninstall ())
      (fun () -> Engine.run ~faults:inputs.faults ~repair:true ~policy inputs.trace)
  in
  let wall_s = since_s t0 in
  let verdict_gaps_ms, completion_gaps_ms = collect () in
  { counts = counts_of report; wall_s; verdict_gaps_ms; completion_gaps_ms }

let run_all inputs = List.map (run_policy inputs) Admission.all_policies

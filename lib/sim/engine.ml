open Import

type dispatch = Auto | Reservation | Shared

type outcome = {
  computation : string;
  arrived : Time.t;
  deadline : Time.t;
  admitted : bool;
  reject_reason : string option;
  finished : Time.t option;
  unfinished : (Located_type.t * int) list;
  faulted : bool;
}

let on_time o =
  o.admitted
  && match o.finished with Some t -> t <= o.deadline | None -> false

let missed o = o.admitted && not (on_time o)

type type_stat = { ltype : Located_type.t; capacity : int; consumed : int }

type fault_stats = {
  injected : int;
  revoked_quantity : int;
  commitments_revoked : int;
  degraded : int;
  reaccommodated : int;
  migrated : int;
  retries : int;
  retry_successes : int;
  preempted : int;
  work_saved : int;
}

let no_faults =
  {
    injected = 0;
    revoked_quantity = 0;
    commitments_revoked = 0;
    degraded = 0;
    reaccommodated = 0;
    migrated = 0;
    retries = 0;
    retry_successes = 0;
    preempted = 0;
    work_saved = 0;
  }

type report = {
  policy : Admission.policy;
  dispatch_used : dispatch;
  horizon : Time.t;
  offered : int;
  admitted : int;
  rejected : int;
  completed_on_time : int;
  missed_deadlines : int;
  capacity_total : int;
  consumed_total : int;
  type_stats : type_stat list;
  outcomes : outcome list;
  faults : fault_stats;
  anomalies : (Time.t * string) list;
  watchdog : Rota_audit.Watchdog.stats option;
}

let utilization r =
  if r.capacity_total <= 0 then 0.
  else float_of_int r.consumed_total /. float_of_int r.capacity_total

let goodput r =
  if r.offered <= 0 then 0.
  else float_of_int r.completed_on_time /. float_of_int r.offered

let is_rota_family = function
  | Admission.Rota | Admission.Rota_unmerged | Admission.Rota_given_order ->
      true
  | Admission.Aggregate | Admission.Optimistic -> false

(* Processor sharing of one type's rate among wanting actors: an even
   split, with the remainder going to the earliest deadlines. *)
let shared_allocations rate wanters =
  let n = List.length wanters in
  if n = 0 then []
  else
    let base = rate / n and extra = rate mod n in
    List.mapi (fun i w -> (w, if i < extra then base + 1 else base)) wanters

let head_wants (p : State.pending) xi =
  match p.State.steps with
  | [] -> false
  | head :: _ ->
      List.exists
        (fun (a : Requirement.amount) -> Located_type.equal a.Requirement.ltype xi)
        head

(* --- metrics ------------------------------------------------------------ *)

let m_runs = Rota_obs.Metrics.counter "engine/runs"
let m_run_s = Rota_obs.Metrics.histogram "engine/run_s"
let m_ticks = Rota_obs.Metrics.counter "engine/ticks"
let m_arrivals = Rota_obs.Metrics.counter "engine/arrivals"
let m_capacity_joins = Rota_obs.Metrics.counter "engine/capacity_joins"
let m_capacity_quantity = Rota_obs.Metrics.counter "engine/capacity_quantity"
let m_completions = Rota_obs.Metrics.counter "engine/completions"
let m_kills = Rota_obs.Metrics.counter "engine/kills"
let m_owed = Rota_obs.Metrics.counter "engine/owed_work"
let m_consumed = Rota_obs.Metrics.counter "engine/consumed_quantity"
let m_faults = Rota_obs.Metrics.counter "engine/faults"
let m_revoked = Rota_obs.Metrics.counter "engine/revoked_quantity"
let m_repairs = Rota_obs.Metrics.counter "engine/repairs"
let m_repair_retries = Rota_obs.Metrics.counter "engine/repair_retries"
let m_preempts = Rota_obs.Metrics.counter "engine/preemptions"
let g_queue = Rota_obs.Metrics.gauge "engine/queue_depth"
let g_running = Rota_obs.Metrics.gauge "engine/running"
let g_ledger = Rota_obs.Metrics.gauge "engine/ledger_size"

let depth_buckets =
  [| 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]

let h_queue_depth =
  Rota_obs.Metrics.histogram ~buckets:depth_buckets "engine/queue_depth_dist"

let run ?(cost_model = Cost_model.default) ?true_cost_model
    ?(dispatch = Auto) ?(faults = []) ?(repair = true) ~policy trace =
  let true_cost_model = Option.value true_cost_model ~default:cost_model in
  let horizon = Trace.horizon trace in
  let dispatch_used =
    match dispatch with
    | Auto -> if is_rota_family policy then Reservation else Shared
    | (Reservation | Shared) as d -> d
  in
  let policy_label = Admission.policy_name policy in
  ignore
    (Rota_obs.Tracer.new_run ~sim:0
       (Printf.sprintf "engine policy=%s dispatch=%s horizon=%d" policy_label
          (match dispatch_used with
          | Reservation -> "reservation"
          | Shared -> "shared"
          | Auto -> "auto")
          horizon));
  Rota_obs.Metrics.incr m_runs;
  (* Snapshot the installed watchdog (if any) so the report can state
     the verification delta this run contributed — the watchdog itself
     spans commands, not runs. *)
  let watchdog_before =
    Option.map Rota_audit.Watchdog.stats (Rota_audit.Watchdog.installed ())
  in
  Rota_obs.Tracer.with_span ~sim:0 "engine/run" @@ fun () ->
  Rota_obs.Metrics.time m_run_s @@ fun () ->
  let events = Event_queue.of_list (Trace.events trace) in
  let state = ref (State.make ~available:Resource_set.empty ~now:0) in
  (* The admission state machine.  Every controller update goes
     through it, and so does every record of one. *)
  let replica = Replica.create ~cost_model policy in
  let outcomes : (string, outcome) Hashtbl.t = Hashtbl.create 64 in
  let arrival_order = ref [] in
  let running : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let capacity_total = ref 0 and consumed_total = ref 0 in
  let offered = ref 0 in
  let per_type_capacity : (Located_type.t, int) Hashtbl.t = Hashtbl.create 16 in
  let per_type_consumed : (Located_type.t, int) Hashtbl.t = Hashtbl.create 16 in
  let bump tbl xi q =
    Hashtbl.replace tbl xi (q + Option.value (Hashtbl.find_opt tbl xi) ~default:0)
  in
  (* The one recording gate: an untraced run never forces a certificate
     or serializes a slice. *)
  let record sim records =
    if Rota_obs.Tracer.active () then
      List.iter (Rota_obs.Tracer.emit ~sim) (Lazy.force records)
  in
  (* Fault machinery.  All of it is inert when the plan is empty: the
     queues stay empty, [faults_enabled] gates the extra per-tick
     bookkeeping, and a fault-free run takes exactly the same path (and
     produces byte-identical output) as before faults existed. *)
  let fault_plan = Fault.sort faults in
  let faults_enabled = fault_plan <> [] in
  let fault_queue =
    Event_queue.of_list
      (List.map (fun (f : Fault.t) -> (f.Fault.at, f.Fault.kind)) fault_plan)
  in
  (* Backoff retries scheduled by the repair ladder: (id, attempt, window). *)
  let retry_queue : (string * int * Interval.t) Event_queue.t =
    Event_queue.create ()
  in
  let fs = ref no_faults in
  let anomalies = ref [] in
  (* Ids whose commitment a fault touched, and per-computation consumption
     (only tracked under faults) — together they price the work that
     repair saved from being thrown away. *)
  let affected : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let per_comp_consumed : (string, int) Hashtbl.t = Hashtbl.create 64 in
  (* An anomaly is an internal inconsistency the engine survives by
     degrading (the computation is left to its deadline) instead of
     aborting the whole run; each one is surfaced in the report. *)
  let anomaly ~id ~at reason =
    anomalies := (at, Printf.sprintf "%s: %s" id reason) :: !anomalies;
    Rota_obs.Tracer.emit ~sim:at (Rota_obs.Events.Anomaly { id; reason })
  in
  let mark_faulted id =
    Hashtbl.replace affected id ();
    match Hashtbl.find_opt outcomes id with
    | Some o -> Hashtbl.replace outcomes id { o with faulted = true }
    | None -> ()
  in
  (* Interacting-actor sessions: each segment runs as its own pending batch
     under a derived id, released only once its dependencies complete. *)
  let module Srt = struct
    type t = {
      session : Session.t;
      nodes : Precedence.node list;
      mutable released : string list;  (* node ids accommodated so far *)
      mutable completed : string list;  (* node ids fully drained *)
    }
  end in
  let active_sessions : (string, Srt.t) Hashtbl.t = Hashtbl.create 8 in
  let segment_cid session_id node_id = session_id ^ "/" ^ node_id in

  let record_finish id at =
    match Hashtbl.find_opt outcomes id with
    | Some o when o.finished = None ->
        Hashtbl.replace outcomes id { o with finished = Some at };
        Hashtbl.remove running id;
        Rota_obs.Metrics.incr m_completions;
        record at (Replica.complete replica id Replica.Finished)
    | Some _ | None -> ()
  in

  let consume ~computation ~actor amounts =
    let amounts = List.filter (fun (_, q) -> q > 0) amounts in
    if amounts <> [] then begin
      (* Clamp to what the pending actually still needs, so accounting is
         exact even when a share overshoots the remaining requirement. *)
      let needed =
        match
          List.find_opt
            (fun (p : State.pending) ->
              String.equal p.State.computation computation
              && Actor_name.equal p.State.actor actor)
            !state.State.pending
        with
        | None -> []
        | Some p -> (
            match p.State.steps with
            | [] -> []
            | head :: _ ->
                List.map
                  (fun (xi, q) ->
                    let need =
                      List.fold_left
                        (fun acc (a : Requirement.amount) ->
                          if Located_type.equal a.Requirement.ltype xi then
                            acc + a.Requirement.quantity
                          else acc)
                        0 head
                    in
                    (xi, min q need))
                  amounts)
      in
      let total = List.fold_left (fun acc (_, q) -> acc + q) 0 needed in
      if total > 0 then begin
        consumed_total := !consumed_total + total;
        Rota_obs.Metrics.add m_consumed total;
        List.iter (fun (xi, q) -> bump per_type_consumed xi q) needed;
        if faults_enabled then bump per_comp_consumed computation total;
        state := State.consume_in_head !state ~computation ~actor needed
      end
    end
  in

  let pending_remainder cid =
    List.concat_map
      (fun (p : State.pending) ->
        List.concat_map
          (fun step ->
            List.map
              (fun (a : Requirement.amount) ->
                (a.Requirement.ltype, a.Requirement.quantity))
              step)
          p.State.steps)
      (State.pending_of !state ~computation:cid)
  in

  (* Accommodate every segment whose dependencies have all completed and
     whose work is non-empty; empty segments complete instantly, possibly
     cascading further releases. *)
  let rec release_ready (rt : Srt.t) now =
    let id = rt.Srt.session.Session.id in
    let progressed = ref false in
    List.iter
      (fun (n : Precedence.node) ->
        let nid = n.Precedence.id in
        if
          (not (List.mem nid rt.Srt.released))
          && List.for_all (fun d -> List.mem d rt.Srt.completed) n.Precedence.deps
        then begin
          rt.Srt.released <- nid :: rt.Srt.released;
          progressed := true;
          let steps = n.Precedence.requirement.Requirement.steps in
          if steps = [] then rt.Srt.completed <- nid :: rt.Srt.completed
          else
            (* A segment released at (or past) the deadline has no window
               left; it stays pending-less and the deadline pass kills the
               session. *)
            match
              Interval.make
                ~start:(Time.max now rt.Srt.session.Session.start)
                ~stop:rt.Srt.session.Session.deadline
            with
            | None -> ()
            | Some window -> (
                match
                  State.accommodate_parts !state ~id:(segment_cid id nid)
                    ~window
                    [ (Actor_name.make nid, steps) ]
                with
                | Ok s -> state := s
                | Error e ->
                    (* Formerly fatal: degrade instead — the segment never
                       gets pendings, so the deadline pass kills the
                       session and the run carries on. *)
                    anomaly ~id:(segment_cid id nid) ~at:now
                      ("session segment accommodate: " ^ e))
        end)
      rt.Srt.nodes;
    if !progressed then release_ready rt now
  in

  (* An arrival, plain or session, once the replica has decided it:
     open its outcome and record the decision.  Returns whether it was
     admitted. *)
  let arrive t ~id ~deadline ((decision : Admission.outcome), records) =
    incr offered;
    Rota_obs.Metrics.incr m_arrivals;
    arrival_order := id :: !arrival_order;
    let admitted = decision.Admission.admitted in
    Hashtbl.replace outcomes id
      {
        computation = id;
        arrived = t;
        deadline;
        admitted;
        reject_reason = (if admitted then None else Some decision.Admission.reason);
        finished = None;
        unfinished = [];
        faulted = false;
      };
    record t records;
    admitted
  in

  let process_session_arrival t session =
    let id = session.Session.id in
    if
      arrive t ~id ~deadline:session.Session.deadline
        (Replica.admit_session replica session)
    then begin
      let rt =
        {
          Srt.session;
          nodes = Session.to_nodes true_cost_model session;
          released = [];
          completed = [];
        }
      in
      Hashtbl.replace active_sessions id rt;
      Hashtbl.replace running id ();
      release_ready rt t;
      if List.length rt.Srt.completed = List.length rt.Srt.nodes then begin
        Hashtbl.remove active_sessions id;
        record_finish id t
      end
    end
  in

  let process_event t = function
    | Trace.Join theta ->
        let clipped, records = Replica.join replica theta in
        (* The report counts only what lies within the horizon. *)
        let counted =
          match Interval.make ~start:t ~stop:horizon with
          | Some w ->
              let within = Resource_set.restrict clipped w in
              Resource_set.fold
                (fun xi profile () -> bump per_type_capacity xi (Profile.total profile))
                within ();
              Resource_set.total within
          | None -> 0
        in
        capacity_total := !capacity_total + counted;
        state := State.acquire !state clipped;
        Rota_obs.Metrics.incr m_capacity_joins;
        Rota_obs.Metrics.add m_capacity_quantity counted;
        record t records
    | Trace.Arrive_session session -> process_session_arrival t session
    | Trace.Arrive computation ->
        let id = computation.Computation.id in
        if
          arrive t ~id ~deadline:computation.Computation.deadline
            (Replica.admit replica computation)
        then begin
          let conc = Computation.to_concurrent true_cost_model computation in
          let parts =
            List.map2
              (fun (p : Program.t) (part : Requirement.complex) ->
                (p.Program.name, part.Requirement.steps))
              computation.Computation.programs conc.Requirement.parts
          in
          match
            State.accommodate_parts !state ~id
              ~window:(Computation.window computation)
              parts
          with
          | Ok s ->
              state := s;
              Hashtbl.replace running id ();
              (* A workless computation finishes instantly. *)
              if State.pending_of s ~computation:id = [] then record_finish id t
          | Error e ->
              (* Ids are unique per trace and deadlines were checked by the
                 admission layer, so this cannot happen on a healthy run;
                 degrade instead of aborting.  Registering the id keeps
                 its lifecycle intact: the deadline pass will close it
                 with a Killed record. *)
              Hashtbl.replace running id ();
              anomaly ~id ~at:t ("accommodate failed: " ^ e)
        end
  in

  (* --- fault handling ----------------------------------------------------

     Everything below runs only when the plan is non-empty (and the
     ladder only under a Rota policy with reservation dispatch — the
     baselines hold no commitments to repair). *)
  let repair_enabled =
    repair && is_rota_family policy
    && match dispatch_used with Reservation -> true | Shared | Auto -> false
  in
  (* Rung 4: kill the victim now, releasing what it still holds for the
     survivors, instead of letting it limp to a guaranteed miss. *)
  let preempt t id =
    if Hashtbl.mem running id then begin
      let unfinished = pending_remainder id in
      (match Hashtbl.find_opt outcomes id with
      | Some o -> Hashtbl.replace outcomes id { o with unfinished }
      | None -> ());
      let owed = List.fold_left (fun acc (_, q) -> acc + q) 0 unfinished in
      fs := { !fs with preempted = !fs.preempted + 1 };
      Rota_obs.Metrics.incr m_preempts;
      record t (Replica.complete replica id (Replica.Preempted owed));
      state := State.drop !state ~computation:id;
      Hashtbl.remove running id
    end
  in
  (* One walk of the repair ladder for one victim; Retry outcomes are
     queued and re-enter here on a later tick (the victim may have
     finished or been killed in between — then this is a no-op). *)
  let run_repair t ~attempt id window =
    if Hashtbl.mem running id && not (Hashtbl.mem active_sessions id) then begin
      let parts =
        List.map
          (fun (p : State.pending) -> (p.State.actor, p.State.steps))
          (State.pending_of !state ~computation:id)
      in
      if parts <> [] then
        let v = { Repair.computation = id; window; parts } in
        match
          Rota_obs.Tracer.with_span ~sim:t "engine/repair" (fun () ->
              Repair.attempt ~attempt (Replica.controller replica) ~now:t v)
        with
        | Repair.Repaired r ->
            let records = Replica.repair replica ~id ~attempt r in
            (match r.Repair.rung with
            | Repair.Reaccommodate ->
                fs := { !fs with reaccommodated = !fs.reaccommodated + 1 }
            | Repair.Migrate _ ->
                (* The rescue rewrote the remaining steps (migration legs
                   prepended, cpu retargeted): swap the pendings to match
                   the new reservation. *)
                fs := { !fs with migrated = !fs.migrated + 1 };
                state := State.drop !state ~computation:id;
                (match
                   State.accommodate_parts !state ~id ~window r.Repair.parts
                 with
                | Ok s -> state := s
                | Error e -> anomaly ~id ~at:t ("migration rewrite: " ^ e)));
            if attempt > 0 then
              fs := { !fs with retry_successes = !fs.retry_successes + 1 };
            Rota_obs.Metrics.incr m_repairs;
            record t records
        | Repair.Retry { at; attempt } ->
            fs := { !fs with retries = !fs.retries + 1 };
            Rota_obs.Metrics.incr m_repair_retries;
            Event_queue.add retry_queue ~time:at (id, attempt, window)
        | Repair.Preempted _ -> preempt t id
    end
  in
  (* A capacity leave the replica has applied: settle the report's
     horizon-clipped accounting and the execution state, then run the
     ladder over the evicted commitments highest-slack first — when the
     shrunk residual cannot carry everyone, it is the lowest-slack
     victims that fall through to preemption ("kill lowest-slack
     first"). *)
  let settle_revocation t ((r : Replica.revocation), records) =
    let actual = r.Replica.removed in
    record t records;
    if not (Resource_set.is_empty actual) then begin
      (match Interval.make ~start:t ~stop:horizon with
      | Some w ->
          let within = Resource_set.restrict actual w in
          let lost = Resource_set.total within in
          capacity_total := !capacity_total - lost;
          fs := { !fs with revoked_quantity = !fs.revoked_quantity + lost };
          Rota_obs.Metrics.add m_revoked lost;
          Resource_set.fold
            (fun xi profile () -> bump per_type_capacity xi (-Profile.total profile))
            within ()
      | None -> ());
      state := State.revoke !state actual;
      List.iter
        (fun (entry : Calendar.entry) ->
          mark_faulted entry.Calendar.computation;
          fs := { !fs with commitments_revoked = !fs.commitments_revoked + 1 })
        r.Replica.evicted;
      if repair_enabled then
        List.filter_map
          (fun (entry : Calendar.entry) ->
            let id = entry.Calendar.computation in
            if Hashtbl.mem active_sessions id then
              (* A session holds one merged reservation over many staged
                 segments; re-deriving per-segment remainders is beyond
                 the ladder — an evicted session stalls and dies at its
                 deadline. *)
              None
            else
              let parts =
                List.map
                  (fun (p : State.pending) -> (p.State.actor, p.State.steps))
                  (State.pending_of !state ~computation:id)
              in
              let v =
                { Repair.computation = id; window = entry.Calendar.window; parts }
              in
              Some (Repair.slack ~now:t v, id, entry.Calendar.window))
          r.Replica.evicted
        |> List.sort (fun (s1, id1, _) (s2, id2, _) ->
               match compare (s2 : int) s1 with
               | 0 -> String.compare id1 id2
               | c -> c)
        |> List.iter (fun (_, id, window) -> run_repair t ~attempt:0 id window)
    end
  in
  let apply_fault t kind =
    fs := { !fs with injected = !fs.injected + 1 };
    Rota_obs.Metrics.incr m_faults;
    match (kind : Fault.kind) with
    | Fault.Revoke slice ->
        settle_revocation t (Replica.revoke replica ~fault:"revocation" slice)
    | Fault.Blackout { location; until } ->
        settle_revocation t (Replica.blackout replica ~location ~until)
    | Fault.Slowdown { computation = id; factor } ->
        Rota_obs.Tracer.emit ~sim:t
          (Rota_obs.Events.Fault_injected
             { fault = "slowdown"; quantity = 0; terms = Rota_obs.Json.Null });
        if
          factor > 1
          && Hashtbl.mem running id
          && not (Hashtbl.mem active_sessions id)
        then begin
          match State.pending_of !state ~computation:id with
          | [] -> ()
          | first :: _ as pendings ->
              let window = first.State.window in
              let inflate =
                List.map
                  (List.map (fun (a : Requirement.amount) ->
                       Requirement.amount a.Requirement.ltype
                         (a.Requirement.quantity * factor)))
              in
              let quantity steps =
                List.fold_left
                  (fun acc step ->
                    List.fold_left
                      (fun acc (a : Requirement.amount) ->
                        acc + a.Requirement.quantity)
                      acc step)
                  0 steps
              in
              let parts, extra =
                List.fold_left
                  (fun (parts, extra) (p : State.pending) ->
                    ( (p.State.actor, inflate p.State.steps) :: parts,
                      extra + ((factor - 1) * quantity p.State.steps) ))
                  ([], 0) pendings
              in
              let parts = List.rev parts in
              mark_faulted id;
              fs := { !fs with degraded = !fs.degraded + 1 };
              (* With repair on, the committed reservation covers only the
                 original work: hand it back and re-admit the inflated
                 remainder through the ladder. *)
              record t
                (Replica.degrade replica id ~extra ~released:repair_enabled);
              state := State.drop !state ~computation:id;
              (match State.accommodate_parts !state ~id ~window parts with
              | Ok s -> state := s
              | Error e -> anomaly ~id ~at:t ("slowdown inflate: " ^ e));
              if repair_enabled then run_repair t ~attempt:0 id window
        end
    | Fault.Rejoin theta ->
        let quantity =
          match Interval.make ~start:t ~stop:horizon with
          | Some w ->
              Resource_set.total
                (Resource_set.restrict (Resource_set.truncate_before theta t) w)
          | None -> 0
        in
        (* terms stay Null: the capacity-joined record that follows
           carries the slice. *)
        Rota_obs.Tracer.emit ~sim:t
          (Rota_obs.Events.Fault_injected
             { fault = "rejoin"; quantity; terms = Rota_obs.Json.Null });
        (* From here on a rejoin is exactly a join: same accounting, same
           capacity-joined record — arriving twice is harmless (capacity
           just grows twice), which is the point: the engine tolerates an
           unreliable membership layer's duplicates. *)
        process_event t (Trace.Join theta)
  in

  let dispatch_reservation t =
    let calendar = Admission.calendar (Replica.controller replica) in
    List.iter
      (fun (entry : Calendar.entry) ->
        let is_session = Hashtbl.mem active_sessions entry.Calendar.computation in
        List.iter
          (fun (actor, (schedule : Accommodation.schedule)) ->
            let amounts =
              Resource_set.fold
                (fun xi profile acc ->
                  let rate = Profile.rate_at profile t in
                  if rate > 0 then (xi, rate) :: acc else acc)
                schedule.Accommodation.reservation []
            in
            let computation =
              if is_session then
                segment_cid entry.Calendar.computation (Actor_name.name actor)
              else entry.Calendar.computation
            in
            consume ~computation ~actor amounts)
          entry.Calendar.schedules)
      (Calendar.entries calendar)
  in

  let dispatch_shared t =
    let snapshot = !state in
    Resource_set.fold
      (fun xi profile () ->
        let rate = Profile.rate_at profile t in
        if rate > 0 then begin
          let wanters =
            List.filter
              (fun (p : State.pending) ->
                Interval.mem t p.State.window && head_wants p xi)
              snapshot.State.pending
            |> List.sort
                 (fun (p1 : State.pending) (p2 : State.pending) ->
                   match
                     Time.compare
                       (Interval.stop p1.State.window)
                       (Interval.stop p2.State.window)
                   with
                   | 0 -> String.compare p1.State.computation p2.State.computation
                   | c -> c)
          in
          List.iter
            (fun ((p : State.pending), share) ->
              consume ~computation:p.State.computation ~actor:p.State.actor
                [ (xi, share) ])
            (shared_allocations rate wanters)
        end)
      snapshot.State.available ()
  in

  (* Metric sampling: at the configured cadence, fold the engine's own
     GC/allocation footprint into the registry (Runtime_sampler) and
     snapshot every series into the trace so registry series become
     time series (Tracer.sample_metrics is a no-op without a sink +
     enabled registry). *)
  let sample_every = Rota_obs.Tracer.sample_period () in
  if sample_every > 0 then Rota_obs.Runtime_sampler.reset ();
  for t = 0 to horizon - 1 do
    if sample_every > 0 && t mod sample_every = 0 then begin
      Rota_obs.Runtime_sampler.update ~sim:t ();
      Rota_obs.Tracer.sample_metrics ~sim:t ()
    end;
    Rota_obs.Metrics.incr m_ticks;
    if Rota_obs.Metrics.enabled () then begin
      let depth = List.length !state.State.pending in
      Rota_obs.Metrics.set g_queue depth;
      Rota_obs.Metrics.observe h_queue_depth (float_of_int depth);
      Rota_obs.Metrics.set g_running (Hashtbl.length running);
      Rota_obs.Metrics.set g_ledger
        (Admission.ledger_size (Replica.controller replica))
    end;
    List.iter (fun (_, e) -> process_event t e) (Event_queue.pop_until events t);
    if faults_enabled then begin
      (* Faults land after the tick's declared events and before dispatch:
         a commitment never consumes from capacity revoked "this tick". *)
      List.iter
        (fun (_, kind) -> apply_fault t kind)
        (Event_queue.pop_until fault_queue t);
      List.iter
        (fun (_, (id, attempt, window)) -> run_repair t ~attempt id window)
        (Event_queue.pop_until retry_queue t)
    end;
    (match dispatch_used with
    | Reservation -> dispatch_reservation t
    | Shared -> dispatch_shared t
    | Auto -> assert false);
    (* Completions: session segments first (they may release successors)... *)
    Hashtbl.iter
      (fun id (rt : Srt.t) ->
        let newly_done =
          List.filter
            (fun nid ->
              (not (List.mem nid rt.Srt.completed))
              && State.pending_of !state ~computation:(segment_cid id nid) = [])
            rt.Srt.released
        in
        if newly_done <> [] then begin
          rt.Srt.completed <- newly_done @ rt.Srt.completed;
          release_ready rt (Time.succ t)
        end;
        if List.length rt.Srt.completed = List.length rt.Srt.nodes then begin
          Hashtbl.remove active_sessions id;
          record_finish id (Time.succ t)
        end)
      (Hashtbl.copy active_sessions);
    (* ... then plain computations. *)
    Hashtbl.iter
      (fun id () ->
        if
          (not (Hashtbl.mem active_sessions id))
          && State.pending_of !state ~computation:id = []
        then record_finish id (Time.succ t))
      (Hashtbl.copy running);
    (* ... and deadline kills, recording the work still owed. *)
    Hashtbl.iter
      (fun id () ->
        match Hashtbl.find_opt outcomes id with
        | Some o when o.deadline <= Time.succ t ->
            let unfinished =
              match Hashtbl.find_opt active_sessions id with
              | Some rt ->
                  (* Released segments owe their pending remainder; segments
                     never released owe their whole requirement. *)
                  let from_released =
                    List.concat_map
                      (fun nid -> pending_remainder (segment_cid id nid))
                      rt.Srt.released
                  in
                  let from_unreleased =
                    List.concat_map
                      (fun (n : Precedence.node) ->
                        if List.mem n.Precedence.id rt.Srt.released then []
                        else Requirement.demand_complex n.Precedence.requirement)
                      rt.Srt.nodes
                  in
                  from_released @ from_unreleased
              | None -> pending_remainder id
            in
            Hashtbl.replace outcomes id { o with unfinished };
            let owed =
              List.fold_left (fun acc (_, q) -> acc + q) 0 unfinished
            in
            Rota_obs.Metrics.incr m_kills;
            Rota_obs.Metrics.add m_owed owed;
            record (Time.succ t)
              (Replica.complete replica id (Replica.Killed owed));
            (match Hashtbl.find_opt active_sessions id with
            | Some rt ->
                List.iter
                  (fun nid ->
                    state := State.drop !state ~computation:(segment_cid id nid))
                  rt.Srt.released;
                Hashtbl.remove active_sessions id
            | None -> state := State.drop !state ~computation:id);
            Hashtbl.remove running id
        | Some _ | None -> ())
      (Hashtbl.copy running);
    state := State.tick !state;
    Replica.advance replica (Time.succ t)
  done;

  let outcomes_list =
    List.rev_map (fun id -> Hashtbl.find outcomes id) !arrival_order
  in
  let count f = List.length (List.filter f outcomes_list) in
  let type_stats =
    Hashtbl.fold (fun xi capacity acc -> (xi, capacity) :: acc) per_type_capacity []
    |> List.sort (fun (a, _) (b, _) -> Located_type.compare a b)
    |> List.map (fun (ltype, capacity) ->
           {
             ltype;
             capacity;
             consumed =
               Option.value (Hashtbl.find_opt per_type_consumed ltype) ~default:0;
           })
  in
  (* Work saved: consumption already sunk into fault-affected computations
     that nonetheless finished on time — without repair it would have been
     thrown away at their deadlines.  (Session segments consume under
     derived "id/node" ids; credit them to the session.) *)
  let work_saved =
    Hashtbl.fold
      (fun id () acc ->
        match Hashtbl.find_opt outcomes id with
        | Some o when on_time o ->
            let prefix = id ^ "/" in
            Hashtbl.fold
              (fun cid q acc ->
                if String.equal cid id || String.starts_with ~prefix cid then
                  acc + q
                else acc)
              per_comp_consumed acc
        | Some _ | None -> acc)
      affected 0
  in
  {
    policy;
    dispatch_used;
    horizon;
    offered = !offered;
    admitted = count (fun o -> o.admitted);
    rejected = count (fun o -> not o.admitted);
    completed_on_time = count on_time;
    missed_deadlines = count missed;
    capacity_total = !capacity_total;
    consumed_total = !consumed_total;
    type_stats;
    outcomes = outcomes_list;
    faults = { !fs with work_saved };
    anomalies = List.rev !anomalies;
    watchdog =
      (match (Rota_audit.Watchdog.installed (), watchdog_before) with
      | Some w, Some before ->
          Some (Rota_audit.Watchdog.diff_stats (Rota_audit.Watchdog.stats w) before)
      | Some w, None -> Some (Rota_audit.Watchdog.stats w)
      | None, _ -> None);
  }

let pp_report ppf r =
  Format.fprintf ppf
    "%-16s %-11s offered=%3d admitted=%3d rejected=%3d on-time=%3d missed=%3d util=%.2f goodput=%.2f"
    (Admission.policy_name r.policy)
    (match r.dispatch_used with
    | Reservation -> "reservation"
    | Shared -> "shared"
    | Auto -> "auto")
    r.offered r.admitted r.rejected r.completed_on_time r.missed_deadlines
    (utilization r) (goodput r);
  (* The row is byte-identical to the fault-free format unless faults
     actually fired (E6 and friends diff engine output verbatim). *)
  if r.faults.injected > 0 then
    Format.fprintf ppf " faults=%d revoked=%d repaired=%d preempted=%d saved=%d"
      r.faults.injected r.faults.commitments_revoked
      (r.faults.reaccommodated + r.faults.migrated)
      r.faults.preempted r.faults.work_saved;
  (* Same discipline as the fault segment: nothing appended unless a
     watchdog was actually riding the run. *)
  match r.watchdog with
  | None -> ()
  | Some w ->
      Format.fprintf ppf " audited=%d/%d divergent=%d"
        w.Rota_audit.Watchdog.verified w.Rota_audit.Watchdog.decisions
        w.Rota_audit.Watchdog.divergences

let pp_type_stats ppf r =
  List.iter
    (fun s ->
      let util =
        if s.capacity <= 0 then 0.
        else float_of_int s.consumed /. float_of_int s.capacity
      in
      Format.fprintf ppf "%-24s capacity=%6d consumed=%6d util=%.2f@."
        (Format.asprintf "%a" Located_type.pp s.ltype)
        s.capacity s.consumed util)
    r.type_stats

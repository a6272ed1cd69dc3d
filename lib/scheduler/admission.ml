open Import

type policy =
  | Rota
  | Rota_unmerged
  | Rota_given_order
  | Aggregate
  | Optimistic

let policy_name = function
  | Rota -> "rota"
  | Rota_unmerged -> "rota-unmerged"
  | Rota_given_order -> "rota-given-order"
  | Aggregate -> "aggregate"
  | Optimistic -> "optimistic"

let all_policies = [ Rota; Rota_unmerged; Rota_given_order; Aggregate; Optimistic ]

type outcome = {
  admitted : bool;
  reason : string;
  schedules : (Actor_name.t * Accommodation.schedule) list option;
  certificate : Certificate.t Lazy.t;
      (** Lazy so the untraced hot path never serializes schedules; the
          engine forces it only when a tracer is recording. *)
}

type demand = {
  computation : string;
  window : Interval.t;
  totals : (Located_type.t * int) list;
}

module Demand_map = Map.Make (String)

type t = {
  policy : policy;
  cost_model : Cost_model.t;
  calendar : Calendar.t;
  demands : demand Demand_map.t;
      (** Aggregate/Optimistic baselines' ledger, keyed by computation id
          so duplicate checks and removals are O(log n); pruned of
          expired windows on {!advance}. *)
}

let create ?(cost_model = Cost_model.default) policy capacity =
  {
    policy;
    cost_model;
    calendar = Calendar.create capacity;
    demands = Demand_map.empty;
  }

let policy c = c.policy
let cost_model c = c.cost_model
let calendar c = c.calendar
let residual c = Calendar.residual c.calendar
let ledger_size c = Calendar.size c.calendar + Demand_map.cardinal c.demands

let already_admitted c id =
  Demand_map.mem id c.demands
  || Calendar.mem c.calendar ~computation:id

let admitted_demands c =
  List.map
    (fun (_, d) -> (d.computation, d.window, d.totals))
    (Demand_map.bindings c.demands)

let total_demand cost_model computation =
  let conc = Computation.to_concurrent cost_model computation in
  let module M = Map.Make (Located_type) in
  let totals =
    List.fold_left
      (fun m part ->
        List.fold_left
          (fun m (xi, q) ->
            M.update xi (fun prev -> Some (Option.value prev ~default:0 + q)) m)
          m
          (Requirement.demand_complex part))
      M.empty conc.Requirement.parts
  in
  M.bindings totals

let reject ~certificate reason =
  { admitted = false; reason; schedules = None; certificate }

let admit ?schedules ~certificate reason =
  { admitted = true; reason; schedules; certificate }

(* --- telemetry ---------------------------------------------------------- *)

module Obs = struct
  module Metrics = Rota_obs.Metrics
  module Tracer = Rota_obs.Tracer
  module Clock = Rota_obs.Clock

  type series = {
    requests : Metrics.counter;
    admits : Metrics.counter;
    rejects : Metrics.counter;
    decision_s : Metrics.histogram;
    ledger : Metrics.gauge;
        (** Live ledger size (calendar entries + demand records) after
            the decision — the scale the incremental ledger keeps the
            decision cost independent of. *)
  }

  let series =
    List.map
      (fun p ->
        let n = policy_name p in
        ( p,
          {
            requests = Metrics.counter ("admission/requests." ^ n);
            admits = Metrics.counter ("admission/admitted." ^ n);
            rejects = Metrics.counter ("admission/rejected." ^ n);
            decision_s = Metrics.histogram ("admission/decision_s." ^ n);
            ledger = Metrics.gauge ("admission/ledger_size." ^ n);
          } ))
      all_policies

  let quantity_buckets =
    [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.;
       10000. |]

  let reservation_quantity =
    Metrics.histogram ~buckets:quantity_buckets
      "admission/reservation_quantity"

  (* Reject reasons become counter labels; the shared slugging function
     guarantees trace summaries bucket by exactly these labels. *)
  let slug = Rota_obs.Slug.of_reason

  let observe_decision policy outcome ~elapsed_s =
    let s = List.assq policy series in
    Metrics.incr s.requests;
    Metrics.observe s.decision_s elapsed_s;
    if outcome.admitted then begin
      Metrics.incr s.admits;
      match outcome.schedules with
      | Some schedules ->
          let quantity =
            List.fold_left
              (fun acc (_, sch) ->
                acc + Resource_set.total sch.Accommodation.reservation)
              0 schedules
          in
          Metrics.observe reservation_quantity (float_of_int quantity)
      | None -> ()
    end
    else begin
      Metrics.incr s.rejects;
      Metrics.incr
        (Metrics.counter ("admission/reject_reason." ^ slug outcome.reason))
    end

  (* Span + per-policy counters/latency around one decision.  The
     disabled path is the bare [decide] call. *)
  let observed policy name ~now ~size decide =
    Tracer.with_span ~sim:now name (fun () ->
        if Metrics.enabled () then begin
          let t0 = Clock.now () in
          let ((c, outcome) as r) = decide () in
          observe_decision policy outcome ~elapsed_s:(Clock.since t0);
          Metrics.set (List.assq policy series).ledger (size c);
          r
        end
        else decide ())
end

(* Theorem 4: schedule the newcomer on the residual and commit. *)
let request_rota ?(merge = true) ?order c ~now:_ computation =
  let conc = Computation.to_concurrent ~merge c.cost_model computation in
  let theta = residual c in
  let result =
    match order with
    | Some order -> Accommodation.schedule_concurrent ~order theta conc
    | None -> Accommodation.schedule_concurrent theta conc
  in
  match result with
  | None ->
      ( c,
        reject
          ~certificate:(lazy (Certificate.infeasible ~residual:theta))
          "residual expiring resources cannot satisfy the requirement" )
  | Some schedules ->
      let named =
        List.map2
          (fun (p : Program.t) s -> (p.Program.name, s))
          computation.Computation.programs schedules
      in
      let entry =
        {
          Calendar.computation = computation.Computation.id;
          window = Computation.window computation;
          reservation = Accommodation.reservation_of_schedules schedules;
          schedules = named;
        }
      in
      (* [theta] is the pre-commit residual — exactly what Theorem 4's
         check ran against, which is what the certificate must pin. *)
      let certificate =
        lazy
          (Certificate.of_schedules ~theorem:Certificate.T4 ~residual:theta
             (List.map2
                (fun (actor, s) spec -> (actor, spec, s))
                named conc.Requirement.parts))
      in
      (match Calendar.commit c.calendar entry with
      | Ok calendar ->
          ( { c with calendar },
            admit ~schedules:named ~certificate
              "reservation committed (Theorem 4)" )
      | Error e ->
          (* Cannot happen: the reservation was carved from the residual. *)
          ( c,
            reject
              ~certificate:(lazy (Certificate.infeasible ~residual:theta))
              ("internal: " ^ e) ))

let remember_demand c d =
  { c with demands = Demand_map.add d.computation d c.demands }

(* The aggregate baseline's feasibility table, one row per demanded
   type: the newcomer's demand vs. capacity within the window minus the
   total demand of overlapping admitted computations.  The rows are the
   decision {e and} the certificate — [Certificate.rows_fit] is the
   single verdict function, so the two cannot disagree. *)
let ledger_rows c ~window totals =
  let overlapping_committed xi =
    Demand_map.fold
      (fun _ d acc ->
        if Interval.overlaps d.window window then
          acc
          + List.fold_left
              (fun acc (xj, q) -> if Located_type.equal xi xj then acc + q else acc)
              0 d.totals
        else acc)
      c.demands 0
  in
  List.map
    (fun (xi, q) ->
      {
        Certificate.row_type = xi;
        demand = q;
        capacity = Calendar.capacity_quantity c.calendar xi window;
        committed = overlapping_committed xi;
      })
    totals

let decide_aggregate c ~id ~window totals =
  let rows = ledger_rows c ~window totals in
  let certificate =
    lazy (Certificate.aggregate ~residual:(residual c) ~window ~rows)
  in
  if not (Certificate.rows_fit rows) then
    (c, reject ~certificate "aggregate quantities do not fit")
  else
    let d = { computation = id; window; totals } in
    ( remember_demand c d,
      admit ~certificate "aggregate quantities fit (no ordering check)" )

let request_aggregate c ~now:_ computation =
  decide_aggregate c ~id:computation.Computation.id
    ~window:(Computation.window computation)
    (total_demand c.cost_model computation)

let session_totals cost_model session =
  let nodes = Session.to_nodes cost_model session in
  let module M = Map.Make (Located_type) in
  let totals =
    List.fold_left
      (fun m (n : Precedence.node) ->
        List.fold_left
          (fun m (xi, q) ->
            M.update xi (fun prev -> Some (Option.value prev ~default:0 + q)) m)
          m
          (Requirement.demand_complex n.Precedence.requirement))
      M.empty nodes
  in
  M.bindings totals

let session_window (s : Session.t) =
  Interval.of_pair s.Session.start s.Session.deadline

(* Theorem 4 lifted to sessions: dependency-aware scheduling on the
   residual, then commit. *)
let request_session_rota c ~now:_ session =
  let nodes = Session.to_nodes c.cost_model session in
  let theta = residual c in
  match Precedence.schedule theta nodes with
  | Error e ->
      ( c,
        reject
          ~certificate:(lazy (Certificate.infeasible ~residual:theta))
          (Format.asprintf "residual cannot carry the session: %a"
             Precedence.pp_error e) )
  | Ok placements ->
      let named =
        List.map
          (fun (p : Precedence.placement) ->
            (Actor_name.make p.Precedence.node, p.Precedence.schedule))
          placements
      in
      let reservation =
        Accommodation.reservation_of_schedules (List.map snd named)
      in
      let entry =
        {
          Calendar.computation = session.Session.id;
          window = session_window session;
          reservation;
          schedules = named;
        }
      in
      (* Placements come back in node order, so zip them with the nodes
         to recover each one's requirement.  A node's spec window is its
         {e effective} window — the placement schedule's window, clipped
         by its dependencies — not the session window. *)
      let certificate =
        lazy
          (Certificate.of_schedules ~theorem:Certificate.T4 ~residual:theta
             (List.map2
                (fun (n : Precedence.node) (p : Precedence.placement) ->
                  ( Actor_name.make p.Precedence.node,
                    Requirement.make_complex
                      ~steps:n.Precedence.requirement.Requirement.steps
                      ~window:p.Precedence.schedule.Accommodation.window,
                    p.Precedence.schedule ))
                nodes placements))
      in
      (match Calendar.commit c.calendar entry with
      | Ok calendar ->
          ( { c with calendar },
            admit ~schedules:named ~certificate
              "session reservation committed (Theorem 4)" )
      | Error e ->
          ( c,
            reject
              ~certificate:(lazy (Certificate.infeasible ~residual:theta))
              ("internal: " ^ e) ))

let admit_optimistic c d =
  ( remember_demand c d,
    admit
      ~certificate:
        (lazy (Certificate.optimistic ~window:d.window ~totals:d.totals))
      "optimistic admission" )

let decide_session c ~now session =
  if now >= session.Session.deadline then
    ( c,
      reject
        ~certificate:(lazy (Certificate.stale ~deadline:session.Session.deadline))
        "deadline already passed" )
  else if already_admitted c session.Session.id then
    ( c,
      reject
        ~certificate:(lazy Certificate.duplicate)
        (Printf.sprintf "%s is already admitted" session.Session.id) )
  else
    match c.policy with
    | Rota | Rota_unmerged | Rota_given_order ->
        request_session_rota c ~now session
    | Aggregate ->
        decide_aggregate c ~id:session.Session.id
          ~window:(session_window session)
          (session_totals c.cost_model session)
    | Optimistic ->
        admit_optimistic c
          {
            computation = session.Session.id;
            window = session_window session;
            totals = session_totals c.cost_model session;
          }

let decide c ~now computation =
  if now >= computation.Computation.deadline then
    ( c,
      reject
        ~certificate:
          (lazy (Certificate.stale ~deadline:computation.Computation.deadline))
        "deadline already passed" )
  else if already_admitted c computation.Computation.id then
    (* Without this guard a re-submitted id double-counts under
       Optimistic/Aggregate and surfaces under Rota as a misleading
       "internal: calendar: ... already committed" reject. *)
    ( c,
      reject
        ~certificate:(lazy Certificate.duplicate)
        (Printf.sprintf "%s is already admitted" computation.Computation.id) )
  else
    match c.policy with
    | Rota -> request_rota c ~now computation
    | Rota_unmerged -> request_rota ~merge:false c ~now computation
    | Rota_given_order ->
        request_rota ~order:Accommodation.Order.Given c ~now computation
    | Aggregate -> request_aggregate c ~now computation
    | Optimistic ->
        admit_optimistic c
          {
            computation = computation.Computation.id;
            window = Computation.window computation;
            totals = total_demand c.cost_model computation;
          }

let request c ~now computation =
  Obs.observed c.policy "admission/request" ~now ~size:ledger_size (fun () ->
      decide c ~now computation)

let request_session c ~now session =
  Obs.observed c.policy "admission/request-session" ~now ~size:ledger_size
    (fun () -> decide_session c ~now session)

let withdraw c ~now ~computation =
  let in_calendar = Calendar.find c.calendar ~computation in
  let in_demands = Demand_map.find_opt computation c.demands in
  let window =
    match (in_calendar, in_demands) with
    | Some entry, _ -> Some entry.Calendar.window
    | None, Some d -> Some d.window
    | None, None -> None
  in
  match window with
  | None -> Error (Printf.sprintf "computation %s is not admitted" computation)
  | Some window ->
      if now >= Interval.start window then
        Error
          (Printf.sprintf
             "computation %s has already started (s=%d, now=%d): cannot leave"
             computation (Interval.start window) now)
      else
        Ok
          {
            c with
            calendar = Calendar.release c.calendar ~computation;
            demands = Demand_map.remove computation c.demands;
          }

let complete c ~computation =
  {
    c with
    calendar = Calendar.release c.calendar ~computation;
    demands = Demand_map.remove computation c.demands;
  }

let add_capacity c theta =
  { c with calendar = Calendar.add_capacity c.calendar theta }

let remove_capacity c slice =
  Result.map (fun calendar -> { c with calendar })
    (Calendar.remove_capacity c.calendar slice)

(* Unannounced revocation: the calendar decides which commitments
   survive; the demand ledger (baselines) keeps its records — baseline
   policies hold no reservations to evict, they simply find less
   capacity at dispatch time. *)
let revoke c slice =
  let calendar, evicted = Calendar.revoke c.calendar slice in
  ({ c with calendar }, evicted)

let adopt c entry =
  Result.map (fun calendar -> { c with calendar })
    (Calendar.commit c.calendar entry)

(* Advancing also prunes demand records whose windows have fully
   expired: the optimistic/aggregate baselines would otherwise scan dead
   demands on every decision forever. *)
let advance c now =
  {
    c with
    calendar = Calendar.advance c.calendar now;
    demands = Demand_map.filter (fun _ d -> Interval.stop d.window > now) c.demands;
  }

let pp_outcome ppf o =
  Format.fprintf ppf "%s (%s)" (if o.admitted then "admit" else "reject") o.reason

(* --- state snapshots ------------------------------------------------------ *)

module Json = Rota_obs.Json

let ( let* ) = Result.bind

let policy_of_name name =
  List.find_opt (fun p -> String.equal (policy_name p) name) all_policies

let remember_demand c ~computation ~window ~totals =
  remember_demand c { computation; window; totals }

let jfield name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "admission snapshot: missing field %S" name)

let snapshot_format = "rota-admission-snapshot-1"

let demand_to_json (d : demand) =
  Json.Obj
    [
      ("computation", Json.String d.computation);
      ("window", Certificate.interval_to_json d.window);
      ( "totals",
        Json.List
          (List.map
             (fun (xi, q) ->
               Json.Obj
                 [
                   ("type", Certificate.ltype_to_json xi);
                   ("quantity", Json.Int q);
                 ])
             d.totals) );
    ]

let demand_of_json json =
  let* computation = Result.bind (jfield "computation" json) Json.to_str in
  let* window =
    Result.bind (jfield "window" json) Certificate.interval_of_json
  in
  let* totals =
    match jfield "totals" json with
    | Ok (Json.List items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* xi = Result.bind (jfield "type" item) Certificate.ltype_of_json in
            let* q = Result.bind (jfield "quantity" item) Json.to_int in
            if q < 0 then Error "admission snapshot: negative demand quantity"
            else Ok ((xi, q) :: acc))
          (Ok []) items
        |> Result.map List.rev
    | Ok _ -> Error "admission snapshot: field \"totals\" is not a list"
    | Error _ as e -> e
  in
  Ok { computation; window; totals }

(* The digest stamp is the snapshot's integrity seal: restore rebuilds
   capacity, every reservation and every demand record, recomputes the
   residual, and refuses the snapshot unless its digest matches what the
   running controller hashed at save time — in the version the stamp was
   written in, so a snapshot from before digest v2 still restores. *)
let snapshot c =
  Json.Obj
    [
      ("format", Json.String snapshot_format);
      ("policy", Json.String (policy_name c.policy));
      ("digest", Json.String (Certificate.digest (residual c)));
      ("calendar", Calendar.snapshot c.calendar);
      ( "demands",
        Json.List
          (List.map
             (fun (_, d) -> demand_to_json d)
             (Demand_map.bindings c.demands)) );
    ]

let restore ?(cost_model = Cost_model.default) json =
  let* fmt = Result.bind (jfield "format" json) Json.to_str in
  let* () =
    if String.equal fmt snapshot_format then Ok ()
    else Error (Printf.sprintf "admission snapshot: unknown format %S" fmt)
  in
  let* pname = Result.bind (jfield "policy" json) Json.to_str in
  let* policy =
    match policy_of_name pname with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "admission snapshot: unknown policy %S" pname)
  in
  let* recorded = Result.bind (jfield "digest" json) Json.to_str in
  let* calendar = Result.bind (jfield "calendar" json) Calendar.restore in
  let* demands =
    match jfield "demands" json with
    | Ok (Json.List items) ->
        List.fold_left
          (fun acc item ->
            let* m = acc in
            let* d = demand_of_json item in
            Ok (Demand_map.add d.computation d m))
          (Ok Demand_map.empty) items
    | Ok _ -> Error "admission snapshot: field \"demands\" is not a list"
    | Error _ as e -> e
  in
  let c = { policy; cost_model; calendar; demands } in
  let rebuilt = Certificate.digest_like recorded (residual c) in
  if String.equal rebuilt recorded then Ok c
  else
    Error
      (Printf.sprintf
         "admission snapshot: residual digest mismatch: recorded %s, rebuilt %s"
         recorded rebuilt)

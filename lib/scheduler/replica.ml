open Import

type t = { mutable ctrl : Admission.t; mutable now : Time.t }
type records = Events.payload list Lazy.t

let create ?cost_model policy =
  { ctrl = Admission.create ?cost_model policy Resource_set.empty; now = 0 }

let policy t = Admission.policy t.ctrl
let now t = t.now
let controller t = t.ctrl
let policy_label t = Admission.policy_name (policy t)
let residual_digest t = Certificate.digest (Admission.residual t.ctrl)

let advance t at =
  if at > t.now then begin
    t.now <- at;
    t.ctrl <- Admission.advance t.ctrl at
  end

let terms set = Certificate.rects_to_json (Certificate.rects_of_set set)

let decision ?cid ~policy ~id ~action ~reason certificate =
  Events.Decision
    {
      id;
      policy;
      action;
      slug = Slug.of_reason reason;
      certificate = Certificate.to_json certificate;
      cid;
    }

(* --- transitions ----------------------------------------------------------- *)

let join t slice =
  let clipped = Resource_set.truncate_before slice t.now in
  t.ctrl <- Admission.add_capacity t.ctrl clipped;
  ( clipped,
    lazy
      [
        Events.Capacity_joined
          { quantity = Resource_set.total clipped; terms = terms clipped };
      ] )

type revocation = { removed : Resource_set.t; evicted : Calendar.entry list }

let revoke ?cid t ~fault slice =
  let removed =
    Resource_set.meet
      (Resource_set.truncate_before slice t.now)
      (Calendar.capacity (Admission.calendar t.ctrl))
  in
  let evicted =
    if Resource_set.is_empty removed then []
    else begin
      let ctrl, evicted = Admission.revoke t.ctrl removed in
      t.ctrl <- ctrl;
      evicted
    end
  in
  let ctrl = t.ctrl and policy = policy_label t in
  let records =
    lazy
      (let residual = Admission.residual ctrl in
       let reason = "commitment evicted by revocation" in
       (Events.Fault_injected
          { fault; quantity = Resource_set.total removed; terms = terms removed }
       :: List.map
            (fun (e : Calendar.entry) ->
              Events.Commitment_revoked
                {
                  id = e.Calendar.computation;
                  quantity = Resource_set.total e.Calendar.reservation;
                })
            evicted)
       @ List.map
           (fun (e : Calendar.entry) ->
             decision ?cid ~policy ~id:e.Calendar.computation ~action:"evict"
               ~reason
               (Certificate.of_committed ~theorem:Certificate.T4 ~residual
                  e.Calendar.schedules))
           evicted)
  in
  ({ removed; evicted }, records)

let blackout t ~location ~until =
  let slice =
    match Interval.make ~start:t.now ~stop:until with
    | None -> Resource_set.empty
    | Some w ->
        Resource_set.fold
          (fun xi profile acc ->
            if List.exists (Location.equal location) (Located_type.locations xi)
            then Resource_set.update xi (fun _ -> Profile.restrict profile w) acc
            else acc)
          (Calendar.capacity (Admission.calendar t.ctrl))
          Resource_set.empty
  in
  revoke t ~fault:"blackout" slice

let verdict ?cid t ~id (outcome : Admission.outcome) =
  let policy = policy_label t in
  lazy
    [
      decision ?cid ~policy ~id
        ~action:(if outcome.Admission.admitted then "admit" else "reject")
        ~reason:outcome.Admission.reason
        (Lazy.force outcome.Admission.certificate);
    ]

let admit ?cid t computation =
  let ctrl, outcome = Admission.request t.ctrl ~now:t.now computation in
  t.ctrl <- ctrl;
  (outcome, verdict ?cid t ~id:computation.Computation.id outcome)

let admit_session t session =
  let ctrl, outcome = Admission.request_session t.ctrl ~now:t.now session in
  t.ctrl <- ctrl;
  (outcome, verdict t ~id:session.Session.id outcome)

type ending = Finished | Killed of int | Preempted of int

let complete t id ending =
  t.ctrl <- Admission.complete t.ctrl ~computation:id;
  lazy
    [
      (match ending with
      | Finished -> Events.Completed { id }
      | Killed owed -> Events.Killed { id; owed }
      | Preempted owed -> Events.Preempted { id; owed });
    ]

let degrade t id ~extra ~released =
  if released then t.ctrl <- Admission.complete t.ctrl ~computation:id;
  lazy [ Events.Commitment_degraded { id; extra; released } ]

let repair t ~id ~attempt (r : Repair.repaired) =
  t.ctrl <- r.Repair.controller;
  let policy = policy_label t and rung = Repair.rung_name r.Repair.rung in
  lazy
    (let certificate = Certificate.to_json r.Repair.certificate in
     [
       Events.Repaired { id; rung; attempt; certificate };
       Events.Decision
         {
           id;
           policy;
           action = "repair";
           slug = Slug.of_reason ("repaired via " ^ rung);
           certificate;
           cid = None;
         };
     ])

(* --- replay ---------------------------------------------------------------- *)

let ( let* ) = Result.bind

let hull_window (parts : Certificate.part list) =
  match parts with
  | [] -> None
  | p :: rest ->
      let widen w (p : Certificate.part) =
        let start = min (Interval.start w) (Interval.start p.Certificate.window)
        and stop = max (Interval.stop w) (Interval.stop p.Certificate.window) in
        match Interval.make ~start ~stop with Some w -> w | None -> w
      in
      Some (List.fold_left widen p.Certificate.window rest)

(* Re-install an admission (or a repair's re-admission) from the
   certificate that justified it. *)
let replay_commit t ~id certificate =
  let* cert = Certificate.of_json certificate in
  match cert.Certificate.evidence with
  | Certificate.Schedules parts -> (
      match hull_window parts with
      | None -> Error (Printf.sprintf "admit %s: certificate has no parts" id)
      | Some window ->
          let entry =
            {
              Calendar.computation = id;
              window;
              reservation = Certificate.reservation cert;
              schedules = Certificate.schedules_of_parts cert;
            }
          in
          let* ctrl = Admission.adopt t.ctrl entry in
          t.ctrl <- ctrl;
          Ok ())
  | Certificate.Aggregate_fit { window; rows; fits = _ } ->
      let totals =
        List.map
          (fun (r : Certificate.row) -> (r.Certificate.row_type, r.Certificate.demand))
          rows
      in
      t.ctrl <- Admission.remember_demand t.ctrl ~computation:id ~window ~totals;
      Ok ()
  | Certificate.Optimistic_fit { window; totals } ->
      t.ctrl <- Admission.remember_demand t.ctrl ~computation:id ~window ~totals;
      Ok ()
  | Certificate.Infeasible | Certificate.Stale _ | Certificate.Duplicate ->
      Error (Printf.sprintf "admit %s: reject evidence on an admit decision" id)

let slice_of_terms ~what terms =
  if terms = Json.Null then
    Error (Printf.sprintf "%s without terms: slice cannot be replayed" what)
  else Result.map Certificate.set_of_rects (Certificate.rects_of_json terms)

let replay t (e : Events.t) =
  (* Span records never move the clock: they are emitted at span exit,
     out of simulated-time order, and the auditor's frontier skips them
     too. *)
  (match (e.Events.payload, e.Events.sim) with
  | Events.Span _, _ | _, None -> ()
  | _, Some s -> advance t s);
  match e.Events.payload with
  | Events.Run_started { label } ->
      (match
         Option.bind (Events.label_field "policy" label)
           Admission.policy_of_name
       with
      | Some policy ->
          t.ctrl <-
            Admission.create ~cost_model:(Admission.cost_model t.ctrl) policy
              Resource_set.empty;
          t.now <- Option.value e.Events.sim ~default:0
      | None -> ());
      Ok ()
  | Events.Capacity_joined { terms; quantity = _ } ->
      let* slice = slice_of_terms ~what:"capacity-joined" terms in
      t.ctrl <- Admission.add_capacity t.ctrl slice;
      Ok ()
  | Events.Decision { id; action = "admit" | "repair"; certificate; _ } ->
      replay_commit t ~id certificate
  | Events.Decision { action = "reject" | "evict"; _ } ->
      (* Rejects change nothing; evictions were already re-derived when
         the fault itself replayed. *)
      Ok ()
  | Events.Decision { id; action; _ } ->
      Error (Printf.sprintf "decision %s: unreplayable action %S" id action)
  | Events.Completed { id } | Events.Killed { id; _ } | Events.Preempted { id; _ }
  | Events.Commitment_degraded { id; released = true; _ } ->
      t.ctrl <- Admission.complete t.ctrl ~computation:id;
      Ok ()
  | Events.Fault_injected { fault = "revocation" | "blackout"; terms; quantity }
    ->
      if terms = Json.Null && quantity = 0 then Ok ()
      else
        let* slice = slice_of_terms ~what:"revocation" terms in
        let ctrl, _evicted = Admission.revoke t.ctrl slice in
        t.ctrl <- ctrl;
        Ok ()
  | Events.Fault_injected { fault = "slowdown" | "rejoin"; _ } ->
      (* A slowdown touches demand (its degrade record says whether the
         reservation went); a rejoin's capacity is the capacity-joined
         record that follows it. *)
      Ok ()
  | Events.Fault_injected { fault; _ } ->
      Error (Printf.sprintf "unreplayable fault kind %S" fault)
  | Events.Shed _ ->
      (* Telemetry only by contract: nothing was decided, so nothing may
         claim replayability. *)
      Error "shed records are telemetry and never logged"
  | Events.Commitment_revoked _ | Events.Commitment_degraded _
  | Events.Repaired _ | Events.Anomaly _ | Events.Span _
  | Events.Metric_sample _ | Events.Hist_sample _ | Events.Audit_divergence _
  | Events.Unknown _ ->
      Ok ()

(* --- snapshots ------------------------------------------------------------- *)

let snapshot_format = "rota-serve-replica-1"

let snapshot t =
  Json.Obj
    [
      ("format", Json.String snapshot_format);
      ("now", Json.Int t.now);
      ("admission", Admission.snapshot t.ctrl);
    ]

let jfield name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "replica snapshot: missing field %S" name)

let restore ?cost_model json =
  let* fmt = Result.bind (jfield "format" json) Json.to_str in
  if not (String.equal fmt snapshot_format) then
    Error (Printf.sprintf "replica snapshot: unknown format %S" fmt)
  else
    let* now = Result.bind (jfield "now" json) Json.to_int in
    let* adm = jfield "admission" json in
    let* ctrl = Admission.restore ?cost_model adm in
    Ok { ctrl; now }

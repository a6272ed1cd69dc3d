open Import
include Rota_scheduler.Replica

let run_label policy =
  Printf.sprintf "serve policy=%s" (Admission.policy_name policy)

let known t id =
  let ctrl = controller t in
  Calendar.find (Admission.calendar ctrl) ~computation:id <> None
  || List.exists
       (fun (d, _, _) -> String.equal d id)
       (Admission.admitted_demands ctrl)

let query t what =
  match what with
  | "residual-digest" ->
      Wire.Info [ ("digest", Json.String (residual_digest t)) ]
  | "now" -> Wire.Info [ ("now", Json.Int (now t)) ]
  | "stats" ->
      Wire.Info
        [
          ("policy", Json.String (Admission.policy_name (policy t)));
          ("now", Json.Int (now t));
          ("ledger", Json.Int (Admission.ledger_size (controller t)));
          ("digest", Json.String (residual_digest t));
        ]
  | w -> Wire.Failed (Printf.sprintf "unknown query %S" w)

let apply ?cid t (op : Wire.op) =
  match op with
  | Wire.Admit { now; computation; budget_ms = _ } ->
      advance t now;
      let outcome, records = admit ?cid t computation in
      let cert = Lazy.force outcome.Admission.certificate in
      let reason = outcome.Admission.reason in
      ( Lazy.force records,
        Wire.Decided
          {
            id = computation.Computation.id;
            action = (if outcome.Admission.admitted then "admit" else "reject");
            slug = Slug.of_reason reason;
            reason;
            digest = cert.Certificate.digest;
          } )
  | Wire.Release { now; id } ->
      advance t now;
      if known t id then
        (Lazy.force (complete t id Finished), Wire.Released { id; existed = true })
      else ([], Wire.Released { id; existed = false })
  | Wire.Revoke { now; terms } ->
      advance t now;
      let r, records =
        revoke ?cid t ~fault:"revocation" (Certificate.set_of_rects terms)
      in
      ( Lazy.force records,
        Wire.Revoked
          {
            quantity = Resource_set.total r.removed;
            evicted =
              List.map (fun (e : Calendar.entry) -> e.Calendar.computation) r.evicted;
          } )
  | Wire.Join { now; terms } ->
      advance t now;
      let clipped, records = join t (Certificate.set_of_rects terms) in
      (Lazy.force records, Wire.Joined { quantity = Resource_set.total clipped })
  | Wire.Query what -> ([], query t what)
  | Wire.Metrics ->
      (* The daemon answers metrics from the serving loop; reaching the
         replica means a non-daemon caller replayed a scrape op. *)
      ([], Wire.Failed "metrics is answered by the serving loop")
  | Wire.Ping -> ([], Wire.Pong)
  | Wire.Shutdown -> ([], Wire.Draining)

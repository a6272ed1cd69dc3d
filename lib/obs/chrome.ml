(* Chrome trace-event JSON (array form), loadable in Perfetto and
   chrome://tracing.  Mapping:

   - each engine run becomes a "process" (pid = run id), named by its
     run-started label;
   - spans become complete ("X") slices on tid 1, positioned by their
     begin timestamp and duration, with the id/parent linkage and depth
     carried in args — nesting on the track follows from parent slices
     enclosing their children in time;
   - instantaneous engine events (admitted, killed, ...) become instant
     ("i") marks on tid 2, with the simulated time and payload fields
     in args;
   - metric samples become counter ("C") events, one counter track per
     metric name.

   Timestamps are microseconds relative to the earliest event, so the
   viewport opens at t=0. *)

let span_tid = 1
let event_tid = 2

let origin_of events =
  List.fold_left
    (fun acc (e : Events.t) ->
      let t =
        match e.Events.payload with
        | Events.Span { begin_s; _ } -> begin_s
        | _ -> e.Events.wall_s
      in
      Float.min acc t)
    infinity events

let export events =
  let origin = origin_of events in
  let origin = if Float.is_finite origin then origin else 0. in
  let us t = Json.Float ((t -. origin) *. 1e6) in
  let entries = ref [] in
  let push e = entries := e :: !entries in
  let meta ~pid ~name ?tid what =
    push
      (Json.Obj
         ([ ("name", Json.String what); ("ph", Json.String "M");
            ("pid", Json.Int pid) ]
         @ (match tid with Some t -> [ ("tid", Json.Int t) ] | None -> [])
         @ [ ("args", Json.Obj [ ("name", Json.String name) ]) ]))
  in
  let instant (e : Events.t) name args =
    let args =
      match e.Events.sim with
      | Some t -> ("sim", Json.Int t) :: args
      | None -> args
    in
    push
      (Json.Obj
         [
           ("name", Json.String name);
           ("ph", Json.String "i");
           ("s", Json.String "t");
           ("pid", Json.Int e.Events.run);
           ("tid", Json.Int event_tid);
           ("ts", us e.Events.wall_s);
           ("args", Json.Obj args);
         ])
  in
  List.iter
    (fun (e : Events.t) ->
      let run = e.Events.run in
      match e.Events.payload with
      | Events.Run_started { label } ->
          meta ~pid:run ~name:(Printf.sprintf "run %d: %s" run label)
            "process_name";
          meta ~pid:run ~tid:span_tid ~name:"spans" "thread_name";
          meta ~pid:run ~tid:event_tid ~name:"engine events" "thread_name";
          instant e "run-started" [ ("label", Json.String label) ]
      | Events.Span { name; id; parent; depth; begin_s; duration_s } ->
          push
            (Json.Obj
               [
                 ("name", Json.String name);
                 ("ph", Json.String "X");
                 ("pid", Json.Int run);
                 ("tid", Json.Int span_tid);
                 ("ts", us begin_s);
                 ("dur", Json.Float (duration_s *. 1e6));
                 ( "args",
                   Json.Obj
                     [
                       ("id", Json.Int id);
                       ( "parent",
                         match parent with
                         | Some p -> Json.Int p
                         | None -> Json.Null );
                       ("depth", Json.Int depth);
                     ] );
               ])
      | Events.Metric_sample { name; value; family = _ } ->
          push
            (Json.Obj
               [
                 ("name", Json.String name);
                 ("ph", Json.String "C");
                 ("pid", Json.Int run);
                 ("ts", us e.Events.wall_s);
                 ("args", Json.Obj [ ("value", Json.Float value) ]);
               ])
      (* Quantile snapshots export as counter tracks too — one series
         per quantile keeps them overlayable in the viewer. *)
      | Events.Hist_sample { name; p50; p95; p99; _ } ->
          push
            (Json.Obj
               [
                 ("name", Json.String name);
                 ("ph", Json.String "C");
                 ("pid", Json.Int run);
                 ("ts", us e.Events.wall_s);
                 ( "args",
                   Json.Obj
                     [
                       ("p50", Json.Float p50);
                       ("p95", Json.Float p95);
                       ("p99", Json.Float p99);
                     ] );
               ])
      | Events.Capacity_joined { quantity; terms = _ } ->
          instant e "capacity-joined" [ ("quantity", Json.Int quantity) ]
      | Events.Decision { id; policy; action; slug; certificate = _; cid = _ }
        ->
          (* The certificate is structured evidence for the auditor, not
             a mark annotation: exporting it verbatim would bloat the
             viewer args without rendering usefully. *)
          instant e
            (Printf.sprintf "decision %s %s" action id)
            [ ("policy", Json.String policy); ("slug", Json.String slug) ]
      | Events.Shed { id; slug; reason } ->
          instant e
            (Printf.sprintf "shed %s" id)
            [ ("slug", Json.String slug); ("reason", Json.String reason) ]
      | Events.Completed { id } ->
          instant e (Printf.sprintf "completed %s" id) []
      | Events.Killed { id; owed } ->
          instant e (Printf.sprintf "killed %s" id) [ ("owed", Json.Int owed) ]
      | Events.Fault_injected { fault; quantity; terms = _ } ->
          instant e
            (Printf.sprintf "fault %s" fault)
            [ ("quantity", Json.Int quantity) ]
      | ( Events.Commitment_revoked { id; _ }
        | Events.Commitment_degraded { id; _ }
        | Events.Repaired { id; _ }
        | Events.Preempted { id; _ }
        | Events.Anomaly { id; _ }
        | Events.Audit_divergence { id; _ } ) as p ->
          instant e
            (Printf.sprintf "%s %s" (Events.kind p) id)
            (List.remove_assoc "id" (Events.payload_fields p))
      | Events.Unknown _ -> ())
    events;
  Json.List (List.rev !entries)

let to_string events = Json.to_string (export events)

type payload =
  | Run_started of { label : string }
  | Capacity_joined of { quantity : int; terms : Json.t }
  | Decision of {
      id : string;
      policy : string;
      action : string;
      slug : string;
      certificate : Json.t;
      cid : string option;
    }
  | Shed of { id : string; slug : string; reason : string }
  | Completed of { id : string }
  | Killed of { id : string; owed : int }
  | Fault_injected of { fault : string; quantity : int; terms : Json.t }
  | Commitment_revoked of { id : string; quantity : int }
  | Commitment_degraded of { id : string; extra : int; released : bool }
  | Repaired of { id : string; rung : string; attempt : int; certificate : Json.t }
  | Preempted of { id : string; owed : int }
  | Anomaly of { id : string; reason : string }
  | Span of {
      name : string;
      id : int;
      parent : int option;
      depth : int;
      begin_s : float;
      duration_s : float;
    }
  | Metric_sample of { name : string; value : float; family : string option }
  | Hist_sample of {
      name : string;
      count : int;
      sum : float;
      min_v : float;
      max_v : float;
      p50 : float;
      p95 : float;
      p99 : float;
    }
  | Audit_divergence of {
      id : string;
      action : string;
      of_seq : int;
      message : string;
    }
  | Unknown of { kind : string; fields : (string * Json.t) list }

type t = {
  seq : int;
  run : int;
  sim : int option;
  wall_s : float;
  payload : payload;
}

let kind = function
  | Run_started _ -> "run-started"
  | Capacity_joined _ -> "capacity-joined"
  | Decision _ -> "decision"
  | Shed _ -> "shed"
  | Completed _ -> "completed"
  | Killed _ -> "killed"
  | Fault_injected _ -> "fault"
  | Commitment_revoked _ -> "revoked"
  | Commitment_degraded _ -> "degraded"
  | Repaired _ -> "repaired"
  | Preempted _ -> "preempted"
  | Anomaly _ -> "anomaly"
  | Span _ -> "span"
  | Metric_sample _ -> "metric-sample"
  | Hist_sample _ -> "hist-sample"
  | Audit_divergence _ -> "audit-divergence"
  | Unknown { kind; _ } -> kind

(* "engine policy=rota dispatch=reservation horizon=200" -> Some "rota" *)
let label_field key label =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
          Some (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' label)

let span_within (b, e) (pb, pe) =
  let tolerance = 1e-6 in
  not (b < pb -. tolerance || e > pe +. tolerance)

let legacy_kind = function "admitted" | "rejected" -> true | _ -> false

let legacy ~kind ~id ~policy ~reason =
  Unknown
    {
      kind;
      fields =
        [
          ("id", Json.String id);
          ("policy", Json.String policy);
          ("reason", Json.String reason);
        ];
    }

(* Optional payload fields (the decision-provenance additions) are
   serialized only when present, so events parsed from legacy traces —
   where the defaults kick in — re-serialize to the same line and the
   strict round-trip check keeps holding on both schema generations. *)
let opt_json name v rest = if v = Json.Null then rest else (name, v) :: rest

let payload_fields = function
  | Run_started { label } -> [ ("label", Json.String label) ]
  | Capacity_joined { quantity; terms } ->
      ("quantity", Json.Int quantity) :: opt_json "terms" terms []
  | Decision { id; policy; action; slug; certificate; cid } ->
      ("id", Json.String id)
      :: ("policy", Json.String policy)
      :: ("action", Json.String action)
      :: ("slug", Json.String slug)
      :: opt_json "certificate" certificate
           (opt_json "cid"
              (match cid with Some c -> Json.String c | None -> Json.Null)
              [])
  | Shed { id; slug; reason } ->
      [
        ("id", Json.String id);
        ("slug", Json.String slug);
        ("reason", Json.String reason);
      ]
  | Completed { id } -> [ ("id", Json.String id) ]
  | Killed { id; owed } -> [ ("id", Json.String id); ("owed", Json.Int owed) ]
  | Fault_injected { fault; quantity; terms } ->
      ("fault", Json.String fault)
      :: ("quantity", Json.Int quantity)
      :: opt_json "terms" terms []
  | Commitment_revoked { id; quantity } ->
      [ ("id", Json.String id); ("quantity", Json.Int quantity) ]
  | Commitment_degraded { id; extra; released } ->
      ("id", Json.String id)
      :: ("extra", Json.Int extra)
      :: (if released then [ ("released", Json.Bool true) ] else [])
  | Repaired { id; rung; attempt; certificate } ->
      ("id", Json.String id)
      :: ("rung", Json.String rung)
      :: ("attempt", Json.Int attempt)
      :: opt_json "certificate" certificate []
  | Preempted { id; owed } ->
      [ ("id", Json.String id); ("owed", Json.Int owed) ]
  | Anomaly { id; reason } ->
      [ ("id", Json.String id); ("reason", Json.String reason) ]
  | Span { name; id; parent; depth; begin_s; duration_s } ->
      [
        ("name", Json.String name);
        ("id", Json.Int id);
        ("parent", match parent with Some p -> Json.Int p | None -> Json.Null);
        ("depth", Json.Int depth);
        ("begin_s", Json.Float begin_s);
        ("duration_s", Json.Float duration_s);
      ]
  | Metric_sample { name; value; family } ->
      ("name", Json.String name)
      :: ("value", Json.Float value)
      :: opt_json "family"
           (match family with Some f -> Json.String f | None -> Json.Null)
           []
  | Hist_sample { name; count; sum; min_v; max_v; p50; p95; p99 } ->
      [
        ("name", Json.String name);
        ("count", Json.Int count);
        ("sum", Json.Float sum);
        ("min", Json.Float min_v);
        ("max", Json.Float max_v);
        ("p50", Json.Float p50);
        ("p95", Json.Float p95);
        ("p99", Json.Float p99);
      ]
  | Audit_divergence { id; action; of_seq; message } ->
      [
        ("id", Json.String id);
        ("action", Json.String action);
        ("of_seq", Json.Int of_seq);
        ("message", Json.String message);
      ]
  | Unknown { kind = _; fields } -> fields

let to_json e =
  Json.Obj
    ([
       ("seq", Json.Int e.seq);
       ("run", Json.Int e.run);
       ("sim", match e.sim with Some t -> Json.Int t | None -> Json.Null);
       ("wall_s", Json.Float e.wall_s);
       ("kind", Json.String (kind e.payload));
     ]
    @ payload_fields e.payload)

let ( let* ) = Result.bind

let field name decode json =
  match Json.member name json with
  | Some v -> decode v
  | None -> Error (Printf.sprintf "missing field %S" name)

(* Fields the envelope owns; everything else belongs to the payload
   (used to preserve unknown kinds verbatim). *)
let envelope_keys = [ "seq"; "run"; "sim"; "wall_s"; "kind" ]

(* Decision-provenance fields arrived after the first schema revision;
   traces written by older binaries omit them.  They default ([Null],
   [false]) rather than error, mirroring the span-linkage fields. *)
let opt_field name json =
  Ok (Option.value (Json.member name json) ~default:Json.Null)

let bool_field name json =
  match Json.member name json with
  | None -> Ok false
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S is not a boolean" name)

let payload_of_json ~strict ~wall_s json =
  let* k = field "kind" Json.to_str json in
  match k with
  | "run-started" ->
      let* label = field "label" Json.to_str json in
      Ok (Run_started { label })
  | "capacity-joined" ->
      let* quantity = field "quantity" Json.to_int json in
      let* terms = opt_field "terms" json in
      Ok (Capacity_joined { quantity; terms })
  | "decision" ->
      let* id = field "id" Json.to_str json in
      let* policy = field "policy" Json.to_str json in
      let* action = field "action" Json.to_str json in
      let* slug = field "slug" Json.to_str json in
      let* certificate = opt_field "certificate" json in
      (* The serve daemon's correlation id arrived with the serving
         telemetry plane; traces written by older binaries omit it. *)
      let* cid =
        match Json.member "cid" json with
        | None | Some Json.Null -> Ok None
        | Some v -> Result.map Option.some (Json.to_str v)
      in
      Ok (Decision { id; policy; action; slug; certificate; cid })
  | "shed" ->
      let* id = field "id" Json.to_str json in
      let* slug = field "slug" Json.to_str json in
      let* reason = field "reason" Json.to_str json in
      Ok (Shed { id; slug; reason })
  | k when legacy_kind k ->
      (* Legacy kinds: every decision also wrote one of these before the
         decision record became the only one.  Still well-formed (strict
         mode accepts them), read as [Unknown] so they pass through. *)
      let* id = field "id" Json.to_str json in
      let* policy = field "policy" Json.to_str json in
      let* reason = field "reason" Json.to_str json in
      Ok (legacy ~kind:k ~id ~policy ~reason)
  | "completed" ->
      let* id = field "id" Json.to_str json in
      Ok (Completed { id })
  | "killed" ->
      let* id = field "id" Json.to_str json in
      let* owed = field "owed" Json.to_int json in
      Ok (Killed { id; owed })
  | "fault" ->
      let* fault = field "fault" Json.to_str json in
      let* quantity = field "quantity" Json.to_int json in
      let* terms = opt_field "terms" json in
      Ok (Fault_injected { fault; quantity; terms })
  | "revoked" ->
      let* id = field "id" Json.to_str json in
      let* quantity = field "quantity" Json.to_int json in
      Ok (Commitment_revoked { id; quantity })
  | "degraded" ->
      let* id = field "id" Json.to_str json in
      let* extra = field "extra" Json.to_int json in
      let* released = bool_field "released" json in
      Ok (Commitment_degraded { id; extra; released })
  | "repaired" ->
      let* id = field "id" Json.to_str json in
      let* rung = field "rung" Json.to_str json in
      let* attempt = field "attempt" Json.to_int json in
      let* certificate = opt_field "certificate" json in
      Ok (Repaired { id; rung; attempt; certificate })
  | "preempted" ->
      let* id = field "id" Json.to_str json in
      let* owed = field "owed" Json.to_int json in
      Ok (Preempted { id; owed })
  | "anomaly" ->
      let* id = field "id" Json.to_str json in
      let* reason = field "reason" Json.to_str json in
      Ok (Anomaly { id; reason })
  | "span" ->
      let* name = field "name" Json.to_str json in
      let* depth = field "depth" Json.to_int json in
      let* duration_s = field "duration_s" Json.to_float json in
      (* Linkage fields arrived after the first schema revision; traces
         written by older binaries omit them.  Default to the legacy
         "no linkage" encoding: id 0, no parent, begin inferred from
         the emission (= exit) time. *)
      let* id =
        match Json.member "id" json with
        | None -> Ok 0
        | Some v -> Json.to_int v
      in
      let* parent =
        match Json.member "parent" json with
        | None | Some Json.Null -> Ok None
        | Some v -> Result.map Option.some (Json.to_int v)
      in
      let* begin_s =
        match Json.member "begin_s" json with
        | None -> Ok (wall_s -. duration_s)
        | Some v -> Json.to_float v
      in
      Ok (Span { name; id; parent; depth; begin_s; duration_s })
  | "metric-sample" ->
      let* name = field "name" Json.to_str json in
      let* value = field "value" Json.to_float json in
      (* The family tag (counter vs gauge) arrived with the OpenMetrics
         exporter; traces written by older binaries omit it. *)
      let* family =
        match Json.member "family" json with
        | None | Some Json.Null -> Ok None
        | Some v -> Result.map Option.some (Json.to_str v)
      in
      Ok (Metric_sample { name; value; family })
  | "hist-sample" ->
      let* name = field "name" Json.to_str json in
      let* count = field "count" Json.to_int json in
      let* sum = field "sum" Json.to_float json in
      let* min_v = field "min" Json.to_float json in
      let* max_v = field "max" Json.to_float json in
      let* p50 = field "p50" Json.to_float json in
      let* p95 = field "p95" Json.to_float json in
      let* p99 = field "p99" Json.to_float json in
      Ok (Hist_sample { name; count; sum; min_v; max_v; p50; p95; p99 })
  | "audit-divergence" ->
      let* id = field "id" Json.to_str json in
      let* action = field "action" Json.to_str json in
      let* of_seq = field "of_seq" Json.to_int json in
      let* message = field "message" Json.to_str json in
      Ok (Audit_divergence { id; action; of_seq; message })
  | k ->
      if strict then Error (Printf.sprintf "unknown event kind %S" k)
      else
        let fields =
          match json with
          | Json.Obj fields ->
              List.filter (fun (n, _) -> not (List.mem n envelope_keys)) fields
          | _ -> []
        in
        Ok (Unknown { kind = k; fields })

let of_json ?(strict = false) json =
  let* seq = field "seq" Json.to_int json in
  let* run = field "run" Json.to_int json in
  let* sim =
    match Json.member "sim" json with
    | Some Json.Null | None -> Ok None
    | Some v -> Result.map Option.some (Json.to_int v)
  in
  let* wall_s = field "wall_s" Json.to_float json in
  let* payload = payload_of_json ~strict ~wall_s json in
  Ok { seq; run; sim; wall_s; payload }

let to_line e = Json.to_string (to_json e)

let of_line ?strict line =
  let* json = Json.parse line in
  of_json ?strict json

let pp_payload ~sim ppf payload =
  let pp_sim ppf = function
    | Some t -> Format.fprintf ppf "t%d" t
    | None -> Format.pp_print_string ppf "t-"
  in
  match payload with
  | Run_started { label } ->
      Format.fprintf ppf "%a run started: %s" pp_sim sim label
  | Capacity_joined { quantity; terms = _ } ->
      Format.fprintf ppf "%a capacity +%d" pp_sim sim quantity
  | Decision { id; policy = _; action; slug; certificate; cid = _ } ->
      Format.fprintf ppf "%a decision %s %s [%s]%s" pp_sim sim action id slug
        (if certificate = Json.Null then "" else " certified")
  | Shed { id; slug; reason } ->
      Format.fprintf ppf "%a shed %s [%s]: %s" pp_sim sim id slug reason
  | Completed { id } -> Format.fprintf ppf "%a completed %s" pp_sim sim id
  | Killed { id; owed } ->
      Format.fprintf ppf "%a killed %s (owed %d)" pp_sim sim id owed
  | Fault_injected { fault; quantity; terms = _ } ->
      (* Rejoins bring capacity back; every other kind takes it away.
         Slowdowns move work, not capacity (quantity 0): no parens. *)
      if quantity = 0 then Format.fprintf ppf "%a fault %s" pp_sim sim fault
      else
        let sign = if String.equal fault "rejoin" then '+' else '-' in
        Format.fprintf ppf "%a fault %s (%c%d)" pp_sim sim fault sign quantity
  | Commitment_revoked { id; quantity } ->
      Format.fprintf ppf "%a revoked %s (lost %d)" pp_sim sim id quantity
  | Commitment_degraded { id; extra; released = _ } ->
      Format.fprintf ppf "%a degraded %s (+%d work)" pp_sim sim id extra
  | Repaired { id; rung; attempt; certificate = _ } ->
      Format.fprintf ppf "%a repaired %s via %s (attempt %d)" pp_sim sim id
        rung attempt
  | Preempted { id; owed } ->
      Format.fprintf ppf "%a preempted %s (owed %d)" pp_sim sim id owed
  | Anomaly { id; reason } ->
      Format.fprintf ppf "%a anomaly %s: %s" pp_sim sim id reason
  | Span { name; depth; duration_s; _ } ->
      Format.fprintf ppf "%a span %s%s %.6fs" pp_sim sim
        (String.make (2 * depth) ' ')
        name duration_s
  | Metric_sample { name; value; family = _ } ->
      Format.fprintf ppf "%a sample %s=%g" pp_sim sim name value
  | Hist_sample { name; count; p50; p95; p99; _ } ->
      Format.fprintf ppf "%a hist %s n=%d p50=%g p95=%g p99=%g" pp_sim sim
        name count p50 p95 p99
  | Audit_divergence { id; action; of_seq; message } ->
      Format.fprintf ppf "%a AUDIT DIVERGENCE %s %s (seq %d): %s" pp_sim sim
        action id of_seq message
  | Unknown { kind; _ } -> Format.fprintf ppf "%a ? %s" pp_sim sim kind

let pp ppf e = pp_payload ~sim:e.sim ppf e.payload

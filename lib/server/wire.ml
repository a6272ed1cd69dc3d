open Import

type op =
  | Admit of {
      now : Time.t;
      computation : Computation.t;
      budget_ms : float option;
    }
  | Release of { now : Time.t; id : string }
  | Revoke of { now : Time.t; terms : Certificate.rect list }
  | Join of { now : Time.t; terms : Certificate.rect list }
  | Query of string
  | Metrics
  | Ping
  | Shutdown

type request = { tag : Json.t; op : op }

type reply =
  | Decided of {
      id : string;
      action : string;
      slug : string;
      reason : string;
      digest : string;
    }
  | Shed of { id : string; reason : string }
  | Released of { id : string; existed : bool }
  | Revoked of { quantity : int; evicted : string list }
  | Joined of { quantity : int }
  | Info of (string * Json.t) list
  | Metrics_snapshot of { exposition : string; samples : Json.t list }
  | Pong
  | Draining
  | Failed of string

type response = { tag : Json.t; cid : string option; reply : reply }

let shed_slug = "shed"

let ( let* ) = Result.bind

let field name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "wire: missing field %S" name)

let str_field name json = Result.bind (field name json) Json.to_str
let int_field name json = Result.bind (field name json) Json.to_int

let opt_field name json decode =
  match Json.member name json with
  | None | Some Json.Null -> Ok None
  | Some v -> Result.map Option.some (decode v)

let list_field name decode json =
  match field name json with
  | Ok (Json.List items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* x = decode item in
          Ok (x :: acc))
        (Ok []) items
      |> Result.map List.rev
  | Ok _ -> Error (Printf.sprintf "wire: field %S is not a list" name)
  | Error _ as e -> e

(* --- computations --------------------------------------------------------- *)

let action_to_json = function
  | Action.Evaluate { complexity } ->
      Json.Obj
        [ ("do", Json.String "evaluate"); ("complexity", Json.Int complexity) ]
  | Action.Send { dest; size } ->
      Json.Obj
        [
          ("do", Json.String "send");
          ("dest", Json.String (Actor_name.to_string dest));
          ("size", Json.Int size);
        ]
  | Action.Create { child } ->
      Json.Obj
        [
          ("do", Json.String "create");
          ("child", Json.String (Actor_name.to_string child));
        ]
  | Action.Ready -> Json.Obj [ ("do", Json.String "ready") ]
  | Action.Migrate { dest } ->
      Json.Obj
        [
          ("do", Json.String "migrate");
          ("dest", Json.String (Location.name dest));
        ]

let action_of_json json =
  let* kind = str_field "do" json in
  match kind with
  | "evaluate" ->
      let* complexity = int_field "complexity" json in
      Ok (Action.evaluate complexity)
  | "send" ->
      let* dest = str_field "dest" json in
      let* size = int_field "size" json in
      Ok (Action.send ~dest:(Actor_name.make dest) ~size)
  | "create" ->
      let* child = str_field "child" json in
      Ok (Action.create (Actor_name.make child))
  | "ready" -> Ok Action.ready
  | "migrate" ->
      let* dest = str_field "dest" json in
      Ok (Action.migrate (Location.make dest))
  | k -> Error (Printf.sprintf "wire: unknown action %S" k)

let program_to_json (p : Program.t) =
  Json.Obj
    [
      ("name", Json.String (Actor_name.to_string p.Program.name));
      ("home", Json.String (Location.name p.Program.home));
      ("actions", Json.List (List.map action_to_json p.Program.actions));
    ]

let program_of_json json =
  let* name = str_field "name" json in
  let* home = str_field "home" json in
  let* actions = list_field "actions" action_of_json json in
  Ok (Program.make ~name:(Actor_name.make name) ~home:(Location.make home) actions)

let computation_to_json (c : Computation.t) =
  Json.Obj
    [
      ("id", Json.String c.Computation.id);
      ("start", Json.Int c.Computation.start);
      ("deadline", Json.Int c.Computation.deadline);
      ("programs", Json.List (List.map program_to_json c.Computation.programs));
    ]

(* [Computation.make] and friends raise [Invalid_argument] on the
   invariants they own (window, duplicate actors, positive costs);
   requests come off an untrusted socket, so those become [Error]s. *)
let computation_of_json json =
  match
    let* id = str_field "id" json in
    let* start = int_field "start" json in
    let* deadline = int_field "deadline" json in
    let* programs = list_field "programs" program_of_json json in
    Ok (Computation.make ~id ~start ~deadline programs)
  with
  | result -> result
  | exception Invalid_argument msg -> Error (Printf.sprintf "wire: %s" msg)

(* --- requests ------------------------------------------------------------- *)

let tag_of json =
  match Json.member "tag" json with Some t -> t | None -> Json.Null

let with_tag tag fields =
  match tag with Json.Null -> fields | t -> fields @ [ ("tag", t) ]

let request_to_json { tag; op } =
  let fields =
    match op with
    | Admit { now; computation; budget_ms } ->
        [
          ("op", Json.String "admit");
          ("now", Json.Int now);
          ("computation", computation_to_json computation);
        ]
        @ Option.fold ~none:[]
            ~some:(fun b -> [ ("budget_ms", Json.Float b) ])
            budget_ms
    | Release { now; id } ->
        [
          ("op", Json.String "release");
          ("now", Json.Int now);
          ("id", Json.String id);
        ]
    | Revoke { now; terms } ->
        [
          ("op", Json.String "revoke");
          ("now", Json.Int now);
          ("terms", Certificate.rects_to_json terms);
        ]
    | Join { now; terms } ->
        [
          ("op", Json.String "join");
          ("now", Json.Int now);
          ("terms", Certificate.rects_to_json terms);
        ]
    | Query what ->
        [ ("op", Json.String "query"); ("what", Json.String what) ]
    | Metrics -> [ ("op", Json.String "metrics") ]
    | Ping -> [ ("op", Json.String "ping") ]
    | Shutdown -> [ ("op", Json.String "shutdown") ]
  in
  Json.Obj (with_tag tag fields)

let request_of_json json =
  let tag = tag_of json in
  let* op =
    let* op = str_field "op" json in
    match op with
    | "admit" ->
        let* now = int_field "now" json in
        let* computation =
          Result.bind (field "computation" json) computation_of_json
        in
        let* budget_ms = opt_field "budget_ms" json Json.to_float in
        Ok (Admit { now; computation; budget_ms })
    | "release" ->
        let* now = int_field "now" json in
        let* id = str_field "id" json in
        Ok (Release { now; id })
    | "revoke" ->
        let* now = int_field "now" json in
        let* terms = Result.bind (field "terms" json) Certificate.rects_of_json in
        Ok (Revoke { now; terms })
    | "join" ->
        let* now = int_field "now" json in
        let* terms = Result.bind (field "terms" json) Certificate.rects_of_json in
        Ok (Join { now; terms })
    | "query" ->
        let* what = str_field "what" json in
        Ok (Query what)
    | "metrics" -> Ok Metrics
    | "ping" -> Ok Ping
    | "shutdown" -> Ok Shutdown
    | op -> Error (Printf.sprintf "wire: unknown op %S" op)
  in
  Ok { tag; op }

(* --- responses ------------------------------------------------------------ *)

let response_to_json { tag; cid; reply } =
  let with_cid fields =
    match cid with
    | None -> fields
    | Some c -> fields @ [ ("cid", Json.String c) ]
  in
  let fields =
    match reply with
    | Decided { id; action; slug; reason; digest } ->
        [
          ("ok", Json.Bool true);
          ("decision", Json.String action);
          ("id", Json.String id);
          ("slug", Json.String slug);
          ("reason", Json.String reason);
          ("digest", Json.String digest);
        ]
    | Shed { id; reason } ->
        [
          ("ok", Json.Bool false);
          ("decision", Json.String "reject");
          ("id", Json.String id);
          ("slug", Json.String shed_slug);
          ("reason", Json.String reason);
        ]
    | Released { id; existed } ->
        [
          ("ok", Json.Bool true);
          ("released", Json.String id);
          ("existed", Json.Bool existed);
        ]
    | Revoked { quantity; evicted } ->
        [
          ("ok", Json.Bool true);
          ("revoked", Json.Int quantity);
          ("evicted", Json.List (List.map (fun id -> Json.String id) evicted));
        ]
    | Joined { quantity } ->
        [ ("ok", Json.Bool true); ("joined", Json.Int quantity) ]
    | Info fields ->
        [ ("ok", Json.Bool true); ("info", Json.Bool true) ] @ fields
    | Metrics_snapshot { exposition; samples } ->
        [
          ("ok", Json.Bool true);
          ("metrics", Json.Bool true);
          ("exposition", Json.String exposition);
          ("samples", Json.List samples);
        ]
    | Pong -> [ ("ok", Json.Bool true); ("pong", Json.Bool true) ]
    | Draining -> [ ("ok", Json.Bool true); ("draining", Json.Bool true) ]
    | Failed msg -> [ ("ok", Json.Bool false); ("error", Json.String msg) ]
  in
  Json.Obj (with_tag tag (with_cid fields))

let response_of_json json =
  let tag = tag_of json in
  let cid =
    match Json.member "cid" json with
    | Some (Json.String c) -> Some c
    | Some _ | None -> None
  in
  let has name = Json.member name json <> None in
  let* reply =
    if has "error" then
      let* msg = str_field "error" json in
      Ok (Failed msg)
    else if has "decision" then
      let* action = str_field "decision" json in
      let* id = str_field "id" json in
      let* slug = str_field "slug" json in
      let* reason = str_field "reason" json in
      if String.equal slug shed_slug then Ok (Shed { id; reason })
      else
        let* digest = str_field "digest" json in
        Ok (Decided { id; action; slug; reason; digest })
    else if has "released" then
      let* id = str_field "released" json in
      let* existed = Result.bind (field "existed" json) (function
        | Json.Bool b -> Ok b
        | _ -> Error "wire: field \"existed\" is not a bool")
      in
      Ok (Released { id; existed })
    else if has "revoked" then
      let* quantity = int_field "revoked" json in
      let* evicted = list_field "evicted" Json.to_str json in
      Ok (Revoked { quantity; evicted })
    else if has "joined" then
      let* quantity = int_field "joined" json in
      Ok (Joined { quantity })
    else if has "metrics" then
      let* exposition = str_field "exposition" json in
      let* samples =
        match Json.member "samples" json with
        | Some (Json.List items) -> Ok items
        | Some _ -> Error "wire: field \"samples\" is not a list"
        | None -> Ok []
      in
      Ok (Metrics_snapshot { exposition; samples })
    else if has "info" then
      match json with
      | Json.Obj fields ->
          Ok
            (Info
               (List.filter
                  (fun (k, _) ->
                    k <> "ok" && k <> "info" && k <> "tag" && k <> "cid")
                  fields))
      | _ -> Error "wire: response is not an object"
    else if has "pong" then Ok Pong
    else if has "draining" then Ok Draining
    else Error "wire: unrecognizable response shape"
  in
  Ok { tag; cid; reply }

(* --- framing -------------------------------------------------------------- *)

let request_to_line r = Json.to_string (request_to_json r)

let request_of_line line =
  Result.bind (Json.parse line) request_of_json

let response_to_line r = Json.to_string (response_to_json r)

let response_of_line line =
  Result.bind (Json.parse line) response_of_json

let take_lines buf =
  let s = Buffer.contents buf in
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
    | None ->
        Buffer.clear buf;
        Buffer.add_substring buf s start (String.length s - start);
        List.rev acc
  in
  go 0 []

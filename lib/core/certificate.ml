open Import
module Json = Rota_obs.Json

type theorem = T1 | T2 | T3 | T4 | Unchecked

type rect = { ltype : Located_type.t; interval : Interval.t; rate : int }

type step = {
  index : int;
  need : (Located_type.t * int) list;
  subwindow : Interval.t;
  allocation : rect list;
}

type part = {
  actor : string;
  window : Interval.t;
  breakpoints : Time.t list;
  steps : step list;
}

type row = {
  row_type : Located_type.t;
  demand : int;
  capacity : int;
  committed : int;
}

type evidence =
  | Schedules of part list
  | Infeasible
  | Aggregate_fit of { window : Interval.t; rows : row list; fits : bool }
  | Optimistic_fit of {
      window : Interval.t;
      totals : (Located_type.t * int) list;
    }
  | Stale of { deadline : Time.t }
  | Duplicate

type t = { theorem : theorem; digest : string; evidence : evidence }

let theorem_name = function
  | T1 -> "T1"
  | T2 -> "T2"
  | T3 -> "T3"
  | T4 -> "T4"
  | Unchecked -> "unchecked"

let theorem_of_name = function
  | "T1" -> Ok T1
  | "T2" -> Ok T2
  | "T3" -> Ok T3
  | "T4" -> Ok T4
  | "unchecked" -> Ok Unchecked
  | s -> Error (Printf.sprintf "unknown theorem tag %S" s)

(* --- digests -------------------------------------------------------------- *)

(* Version 2, what every writer emits: [Resource_set.hash] printed as
   "v2:" and 16 hex digits.  The hash is word-level and cached per
   located type beside each profile, so a decision digests in O(types)
   plus the segments it changed rather than O(residual).

   Version 1, a bare 16-hex string, is kept as a verifier only: every
   WAL, snapshot and fixture written before v2 carries it.  It is a
   64-bit FNV-1a folded over the canonical segment decomposition in
   type order: per located type, the bytes of its name and a 0
   terminator (so adjacent names cannot alias), then the eight
   little-endian bytes of every segment's start, stop and rate.  A
   located type's name bytes are rendered once and memoized. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

module Names = Hashtbl.Make (Located_type)

(* Located types come from the system's topology, so the memo stays
   small; the reset only bounds it against a client inventing types. *)
let names = Names.create 64

let name_bytes xi =
  match Names.find_opt names xi with
  | Some s -> s
  | None ->
      if Names.length names >= 4096 then Names.reset names;
      let s = Located_type.to_string xi in
      Names.add names xi s;
      s

let digest_v1 set =
  let types, profiles = Resource_set.unsafe_slabs set in
  let h = ref fnv_offset in
  for i = 0 to Array.length types - 1 do
    let name = name_bytes (Array.unsafe_get types i) in
    for j = 0 to String.length name - 1 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get name j))))
          fnv_prime
    done;
    h := Int64.mul !h fnv_prime (* the 0 terminator: xor 0 is a no-op *);
    let slab = Profile.unsafe_slab (Array.unsafe_get profiles i) in
    for j = 0 to Array.length slab - 1 do
      let v = Array.unsafe_get slab j in
      for k = 0 to 7 do
        h :=
          Int64.mul
            (Int64.logxor !h (Int64.of_int ((v lsr (8 * k)) land 0xff)))
            fnv_prime
      done
    done
  done;
  Printf.sprintf "%016Lx" !h

let h_digest = Rota_obs.Metrics.histogram "certificate/digest_s"

let digest set =
  Rota_obs.Metrics.time h_digest (fun () ->
      Printf.sprintf "v2:%016x" (Resource_set.hash set))

let is_v1 recorded =
  String.length recorded = 16
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       recorded

let digest_like recorded set =
  if is_v1 recorded then digest_v1 set else digest set

(* --- rectangles <-> resource sets ----------------------------------------- *)

let rects_of_set set =
  Resource_set.fold
    (fun xi p acc ->
      List.fold_left
        (fun acc (s : Profile.segment) ->
          { ltype = xi; interval = s.Profile.interval; rate = s.Profile.rate }
          :: acc)
        acc (Profile.segments p))
    set []
  |> List.rev

let set_of_rects rects =
  List.fold_left
    (fun acc r ->
      Resource_set.update r.ltype
        (Profile.add (Profile.constant r.interval r.rate))
        acc)
    Resource_set.empty rects

(* --- JSON codec ----------------------------------------------------------- *)

let ( let* ) = Result.bind

let field name decode json =
  match Json.member name json with
  | Some v -> decode v
  | None -> Error (Printf.sprintf "certificate: missing field %S" name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let list_field name decode json =
  field name
    (function
      | Json.List items -> map_result decode items
      | _ -> Error (Printf.sprintf "certificate: field %S is not a list" name))
    json

let ltype_to_json xi =
  match xi with
  | Located_type.Network (src, dst) ->
      Json.Obj
        [
          ("kind", Json.String "network");
          ("src", Json.String (Location.name src));
          ("dst", Json.String (Location.name dst));
        ]
  | _ ->
      Json.Obj
        [
          ("kind", Json.String (Located_type.kind xi));
          ( "at",
            Json.String
              (match Located_type.locations xi with
              | l :: _ -> Location.name l
              | [] -> "") );
        ]

let location_field name json =
  let* s = field name Json.to_str json in
  if s = "" then Error (Printf.sprintf "certificate: empty location in %S" name)
  else Ok (Location.make s)

let ltype_of_json json =
  let* kind = field "kind" Json.to_str json in
  match kind with
  | "network" ->
      let* src = location_field "src" json in
      let* dst = location_field "dst" json in
      Ok (Located_type.network ~src ~dst)
  | _ ->
      let* at = location_field "at" json in
      Ok
        (match kind with
        | "cpu" -> Located_type.cpu at
        | "memory" -> Located_type.memory at
        | k -> Located_type.custom k at)

let interval_to_json i =
  Json.List [ Json.Int (Interval.start i); Json.Int (Interval.stop i) ]

let interval_of_json = function
  | Json.List [ a; b ] -> (
      let* start = Json.to_int a in
      let* stop = Json.to_int b in
      match Interval.make ~start ~stop with
      | Some i -> Ok i
      | None ->
          Error (Printf.sprintf "certificate: empty interval [%d,%d)" start stop)
      )
  | _ -> Error "certificate: interval is not a two-element list"

let rect_to_json r =
  Json.Obj
    [
      ("type", ltype_to_json r.ltype);
      ("interval", interval_to_json r.interval);
      ("rate", Json.Int r.rate);
    ]

let rect_of_json json =
  let* ltype = field "type" ltype_of_json json in
  let* interval = field "interval" interval_of_json json in
  let* rate = field "rate" Json.to_int json in
  if rate < 0 then Error "certificate: negative rate"
  else Ok { ltype; interval; rate }

let rects_to_json rects = Json.List (List.map rect_to_json rects)

let rects_of_json = function
  | Json.List items -> map_result rect_of_json items
  | _ -> Error "certificate: rectangle list expected"

let amount_to_json (xi, q) =
  Json.Obj [ ("type", ltype_to_json xi); ("quantity", Json.Int q) ]

let amount_of_json json =
  let* xi = field "type" ltype_of_json json in
  let* q = field "quantity" Json.to_int json in
  if q < 0 then Error "certificate: negative quantity" else Ok (xi, q)

let step_to_json s =
  Json.Obj
    [
      ("index", Json.Int s.index);
      ("need", Json.List (List.map amount_to_json s.need));
      ("subwindow", interval_to_json s.subwindow);
      ("allocation", rects_to_json s.allocation);
    ]

let step_of_json json =
  let* index = field "index" Json.to_int json in
  let* need = list_field "need" amount_of_json json in
  let* subwindow = field "subwindow" interval_of_json json in
  let* allocation = field "allocation" rects_of_json json in
  Ok { index; need; subwindow; allocation }

let part_to_json p =
  Json.Obj
    [
      ("actor", Json.String p.actor);
      ("window", interval_to_json p.window);
      ("breakpoints", Json.List (List.map (fun t -> Json.Int t) p.breakpoints));
      ("steps", Json.List (List.map step_to_json p.steps));
    ]

let part_of_json json =
  let* actor = field "actor" Json.to_str json in
  let* window = field "window" interval_of_json json in
  let* breakpoints = list_field "breakpoints" Json.to_int json in
  let* steps = list_field "steps" step_of_json json in
  Ok { actor; window; breakpoints; steps }

let row_to_json r =
  Json.Obj
    [
      ("type", ltype_to_json r.row_type);
      ("demand", Json.Int r.demand);
      ("capacity", Json.Int r.capacity);
      ("committed", Json.Int r.committed);
    ]

let row_of_json json =
  let* row_type = field "type" ltype_of_json json in
  let* demand = field "demand" Json.to_int json in
  let* capacity = field "capacity" Json.to_int json in
  let* committed = field "committed" Json.to_int json in
  Ok { row_type; demand; capacity; committed }

let evidence_to_json = function
  | Schedules parts ->
      Json.Obj
        [
          ("kind", Json.String "schedules");
          ("parts", Json.List (List.map part_to_json parts));
        ]
  | Infeasible -> Json.Obj [ ("kind", Json.String "infeasible") ]
  | Aggregate_fit { window; rows; fits } ->
      Json.Obj
        [
          ("kind", Json.String "aggregate");
          ("window", interval_to_json window);
          ("fits", Json.Bool fits);
          ("rows", Json.List (List.map row_to_json rows));
        ]
  | Optimistic_fit { window; totals } ->
      Json.Obj
        [
          ("kind", Json.String "optimistic");
          ("window", interval_to_json window);
          ("totals", Json.List (List.map amount_to_json totals));
        ]
  | Stale { deadline } ->
      Json.Obj [ ("kind", Json.String "stale"); ("deadline", Json.Int deadline) ]
  | Duplicate -> Json.Obj [ ("kind", Json.String "duplicate") ]

let evidence_of_json json =
  let* kind = field "kind" Json.to_str json in
  match kind with
  | "schedules" ->
      let* parts = list_field "parts" part_of_json json in
      Ok (Schedules parts)
  | "infeasible" -> Ok Infeasible
  | "aggregate" ->
      let* window = field "window" interval_of_json json in
      let* fits =
        field "fits"
          (function
            | Json.Bool b -> Ok b
            | _ -> Error "certificate: \"fits\" is not a boolean")
          json
      in
      let* rows = list_field "rows" row_of_json json in
      Ok (Aggregate_fit { window; rows; fits })
  | "optimistic" ->
      let* window = field "window" interval_of_json json in
      let* totals = list_field "totals" amount_of_json json in
      Ok (Optimistic_fit { window; totals })
  | "stale" ->
      let* deadline = field "deadline" Json.to_int json in
      Ok (Stale { deadline })
  | "duplicate" -> Ok Duplicate
  | k -> Error (Printf.sprintf "certificate: unknown evidence kind %S" k)

let to_json t =
  Json.Obj
    [
      ("theorem", Json.String (theorem_name t.theorem));
      ("digest", Json.String t.digest);
      ("evidence", evidence_to_json t.evidence);
    ]

let of_json json =
  let* theorem =
    let* name = field "theorem" Json.to_str json in
    theorem_of_name name
  in
  let* digest = field "digest" Json.to_str json in
  let* evidence = field "evidence" evidence_of_json json in
  Ok { theorem; digest; evidence }

(* --- construction --------------------------------------------------------- *)

let part_of_schedule ~actor ~need_of (schedule : Accommodation.schedule) =
  let steps =
    List.map
      (fun (a : Accommodation.step_allocation) ->
        {
          index = a.Accommodation.step_index;
          need = need_of a;
          subwindow = a.Accommodation.subwindow;
          allocation = rects_of_set a.Accommodation.allocation;
        })
      schedule.Accommodation.steps
  in
  {
    actor = Actor_name.to_string actor;
    window = schedule.Accommodation.window;
    breakpoints = schedule.Accommodation.breakpoints;
    steps;
  }

let of_schedules ~theorem ~residual triples =
  let parts =
    List.map
      (fun (actor, (spec : Requirement.complex), schedule) ->
        let spec_steps = Array.of_list spec.Requirement.steps in
        let need_of (a : Accommodation.step_allocation) =
          if a.Accommodation.step_index >= Array.length spec_steps then
            invalid_arg
              "Certificate.of_schedules: schedule/requirement step mismatch"
          else
            List.map
              (fun (am : Requirement.amount) ->
                (am.Requirement.ltype, am.Requirement.quantity))
              spec_steps.(a.Accommodation.step_index)
        in
        part_of_schedule ~actor ~need_of schedule)
      triples
  in
  { theorem; digest = digest residual; evidence = Schedules parts }

let of_committed ~theorem ~residual pairs =
  let parts =
    List.map
      (fun (actor, (schedule : Accommodation.schedule)) ->
        (* The original requirement is gone; record what the commitment
           was actually consuming, which its own allocation trivially
           covers — the certificate then documents the eviction's victim
           rather than re-proving its admission. *)
        let need_of (a : Accommodation.step_allocation) =
          Resource_set.fold
            (fun xi _ acc ->
              let q =
                Resource_set.integrate a.Accommodation.allocation xi
                  a.Accommodation.subwindow
              in
              if q > 0 then (xi, q) :: acc else acc)
            a.Accommodation.allocation []
          |> List.rev
        in
        part_of_schedule ~actor ~need_of schedule)
      pairs
  in
  { theorem; digest = digest residual; evidence = Schedules parts }

let infeasible ~residual =
  { theorem = T4; digest = digest residual; evidence = Infeasible }

let stale ~deadline =
  { theorem = Unchecked; digest = ""; evidence = Stale { deadline } }

let duplicate = { theorem = Unchecked; digest = ""; evidence = Duplicate }

let rows_fit rows =
  List.for_all (fun r -> r.demand <= r.capacity - r.committed) rows

let aggregate ~residual ~window ~rows =
  {
    theorem = T1;
    digest = digest residual;
    evidence = Aggregate_fit { window; rows; fits = rows_fit rows };
  }

let optimistic ~window ~totals =
  {
    theorem = Unchecked;
    digest = "";
    evidence = Optimistic_fit { window; totals };
  }

(* --- verification --------------------------------------------------------- *)

let part_reservation p =
  List.fold_left
    (fun acc s -> Resource_set.union acc (set_of_rects s.allocation))
    Resource_set.empty p.steps

let reservation t =
  match t.evidence with
  | Schedules parts ->
      List.fold_left
        (fun acc p -> Resource_set.union acc (part_reservation p))
        Resource_set.empty parts
  | Infeasible | Aggregate_fit _ | Optimistic_fit _ | Stale _ | Duplicate ->
      Resource_set.empty

(* Rebuild the concrete schedule a part serialized — the inverse of
   {!part_of_schedule} modulo the dropped requirement spec. *)
let schedule_of_part p =
  let steps =
    List.map
      (fun s ->
        {
          Accommodation.step_index = s.index;
          subwindow = s.subwindow;
          allocation = set_of_rects s.allocation;
        })
      p.steps
  in
  let reservation =
    List.fold_left
      (fun acc (s : Accommodation.step_allocation) ->
        Resource_set.union acc s.Accommodation.allocation)
      Resource_set.empty steps
  in
  { Accommodation.window = p.window; breakpoints = p.breakpoints; steps;
    reservation }

let schedules_of_parts t =
  match t.evidence with
  | Schedules parts ->
      List.map (fun p -> (Actor_name.make p.actor, schedule_of_part p)) parts
  | Infeasible | Aggregate_fit _ | Optimistic_fit _ | Stale _ | Duplicate -> []

let check_part p =
  let schedule = schedule_of_part p in
  let spec =
    Requirement.make_complex
      ~steps:
        (List.map
           (fun s -> List.map (fun (xi, q) -> Requirement.amount xi q) s.need)
           p.steps)
      ~window:p.window
  in
  (* theta := the part's own reservation: domination is trivially true
     here, so check_schedule validates only the internal structure —
     tiling, containment, coverage.  Whether the reservation fit the
     residual is the *external* question, answered in [verify]. *)
  match
    Accommodation.check_schedule schedule.Accommodation.reservation spec
      schedule
  with
  | Ok () -> Ok ()
  | Error e -> Error (Printf.sprintf "part %s: %s" p.actor e)

let well_formed t =
  match t.evidence with
  | Schedules parts ->
      List.fold_left
        (fun acc p -> match acc with Error _ -> acc | Ok () -> check_part p)
        (Ok ()) parts
  | Aggregate_fit { rows; fits; _ } ->
      if fits = rows_fit rows then Ok ()
      else Error "aggregate verdict contradicts its own rows"
  | Infeasible | Optimistic_fit _ | Stale _ | Duplicate -> Ok ()

let verify ~residual t =
  let* () = well_formed t in
  let* () =
    if t.digest = "" then Ok ()
    else
      let d = digest_like t.digest residual in
      if String.equal d t.digest then Ok ()
      else
        Error
          (Printf.sprintf
             "residual digest mismatch: certificate %s, reconstructed %s"
             t.digest d)
  in
  match t.evidence with
  | Schedules _ ->
      if Resource_set.dominates residual (reservation t) then Ok ()
      else Error "reservation is not covered by the reconstructed residual"
  | Infeasible | Aggregate_fit _ | Optimistic_fit _ | Stale _ | Duplicate ->
      Ok ()

(* --- pretty-printing ------------------------------------------------------ *)

let pp_times ppf = function
  | [] -> Format.pp_print_string ppf "none"
  | ts ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        Time.pp ppf ts

let pp_amounts ppf = function
  | [] -> Format.pp_print_string ppf "nothing"
  | amounts ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        (fun ppf (xi, q) -> Format.fprintf ppf "%d of %a" q Located_type.pp xi)
        ppf amounts

let pp_rects ppf = function
  | [] -> Format.pp_print_string ppf "0"
  | rects ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " + ")
        (fun ppf r ->
          Format.fprintf ppf "%d@%a %a" r.rate Interval.pp r.interval
            Located_type.pp r.ltype)
        ppf rects

let pp_part ppf p =
  Format.fprintf ppf "@[<v 2>part %s on %a, breakpoints: %a" p.actor
    Interval.pp p.window pp_times p.breakpoints;
  List.iter
    (fun s ->
      Format.fprintf ppf "@ step %d on %a needs %a@   reserved %a" s.index
        Interval.pp s.subwindow pp_amounts s.need pp_rects s.allocation)
    p.steps;
  Format.fprintf ppf "@]"

let pp ppf t =
  Format.fprintf ppf "@[<v>theorem %s" (theorem_name t.theorem);
  if t.digest <> "" then
    Format.fprintf ppf ", checked against residual %s" t.digest;
  (match t.evidence with
  | Schedules parts ->
      List.iter (fun p -> Format.fprintf ppf "@ %a" pp_part p) parts
  | Infeasible ->
      Format.fprintf ppf "@ no schedule exists against that residual"
  | Aggregate_fit { window; rows; fits } ->
      Format.fprintf ppf "@ aggregate check on %a: %s" Interval.pp window
        (if fits then "fits" else "does not fit");
      List.iter
        (fun r ->
          Format.fprintf ppf "@ %a: demand %d vs capacity %d - committed %d"
            Located_type.pp r.row_type r.demand r.capacity r.committed)
        rows
  | Optimistic_fit { window; totals } ->
      Format.fprintf ppf "@ admitted optimistically on %a for %a" Interval.pp
        window pp_amounts totals
  | Stale { deadline } ->
      Format.fprintf ppf "@ deadline %a had already passed on arrival" Time.pp
        deadline
  | Duplicate -> Format.fprintf ppf "@ the id was already committed");
  Format.fprintf ppf "@]"

open Import

type entry = {
  computation : string;
  window : Interval.t;
  reservation : Resource_set.t;
  schedules : (Actor_name.t * Accommodation.schedule) list;
}

module Id_map = Map.Make (String)

(* [committed] and [residual] are caches: the union of all live
   reservations, and capacity minus that union.  Every operation updates
   them with one resource-set operation instead of re-folding the whole
   ledger, which keeps the admission decision path sublinear in the
   number of committed computations.  [self_check] recomputes both from
   scratch and compares.

   The ledger is lazy about time.  [advance] truncates only capacity and
   the two caches, at [now]; entries keep the reservations they were
   committed with, and every read of one goes through [in_force], which
   cuts it at [now] — the auditor's rule in [Live].  Truncation is
   pointwise per tick, so the caches equal what eagerly truncated
   entries would sum to, and what any reader sees of an entry is what
   an eager ledger would hold. *)
type t = {
  capacity : Resource_set.t;
  entries : entry Id_map.t;
  committed : Resource_set.t;
  residual : Resource_set.t;
  now : Time.t;  (** The latest [advance]; [min_int] before any. *)
}

let in_force c set = Resource_set.truncate_before set c.now

let cut c e =
  let reservation = in_force c e.reservation in
  if reservation == e.reservation then e else { e with reservation }

(* --- invariant checking -------------------------------------------------- *)

(* A cache that should make an operation total turned out not to cover
   it: the ledger state itself is corrupt (e.g. built by poking the
   caches directly).  Report it as a structured invariant violation
   naming the operation, rather than dying on a bare [assert false]
   with no context. *)
let invariant_violation fmt =
  Format.kasprintf invalid_arg ("calendar: invariant violation: " ^^ fmt)

let checked =
  ref
    (match Sys.getenv_opt "ROTA_CHECK_CALENDAR" with
    | None | Some "" | Some "0" | Some "false" -> false
    | Some _ -> true)

let set_self_check enabled = checked := enabled

let recompute_committed c =
  Id_map.fold
    (fun _ e acc -> Resource_set.union acc (in_force c e.reservation))
    c.entries Resource_set.empty

let self_check c =
  let committed = recompute_committed c in
  if not (Resource_set.equal committed c.committed) then
    Error
      (Format.asprintf
         "calendar: cached committed drifted: cached %a, recomputed %a"
         Resource_set.pp c.committed Resource_set.pp committed)
  else
    match Resource_set.diff c.capacity committed with
    | Error d ->
        Error
          (Format.asprintf "calendar: commitments exceed capacity: %a"
             Resource_set.pp_deficit d)
    | Ok residual ->
        if not (Resource_set.equal residual c.residual) then
          Error
            (Format.asprintf
               "calendar: cached residual drifted: cached %a, recomputed %a"
               Resource_set.pp c.residual Resource_set.pp residual)
        else Ok ()

let debug_check c =
  if !checked then
    match self_check c with Ok () -> c | Error e -> invalid_arg e
  else c

(* --- construction and accessors ------------------------------------------ *)

let create capacity =
  {
    capacity;
    entries = Id_map.empty;
    committed = Resource_set.empty;
    residual = capacity;
    now = min_int;
  }

let capacity c = c.capacity
let entries c = Id_map.fold (fun _ e acc -> cut c e :: acc) c.entries [] |> List.rev
let size c = Id_map.cardinal c.entries
let committed c = c.committed
let residual c = c.residual

(* --- ledger operations ---------------------------------------------------- *)

exception Already_committed

let commit c entry =
  match
    (* One map traversal does both the duplicate check and the insert. *)
    Id_map.update entry.computation
      (function None -> Some entry | Some _ -> raise Already_committed)
      c.entries
  with
  | exception Already_committed ->
      Error (Printf.sprintf "calendar: %s already committed" entry.computation)
  | entries -> (
      match Resource_set.diff c.residual entry.reservation with
      | Error _ ->
          Error
            (Printf.sprintf
               "calendar: reservation for %s exceeds the residual capacity"
               entry.computation)
      | Ok residual ->
          Ok
            (debug_check
               {
                 c with
                 entries;
                 committed = Resource_set.union c.committed entry.reservation;
                 residual;
               }))

let release c ~computation =
  match Id_map.find_opt computation c.entries with
  | None -> c
  | Some e ->
      let reservation = in_force c e.reservation in
      let committed =
        match Resource_set.diff c.committed reservation with
        | Ok r -> r
        | Error d ->
            (* [committed] is the union of all live reservations, so the
               difference is defined unless the cache has drifted. *)
            invariant_violation
              "release %s: cached committed does not cover the entry's \
               reservation (%a)"
              computation Resource_set.pp_deficit d
      in
      debug_check
        {
          c with
          entries = Id_map.remove computation c.entries;
          committed;
          residual = Resource_set.union c.residual reservation;
        }

let find c ~computation = Option.map (cut c) (Id_map.find_opt computation c.entries)
let mem c ~computation = Id_map.mem computation c.entries

(* Capacity joins are cut at [now] like everything else the ledger
   holds, so nothing before the clock can back a commitment — which is
   what lets [in_force] cut an entry at the latest advance, whenever it
   was committed. *)
let add_capacity c theta =
  let theta = in_force c theta in
  debug_check
    {
      c with
      capacity = Resource_set.union c.capacity theta;
      residual = Resource_set.union c.residual theta;
    }

let remove_capacity c slice =
  match Resource_set.diff c.residual slice with
  | Error _ -> Error "calendar: cannot withdraw committed or absent capacity"
  | Ok residual -> (
      match Resource_set.diff c.capacity slice with
      | Ok capacity -> Ok (debug_check { c with capacity; residual })
      | Error d ->
          (* [slice] is dominated by the residual, a subset of capacity —
             unless the caches have drifted.  This operation already has
             an error channel, so report rather than raise. *)
          Error
            (Format.asprintf
               "calendar: invariant violation: remove_capacity: residual \
                covers the slice but capacity does not (%a)"
               Resource_set.pp_deficit d))

(* An unannounced revocation cannot be refused: the slice leaves whether
   the ledger likes it or not.  Shrink capacity with the clamped
   difference, then decide which commitments survive on what is left: a
   single greedy keep/evict pass in id order, keeping an entry exactly
   when the remaining capacity still dominates its reservation.  Kept
   entries retain their original reservations — they execute exactly as
   committed, which is what makes repair non-interfering (Theorem 4's
   residual discipline applied in reverse). *)
let revoke c slice =
  let capacity = Resource_set.diff_clamped c.capacity slice in
  let remaining, kept, evicted =
    Id_map.fold
      (fun id e (remaining, kept, evicted) ->
        let e = cut c e in
        match Resource_set.diff remaining e.reservation with
        | Ok remaining -> (remaining, Id_map.add id e kept, evicted)
        | Error _ -> (remaining, kept, e :: evicted))
      c.entries
      (capacity, Id_map.empty, [])
  in
  let committed =
    match
      Resource_set.diff capacity remaining
      (* [remaining] = capacity minus every kept reservation, so the
         difference is exactly their union. *)
    with
    | Ok committed -> committed
    | Error _ -> assert false
  in
  ( debug_check
      { c with capacity; entries = kept; committed; residual = remaining },
    List.rev evicted )

(* Truncation is pointwise per tick, so it distributes over both the
   union behind [committed] and the complement behind [residual]: the
   caches stay exact without recomputation, and the entries are cut
   when read ([in_force]), not here. *)
let advance c now =
  if now <= c.now then c
  else
    debug_check
      {
        c with
        capacity = Resource_set.truncate_before c.capacity now;
        committed = Resource_set.truncate_before c.committed now;
        residual = Resource_set.truncate_before c.residual now;
        now;
      }

let committed_quantity c xi w = Resource_set.integrate c.committed xi w
let capacity_quantity c xi w = Resource_set.integrate c.capacity xi w

let with_caches_unchecked c ~committed ~residual = { c with committed; residual }

let pp ppf c =
  Format.fprintf ppf "@[<v>calendar: capacity %a@ %d entries, residual %a@]"
    Resource_set.pp c.capacity (size c) Resource_set.pp c.residual

(* --- snapshots ----------------------------------------------------------- *)

module Json = Rota_obs.Json

let ( let* ) = Result.bind

let jfield name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "calendar snapshot: missing field %S" name)

(* An entry serializes as its window plus an eviction-style certificate
   of its own schedules: the certificate codec already round-trips
   schedules as rectangle lists and [Certificate.schedules_of_parts]
   rebuilds them, so the ledger needs no second schedule codec.  The
   certificate's digest field pins nothing here (an entry carries no
   residual) and is written empty.  The reservation is serialized on its
   own, as in force ([entries] cuts it), NOT re-derived from the
   schedules on restore: after any advance the in-force reservation and
   the whole schedules genuinely differ, and only the reservation is the
   committed state. *)
let entry_to_json (e : entry) =
  let cert =
    Certificate.of_committed ~theorem:Certificate.Unchecked
      ~residual:Resource_set.empty e.schedules
  in
  Json.Obj
    [
      ("computation", Json.String e.computation);
      ("window", Certificate.interval_to_json e.window);
      ( "reservation",
        Certificate.rects_to_json (Certificate.rects_of_set e.reservation) );
      ("certificate", Certificate.to_json { cert with Certificate.digest = "" });
    ]

let entry_of_json json =
  let* computation = Result.bind (jfield "computation" json) Json.to_str in
  let* window =
    Result.bind (jfield "window" json) Certificate.interval_of_json
  in
  let* reservation =
    Result.map Certificate.set_of_rects
      (Result.bind (jfield "reservation" json) Certificate.rects_of_json)
  in
  let* cert = Result.bind (jfield "certificate" json) Certificate.of_json in
  let* () = Certificate.well_formed cert in
  Ok
    {
      computation;
      window;
      reservation;
      schedules = Certificate.schedules_of_parts cert;
    }

let snapshot c =
  Json.Obj
    [
      ( "capacity",
        Certificate.rects_to_json (Certificate.rects_of_set c.capacity) );
      ("entries", Json.List (List.map entry_to_json (entries c)));
    ]

(* Restoring replays every entry through [commit], so the usual
   admission-time validation (residual coverage, duplicate ids) runs
   again: a corrupted or hand-edited snapshot whose reservations do not
   fit its own capacity is rejected here instead of poisoning later
   decisions. *)
let restore json =
  let* capacity =
    Result.map Certificate.set_of_rects
      (Result.bind (jfield "capacity" json) Certificate.rects_of_json)
  in
  let* entry_jsons =
    match jfield "entries" json with
    | Ok (Json.List items) -> Ok items
    | Ok _ -> Error "calendar snapshot: field \"entries\" is not a list"
    | Error _ as e -> e
  in
  List.fold_left
    (fun acc ej ->
      let* c = acc in
      let* e = entry_of_json ej in
      commit c e)
    (Ok (create capacity))
    entry_jsons

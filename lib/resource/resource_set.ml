open Import

(* Slab representation: parallel arrays sorted by located type
   (strictly ascending, no duplicates), profiles all non-empty.  The
   decide/residual hot path does linear two-pointer merges over a
   handful of types instead of rebalancing a Map, and lookups are a
   binary search with no closure in sight.

   [hashes] holds each profile's digest slot ({!hash}), or [no_hash]
   until a digest fills it; a set with no filled slot at all holds [[||]]
   there, so sets that are never digested allocate nothing for slots.  An operation that passes a profile through
   unchanged passes its slot through with it, [truncate_before] carries
   a slot forward by the segments it drops or cuts, and every other
   operation leaves the new profile's slot empty — so a set that is
   never digested never pays for hashing, and a digest of a set derived
   from a digested one rehashes only the types the derivation touched.
   The slots are the one mutable part of the representation; they cache
   a function of (type, profile) and never change what a set means. *)
type t = {
  types : Located_type.t array;
  profiles : Profile.t array;
  mutable hashes : int array;
}

type deficit = { ltype : Located_type.t; deficit : Profile.deficit }

exception Diff_failed of deficit

(* Slots are 62-bit non-negative values, so -1 cannot be one. *)
let no_hash = -1
let empty = { types = [||]; profiles = [||]; hashes = [||] }
let slot_at set i = if Array.length set.hashes = 0 then no_hash else set.hashes.(i)
let is_empty set = Array.length set.types = 0
let size set = Array.length set.types

(* Index of [xi] if present, else the insertion point. *)
let search set xi =
  let lo = ref 0 and hi = ref (size set) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Located_type.compare set.types.(mid) xi < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* --- building a set left to right ----------------------------------------- *)

(* Every merge below fills one of these to at most its capacity and
   trims it at the end. *)
type builder = {
  mutable k : int;
  btypes : Located_type.t array;
  bprofiles : Profile.t array;
  mutable bhashes : int array;  (* [[||]] until a known slot is emitted *)
}

let builder cap x0 =
  {
    k = 0;
    btypes = Array.make cap x0;
    bprofiles = Array.make cap Profile.empty;
    bhashes = [||];
  }

let emit b x p h =
  b.btypes.(b.k) <- x;
  b.bprofiles.(b.k) <- p;
  if h <> no_hash && Array.length b.bhashes = 0 then
    b.bhashes <- Array.make (Array.length b.btypes) no_hash;
  if Array.length b.bhashes > 0 then b.bhashes.(b.k) <- h;
  b.k <- b.k + 1

(* [p] computed from the slot-[h] profile [src]: the slot survives only
   when the profile does. *)
let emit_from b x ~src ~h p =
  if not (Profile.is_empty p) then emit b x p (if p == src then h else no_hash)

let finish b =
  if b.k = Array.length b.btypes then
    { types = b.btypes; profiles = b.bprofiles; hashes = b.bhashes }
  else
    {
      types = Array.sub b.btypes 0 b.k;
      profiles = Array.sub b.bprofiles 0 b.k;
      hashes =
        (if Array.length b.bhashes = 0 then [||] else Array.sub b.bhashes 0 b.k);
    }

let find xi set =
  let i = search set xi in
  if i < size set && Located_type.compare set.types.(i) xi = 0 then
    set.profiles.(i)
  else Profile.empty

let mem xi set =
  let i = search set xi in
  i < size set && Located_type.compare set.types.(i) xi = 0

let remove_at a i =
  let n = Array.length a in
  Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (n - i - 1))

let insert_at a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let put xi profile set =
  let n = size set in
  let i = search set xi in
  let present = i < n && Located_type.compare set.types.(i) xi = 0 in
  if Profile.is_empty profile then
    if not present then set
    else
      {
        types = remove_at set.types i;
        profiles = remove_at set.profiles i;
        hashes = (if Array.length set.hashes = 0 then [||] else remove_at set.hashes i);
      }
  else if present then
    if profile == set.profiles.(i) then set
    else begin
      let profiles = Array.copy set.profiles
      and hashes = Array.copy set.hashes in
      profiles.(i) <- profile;
      if Array.length hashes > 0 then hashes.(i) <- no_hash;
      { set with profiles; hashes }
    end
  else
    {
      types = insert_at set.types i xi;
      profiles = insert_at set.profiles i profile;
      hashes =
        (if Array.length set.hashes = 0 then [||] else insert_at set.hashes i no_hash);
    }

let update xi f set = put xi (f (find xi set)) set

let add_profile xi p set =
  if Profile.is_empty p then set
  else update xi (fun q -> Profile.add q p) set

let add_term term set =
  let xi = Term.ltype term in
  put xi (Profile.add (find xi set) (Profile.of_terms [ term ])) set

let of_pairs pairs =
  match pairs with
  | [] -> empty
  | (x0, _) :: _ ->
      let b = builder (List.length pairs) x0 in
      List.iter (fun (x, p) -> emit b x p no_hash) pairs;
      finish b

let of_terms terms =
  match terms with
  | [] -> empty
  | first :: rest ->
      (* Group the terms by type in one sort, then aggregate each group
         with a single profile sweep (the incremental add-per-term fold
         was quadratic in the worst case). *)
      let sorted =
        List.stable_sort
          (fun s t -> Located_type.compare (Term.ltype s) (Term.ltype t))
          (first :: rest)
      in
      let rec group acc xi run = function
        | [] -> (xi, Profile.of_terms (List.rev run)) :: acc
        | t :: tl ->
            let x = Term.ltype t in
            if Located_type.compare x xi = 0 then group acc xi (t :: run) tl
            else group ((xi, Profile.of_terms (List.rev run)) :: acc) x [ t ] tl
      in
      let pairs =
        match sorted with
        | [] -> []
        | t :: tl -> List.rev (group [] (Term.ltype t) [ t ] tl)
      in
      of_pairs (List.filter (fun (_, p) -> not (Profile.is_empty p)) pairs)

let singleton term = of_terms [ term ]

let to_terms set =
  let acc = ref [] in
  for i = size set - 1 downto 0 do
    acc := Profile.to_terms ~ltype:set.types.(i) set.profiles.(i) @ !acc
  done;
  !acc

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else begin
    let na = size a and nb = size b in
    let out = builder (na + nb) a.types.(0) in
    let i = ref 0 and j = ref 0 in
    while !i < na || !j < nb do
      if !j >= nb then begin
        emit out a.types.(!i) a.profiles.(!i) (slot_at a !i);
        incr i
      end
      else if !i >= na then begin
        emit out b.types.(!j) b.profiles.(!j) (slot_at b !j);
        incr j
      end
      else
        let c = Located_type.compare a.types.(!i) b.types.(!j) in
        if c < 0 then begin
          emit out a.types.(!i) a.profiles.(!i) (slot_at a !i);
          incr i
        end
        else if c > 0 then begin
          emit out b.types.(!j) b.profiles.(!j) (slot_at b !j);
          incr j
        end
        else begin
          emit out a.types.(!i)
            (Profile.add a.profiles.(!i) b.profiles.(!j))
            no_hash;
          incr i;
          incr j
        end
    done;
    finish out
  end

let diff a b =
  if is_empty b then Ok a
  else begin
    let na = size a and nb = size b in
    (* A type present in [b] but absent from [a] reports the same
       deficit subtracting from the empty profile would. *)
    let missing xi q =
      match Profile.sub Profile.empty q with
      | Error d -> raise (Diff_failed { ltype = xi; deficit = d })
      | Ok _ -> assert false
    in
    match
      let out = builder na b.types.(0) in
      let i = ref 0 and j = ref 0 in
      while !i < na || !j < nb do
        if !j >= nb then begin
          emit out a.types.(!i) a.profiles.(!i) (slot_at a !i);
          incr i
        end
        else if !i >= na then missing b.types.(!j) b.profiles.(!j)
        else
          let c = Located_type.compare a.types.(!i) b.types.(!j) in
          if c < 0 then begin
            emit out a.types.(!i) a.profiles.(!i) (slot_at a !i);
            incr i
          end
          else if c > 0 then missing b.types.(!j) b.profiles.(!j)
          else begin
            (match Profile.sub a.profiles.(!i) b.profiles.(!j) with
            | Ok r -> emit_from out a.types.(!i) ~src:a.profiles.(!i) ~h:(slot_at a !i) r
            | Error d ->
                raise (Diff_failed { ltype = a.types.(!i); deficit = d }));
            incr i;
            incr j
          end
      done;
      finish out
    with
    | result -> Ok result
    | exception Diff_failed d -> Error d
  end

let dominates a b =
  let na = size a and nb = size b in
  let rec go i j =
    if j >= nb then true
    else if i >= na then false
    else
      let c = Located_type.compare a.types.(i) b.types.(j) in
      if c < 0 then go (i + 1) j
      else if c > 0 then false
      else Profile.dominates a.profiles.(i) b.profiles.(j) && go (i + 1) (j + 1)
  in
  go 0 0

let diff_clamped a b =
  if is_empty a || is_empty b then a
  else begin
    let na = size a and nb = size b in
    let out = builder na a.types.(0) in
    let j = ref 0 in
    for i = 0 to na - 1 do
      (* subtrahend types absent from [a] clamp to nothing — skip them *)
      while !j < nb && Located_type.compare b.types.(!j) a.types.(i) < 0 do
        incr j
      done;
      let p =
        if !j < nb && Located_type.compare b.types.(!j) a.types.(i) = 0
        then begin
          let r = Profile.sub_clamped a.profiles.(i) b.profiles.(!j) in
          incr j;
          r
        end
        else a.profiles.(i)
      in
      emit_from out a.types.(i) ~src:a.profiles.(i) ~h:(slot_at a i) p
    done;
    finish out
  end

let meet a b =
  let na = size a and nb = size b in
  if na = 0 || nb = 0 then empty
  else begin
    let out = builder (if na < nb then na else nb) a.types.(0) in
    let rec go i j =
      if i < na && j < nb then begin
        let c = Located_type.compare a.types.(i) b.types.(j) in
        if c < 0 then go (i + 1) j
        else if c > 0 then go i (j + 1)
        else begin
          emit_from out a.types.(i) ~src:a.profiles.(i) ~h:(slot_at a i)
            (Profile.meet a.profiles.(i) b.profiles.(j));
          go (i + 1) (j + 1)
        end
      end
    in
    go 0 0;
    finish out
  end

let domain set = Array.to_list set.types
let integrate set xi w = Profile.integrate (find xi set) w

let map_profiles f set =
  let n = size set in
  if n = 0 then set
  else begin
    let out = builder n set.types.(0) in
    let unchanged = ref true in
    for i = 0 to n - 1 do
      let p = f set.types.(i) set.profiles.(i) in
      if p != set.profiles.(i) then unchanged := false;
      emit_from out set.types.(i) ~src:set.profiles.(i) ~h:(slot_at set i) p
    done;
    if !unchanged then set else finish out
  end

let restrict set w = map_profiles (fun _ p -> Profile.restrict p w) set

(* --- digest slots ---------------------------------------------------------- *)

(* The type's identity: its kind, then each location, every part
   followed by a terminator word so adjacent names cannot alias. *)
let type_hash xi =
  let h = ref 0x0cbf29ce48422232 in
  let add_string s =
    String.iter (fun c -> h := Profile.mix (!h + Char.code c)) s;
    h := Profile.mix (!h + 0x100)
  in
  add_string (Located_type.kind xi);
  List.iter (fun l -> add_string (Location.name l)) (Located_type.locations xi);
  !h

(* A slot is additive over the profile's canonical segments, so a
   truncation adjusts it by what it drops instead of rehashing what it
   keeps.  Masking to 62 bits commutes with the wrapping sums. *)
let slot xi p = (type_hash xi + Profile.hash p) land max_int

let truncated_slot h p p' =
  if h = no_hash then no_hash else (h - Profile.hash_expired p p') land max_int

(* The common case cuts profiles without emptying any, so the type
   array is shared and only the cut profiles and their slots change. *)
let truncate_before set t =
  let n = size set in
  let rec first_cut i =
    if i >= n then n
    else if Profile.truncate_before set.profiles.(i) t != set.profiles.(i) then i
    else first_cut (i + 1)
  in
  let i0 = first_cut 0 in
  if i0 = n then set
  else begin
    let profiles = Array.copy set.profiles and hashes = Array.copy set.hashes in
    let emptied = ref false in
    for i = i0 to n - 1 do
      let p = profiles.(i) in
      let p' = Profile.truncate_before p t in
      if p' != p then begin
        profiles.(i) <- p';
        if Profile.is_empty p' then emptied := true
        else if Array.length hashes > 0 then
          hashes.(i) <- truncated_slot hashes.(i) p p'
      end
    done;
    if not !emptied then { types = set.types; profiles; hashes }
    else begin
      let out = builder n set.types.(0) in
      for i = 0 to n - 1 do
        if not (Profile.is_empty profiles.(i)) then
          emit out set.types.(i) profiles.(i)
            (if Array.length hashes = 0 then no_hash else hashes.(i))
      done;
      finish out
    end
  end

let hash set =
  let n = size set in
  if Array.length set.hashes = 0 && n > 0 then set.hashes <- Array.make n no_hash;
  let h = ref (Profile.mix (n + 0x3c6ef372fe94f82b)) in
  for i = 0 to n - 1 do
    let s = set.hashes.(i) in
    let s =
      if s <> no_hash then s
      else begin
        let s = slot set.types.(i) set.profiles.(i) in
        set.hashes.(i) <- s;
        s
      end
    in
    h := Profile.mix (!h + s)
  done;
  !h land max_int

let within set w =
  let n = size set in
  let rec go i = i >= n || (Profile.within set.profiles.(i) w && go (i + 1)) in
  go 0

let total set =
  let acc = ref 0 in
  for i = 0 to size set - 1 do
    acc := !acc + Profile.total set.profiles.(i)
  done;
  !acc

let horizon set =
  let acc = ref None in
  for i = 0 to size set - 1 do
    match (Profile.horizon set.profiles.(i), !acc) with
    | Some h, Some a -> if Time.compare h a > 0 then acc := Some h
    | Some h, None -> acc := Some h
    | None, _ -> ()
  done;
  !acc

let fold f set init =
  let acc = ref init in
  for i = 0 to size set - 1 do
    acc := f set.types.(i) set.profiles.(i) !acc
  done;
  !acc

let unsafe_slabs set = (set.types, set.profiles)

let equal a b =
  a == b
  || size a = size b
     &&
     let n = size a in
     let rec go i =
       i >= n
       || Located_type.compare a.types.(i) b.types.(i) = 0
          && Profile.equal a.profiles.(i) b.profiles.(i)
          && go (i + 1)
     in
     go 0

(* Binding order (type, profile) in slab order matches Map.compare over
   the old representation: lexicographic over sorted bindings, shorter
   prefix first. *)
let compare a b =
  let na = size a and nb = size b in
  let rec go i =
    if i >= na || i >= nb then Int.compare na nb
    else
      let c = Located_type.compare a.types.(i) b.types.(i) in
      if c <> 0 then c
      else
        let c = Profile.compare a.profiles.(i) b.profiles.(i) in
        if c <> 0 then c else go (i + 1)
  in
  go 0

let pp ppf set =
  let terms = to_terms set in
  match terms with
  | [] -> Format.pp_print_string ppf "{}"
  | _ ->
      Format.fprintf ppf "{@[%a@]}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           Term.pp)
        terms

let pp_deficit ppf d =
  Format.fprintf ppf "%a: %a" Located_type.pp d.ltype Profile.pp_deficit
    d.deficit

open Import

(* Slab representation: two parallel arrays sorted by located type
   (strictly ascending, no duplicates), profiles all non-empty.  The
   decide/residual hot path does linear two-pointer merges over a
   handful of types instead of rebalancing a Map, and lookups are a
   binary search with no closure in sight. *)
type t = { types : Located_type.t array; profiles : Profile.t array }

type deficit = { ltype : Located_type.t; deficit : Profile.deficit }

exception Diff_failed of deficit

let empty = { types = [||]; profiles = [||] }
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

let find xi set =
  let i = search set xi in
  if i < size set && Located_type.compare set.types.(i) xi = 0 then
    set.profiles.(i)
  else Profile.empty

let mem xi set =
  let i = search set xi in
  i < size set && Located_type.compare set.types.(i) xi = 0

let put xi profile set =
  let n = size set in
  let i = search set xi in
  let present = i < n && Located_type.compare set.types.(i) xi = 0 in
  if Profile.is_empty profile then
    if not present then set
    else
      {
        types =
          Array.append (Array.sub set.types 0 i)
            (Array.sub set.types (i + 1) (n - i - 1));
        profiles =
          Array.append
            (Array.sub set.profiles 0 i)
            (Array.sub set.profiles (i + 1) (n - i - 1));
      }
  else if present then begin
    let profiles = Array.copy set.profiles in
    profiles.(i) <- profile;
    { set with profiles }
  end
  else begin
    let types = Array.make (n + 1) xi
    and profiles = Array.make (n + 1) profile in
    Array.blit set.types 0 types 0 i;
    Array.blit set.profiles 0 profiles 0 i;
    Array.blit set.types i types (i + 1) (n - i);
    Array.blit set.profiles i profiles (i + 1) (n - i);
    { types; profiles }
  end

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
  | (x0, p0) :: _ ->
      let n = List.length pairs in
      let types = Array.make n x0 and profiles = Array.make n p0 in
      List.iteri
        (fun i (x, p) ->
          types.(i) <- x;
          profiles.(i) <- p)
        pairs;
      { types; profiles }

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

let shrink k tys prs =
  if k = Array.length tys then { types = tys; profiles = prs }
  else { types = Array.sub tys 0 k; profiles = Array.sub prs 0 k }

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else begin
    let na = size a and nb = size b in
    let tys = Array.make (na + nb) a.types.(0)
    and prs = Array.make (na + nb) Profile.empty in
    let k = ref 0 and i = ref 0 and j = ref 0 in
    let emit x p =
      tys.(!k) <- x;
      prs.(!k) <- p;
      incr k
    in
    while !i < na || !j < nb do
      if !j >= nb then begin
        emit a.types.(!i) a.profiles.(!i);
        incr i
      end
      else if !i >= na then begin
        emit b.types.(!j) b.profiles.(!j);
        incr j
      end
      else
        let c = Located_type.compare a.types.(!i) b.types.(!j) in
        if c < 0 then begin
          emit a.types.(!i) a.profiles.(!i);
          incr i
        end
        else if c > 0 then begin
          emit b.types.(!j) b.profiles.(!j);
          incr j
        end
        else begin
          emit a.types.(!i) (Profile.add a.profiles.(!i) b.profiles.(!j));
          incr i;
          incr j
        end
    done;
    shrink !k tys prs
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
      let tys = Array.make na b.types.(0)
      and prs = Array.make na Profile.empty in
      let k = ref 0 and i = ref 0 and j = ref 0 in
      let emit x p =
        tys.(!k) <- x;
        prs.(!k) <- p;
        incr k
      in
      while !i < na || !j < nb do
        if !j >= nb then begin
          emit a.types.(!i) a.profiles.(!i);
          incr i
        end
        else if !i >= na then missing b.types.(!j) b.profiles.(!j)
        else
          let c = Located_type.compare a.types.(!i) b.types.(!j) in
          if c < 0 then begin
            emit a.types.(!i) a.profiles.(!i);
            incr i
          end
          else if c > 0 then missing b.types.(!j) b.profiles.(!j)
          else begin
            (match Profile.sub a.profiles.(!i) b.profiles.(!j) with
            | Ok r ->
                if not (Profile.is_empty r) then emit a.types.(!i) r
            | Error d ->
                raise (Diff_failed { ltype = a.types.(!i); deficit = d }));
            incr i;
            incr j
          end
      done;
      shrink !k tys prs
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
    let tys = Array.make na a.types.(0)
    and prs = Array.make na Profile.empty in
    let k = ref 0 and j = ref 0 in
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
      if not (Profile.is_empty p) then begin
        tys.(!k) <- a.types.(i);
        prs.(!k) <- p;
        incr k
      end
    done;
    shrink !k tys prs
  end

let meet a b =
  let na = size a and nb = size b in
  if na = 0 || nb = 0 then empty
  else begin
    let cap = if na < nb then na else nb in
    let tys = Array.make cap a.types.(0)
    and prs = Array.make cap Profile.empty in
    let k = ref 0 in
    let rec go i j =
      if i < na && j < nb then begin
        let c = Located_type.compare a.types.(i) b.types.(j) in
        if c < 0 then go (i + 1) j
        else if c > 0 then go i (j + 1)
        else begin
          let r = Profile.meet a.profiles.(i) b.profiles.(j) in
          if not (Profile.is_empty r) then begin
            tys.(!k) <- a.types.(i);
            prs.(!k) <- r;
            incr k
          end;
          go (i + 1) (j + 1)
        end
      end
    in
    go 0 0;
    shrink !k tys prs
  end

let domain set = Array.to_list set.types
let integrate set xi w = Profile.integrate (find xi set) w

let map_profiles f set =
  let n = size set in
  if n = 0 then set
  else begin
    let tys = Array.make n set.types.(0)
    and prs = Array.make n Profile.empty in
    let k = ref 0 in
    let unchanged = ref true in
    for i = 0 to n - 1 do
      let p = f set.types.(i) set.profiles.(i) in
      if p != set.profiles.(i) then unchanged := false;
      if not (Profile.is_empty p) then begin
        tys.(!k) <- set.types.(i);
        prs.(!k) <- p;
        incr k
      end
    done;
    if !unchanged && !k = n then set else shrink !k tys prs
  end

let restrict set w = map_profiles (fun _ p -> Profile.restrict p w) set

let truncate_before set t =
  map_profiles (fun _ p -> Profile.truncate_before p t) set

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

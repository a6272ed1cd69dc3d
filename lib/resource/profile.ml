open Import

type segment = { interval : Interval.t; rate : int }

(* Flat slab representation: a profile is one int array of
   (start, stop, rate) triples, sorted by start, pairwise disjoint,
   rates >= 1, and no segment meeting the next with the same rate
   (canonical form).  The slab layout keeps the decide/residual hot
   path walking contiguous memory instead of chasing list cells, and
   every binary operation is a single left-to-right merge — no
   boundary lists, no closures, no sort. *)
type t = int array

type deficit = { at : Time.t; available : int; required : int }

let empty = [||]
let is_empty p = Array.length p = 0

let nseg p = Array.length p / 3
let seg_start (p : t) i = Array.unsafe_get p (3 * i)
let seg_stop (p : t) i = Array.unsafe_get p ((3 * i) + 1)
let seg_rate (p : t) i = Array.unsafe_get p ((3 * i) + 2)

let segments p =
  List.init (nseg p) (fun i ->
      {
        interval = Interval.of_pair (seg_start p i) (seg_stop p i);
        rate = seg_rate p i;
      })

let unsafe_slab (p : t) = p

(* --- scratch arena -------------------------------------------------------- *)

(* Merges build their result here and copy the exact-size slab out at
   the end, so the transient worst-case-sized buffer is allocated once
   and reused across every operation instead of churning the minor heap
   on each decide.  Nothing recursive runs while the arena is being
   written: an operation finishes (copies out) before any other profile
   operation can start. *)
let scratch = ref (Array.make 192 0)

let scratch_ensure n =
  if Array.length !scratch < n then
    scratch := Array.make (max n (2 * Array.length !scratch)) 0;
  !scratch

let scratch_copy out k = if k = 0 then empty else Array.sub out 0 k

(* --- canonical construction ---------------------------------------------- *)

exception Deficit_exn of deficit

(* Walk the merged boundaries of [p] and [q] left to right, applying
   [op slice_start rate_p rate_q] on every elementary slice and
   coalescing equal-rate neighbours as they are emitted.  [op] must
   send (0, 0) to 0 and may raise to abort (dominance and deficit
   checks pay no allocation at all that way). *)
let sweep2 op (p : t) (q : t) =
  let np = nseg p and nq = nseg q in
  let out = scratch_ensure (6 * (np + nq)) in
  let k = ref 0 in
  let run_start = ref 0 and run_rate = ref 0 in
  let ip = ref 0 and inside_p = ref false in
  let iq = ref 0 and inside_q = ref false in
  let next_p () =
    if !ip >= np then max_int
    else if !inside_p then seg_stop p !ip
    else seg_start p !ip
  and next_q () =
    if !iq >= nq then max_int
    else if !inside_q then seg_stop q !iq
    else seg_start q !iq
  in
  let rec go () =
    let t = min (next_p ()) (next_q ()) in
    if t <> max_int then begin
      (* A boundary can close one segment and open the next in the same
         tick (canonical profiles may meet with different rates). *)
      if !ip < np then begin
        if !inside_p && seg_stop p !ip = t then begin
          inside_p := false;
          incr ip
        end;
        if (not !inside_p) && !ip < np && seg_start p !ip = t then
          inside_p := true
      end;
      if !iq < nq then begin
        if !inside_q && seg_stop q !iq = t then begin
          inside_q := false;
          incr iq
        end;
        if (not !inside_q) && !iq < nq && seg_start q !iq = t then
          inside_q := true
      end;
      let rp = if !inside_p then seg_rate p !ip else 0
      and rq = if !inside_q then seg_rate q !iq else 0 in
      let r = op t rp rq in
      if r <> !run_rate then begin
        if !run_rate > 0 then begin
          out.(!k) <- !run_start;
          out.(!k + 1) <- t;
          out.(!k + 2) <- !run_rate;
          k := !k + 3
        end;
        run_start := t;
        run_rate := r
      end;
      go ()
    end
  in
  go ();
  scratch_copy out !k

(* Sum arbitrary (possibly overlapping) rate rectangles by sweeping
   their edges in time order and emitting a segment whenever the
   accumulated rate changes. *)
let of_rectangles rects =
  List.iter
    (fun (_, r) ->
      if r < 0 then invalid_arg "Profile: negative rate rectangle")
    rects;
  match List.filter (fun (_, r) -> r > 0) rects with
  | [] -> empty
  | [ (i, r) ] -> [| Interval.start i; Interval.stop i; r |]
  | rects ->
      let n = List.length rects in
      let times = Array.make (2 * n) 0 and deltas = Array.make (2 * n) 0 in
      List.iteri
        (fun j (i, r) ->
          times.(2 * j) <- Interval.start i;
          deltas.(2 * j) <- r;
          times.((2 * j) + 1) <- Interval.stop i;
          deltas.((2 * j) + 1) <- -r)
        rects;
      let order = Array.init (2 * n) Fun.id in
      Array.sort (fun a b -> Int.compare times.(a) times.(b)) order;
      let out = scratch_ensure (6 * n) in
      let k = ref 0 in
      let run_start = ref 0 and run_rate = ref 0 in
      let cur = ref 0 in
      let m = 2 * n in
      let j = ref 0 in
      while !j < m do
        let t = times.(order.(!j)) in
        while !j < m && times.(order.(!j)) = t do
          cur := !cur + deltas.(order.(!j));
          incr j
        done;
        if !cur <> !run_rate then begin
          if !run_rate > 0 then begin
            out.(!k) <- !run_start;
            out.(!k + 1) <- t;
            out.(!k + 2) <- !run_rate;
            k := !k + 3
          end;
          run_start := t;
          run_rate := !cur
        end
      done;
      scratch_copy out !k

let constant i r =
  if r < 0 then invalid_arg "Profile.constant: negative rate"
  else if r = 0 then empty
  else [| Interval.start i; Interval.stop i; r |]

let of_segments l = of_rectangles l

let rate_at p t =
  (* Binary search for the last segment starting at or before [t]. *)
  let n = nseg p in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if seg_start p mid <= t then lo := mid + 1 else hi := mid
  done;
  let i = !lo - 1 in
  if i >= 0 && t < seg_stop p i then seg_rate p i else 0

let m_add = Rota_obs.Metrics.counter "profile/add"
let m_add_s = Rota_obs.Metrics.histogram "profile/add_s"

let add_raw p q =
  if is_empty p then q
  else if is_empty q then p
  else sweep2 (fun _ rp rq -> rp + rq) p q

let add p q =
  if Rota_obs.Metrics.enabled () then begin
    Rota_obs.Metrics.incr m_add;
    Rota_obs.Metrics.time m_add_s (fun () -> add_raw p q)
  end
  else add_raw p q

(* Pointwise difference; fails on the earliest tick where q exceeds p. *)
let sub p q =
  if is_empty q then Ok p
  else
    match
      sweep2
        (fun t rp rq ->
          if rp < rq then
            raise (Deficit_exn { at = t; available = rp; required = rq })
          else rp - rq)
        p q
    with
    | r -> Ok r
    | exception Deficit_exn d -> Error d

let dominates p q =
  is_empty q
  ||
  match
    sweep2 (fun _ rp rq -> if rp < rq then raise Exit else 0) p q
  with
  | _ -> true
  | exception Exit -> false

(* Pointwise max(p - q, 0): the part of [p] that survives losing [q].
   A deficit clamps to zero instead of failing — the caller is
   modelling capacity being ripped away, not checking a reservation. *)
let sub_clamped p q =
  if is_empty q then p
  else sweep2 (fun _ rp rq -> if rp > rq then rp - rq else 0) p q

(* Pointwise min — the part of [p] that [q] also covers. *)
let meet p q =
  if is_empty p || is_empty q then empty
  else sweep2 (fun _ rp rq -> if rp < rq then rp else rq) p q

let integrate p w =
  let ws = Interval.start w and we = Interval.stop w in
  let n = nseg p in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let lo = max ws (seg_start p i) and hi = min we (seg_stop p i) in
    if hi > lo then acc := !acc + (seg_rate p i * (hi - lo))
  done;
  !acc

let total p =
  let n = nseg p in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + (seg_rate p i * (seg_stop p i - seg_start p i))
  done;
  !acc

let min_rate p w =
  (* The window must be fully covered, otherwise some tick has rate 0. *)
  let we = Interval.stop w in
  let n = nseg p in
  let rec go i t m =
    if t >= we then m
    else if i >= n then 0
    else
      let s = seg_start p i and e = seg_stop p i in
      if e <= t then go (i + 1) t m
      else if s > t then 0
      else go (i + 1) e (min m (seg_rate p i))
  in
  go 0 (Interval.start w) max_int

let max_rate p =
  let n = nseg p in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    if seg_rate p i > !acc then acc := seg_rate p i
  done;
  !acc

let support p =
  Interval_set.of_list
    (List.init (nseg p) (fun i ->
         Interval.of_pair (seg_start p i) (seg_stop p i)))

let restrict p w =
  let ws = Interval.start w and we = Interval.stop w in
  let n = nseg p in
  let out = scratch_ensure (3 * n) in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let lo = max ws (seg_start p i) and hi = min we (seg_stop p i) in
    if hi > lo then begin
      out.(!k) <- lo;
      out.(!k + 1) <- hi;
      out.(!k + 2) <- seg_rate p i;
      k := !k + 3
    end
  done;
  scratch_copy out !k

let truncate_before p t =
  let n = nseg p in
  let out = scratch_ensure (3 * n) in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let lo = max t (seg_start p i) and hi = seg_stop p i in
    if hi > lo then begin
      out.(!k) <- lo;
      out.(!k + 1) <- hi;
      out.(!k + 2) <- seg_rate p i;
      k := !k + 3
    end
  done;
  (* The common advance case expires nothing: hand back the same slab. *)
  if !k = Array.length p && (n = 0 || out.(0) = seg_start p 0) then p
  else scratch_copy out !k

let within p w =
  is_empty p
  || (seg_start p 0 >= Interval.start w
     && seg_stop p (nseg p - 1) <= Interval.stop w)

let shift p d =
  Array.init (Array.length p) (fun idx ->
      if idx mod 3 = 2 then p.(idx) else p.(idx) + d)

let first p = if is_empty p then None else Some (seg_start p 0)

let last p =
  if is_empty p then None else Some (Time.pred (seg_stop p (nseg p - 1)))

let horizon p = if is_empty p then None else Some (seg_stop p (nseg p - 1))

let completion_time p ~window ~quantity =
  if quantity <= 0 then Some (Interval.start window)
  else
    let ws = Interval.start window and we = Interval.stop window in
    let n = nseg p in
    let rec scan todo i =
      if i >= n then None
      else
        let lo = max ws (seg_start p i) and hi = min we (seg_stop p i) in
        if hi <= lo then scan todo (i + 1)
        else
          let r = seg_rate p i in
          let supply = r * (hi - lo) in
          if supply >= todo then
            (* Finishes inside the overlap: ceil(todo / rate) ticks in. *)
            Some (lo + ((todo + r - 1) / r))
          else scan (todo - supply) (i + 1)
    in
    scan quantity 0

let consume p ~window ~quantity =
  if quantity < 0 then invalid_arg "Profile.consume: negative quantity"
  else if quantity = 0 then Some (p, empty)
  else
    (* Walk available capacity inside the window earliest-first, taking
       the full rate of each tick until the last tick takes the
       remainder.  The pieces come out sorted, disjoint, and
       rate-distinct where they meet, so the allocation slab is already
       canonical. *)
    let ws = Interval.start window and we = Interval.stop window in
    let n = nseg p in
    let out = scratch_ensure (3 * (n + 1)) in
    let k = ref 0 in
    let piece lo hi r =
      (* A remainder piece can meet the previous full-rate piece with
         the same rate (todo mod r' = r) — extend instead of appending
         so the allocation slab stays canonical. *)
      if !k > 0 && out.(!k - 2) = lo && out.(!k - 1) = r then
        out.(!k - 2) <- hi
      else begin
        out.(!k) <- lo;
        out.(!k + 1) <- hi;
        out.(!k + 2) <- r;
        k := !k + 3
      end
    in
    let rec take todo i =
      if i >= n then false
      else
        let lo = max ws (seg_start p i) and hi = min we (seg_stop p i) in
        if hi <= lo then take todo (i + 1)
        else
          let r = seg_rate p i in
          let supply = r * (hi - lo) in
          if supply <= todo then begin
            piece lo hi r;
            supply = todo || take (todo - supply) (i + 1)
          end
          else begin
            let full = todo / r and rem = todo mod r in
            if full > 0 then piece lo (lo + full) r;
            if rem > 0 then piece (lo + full) (lo + full + 1) rem;
            true
          end
    in
    if not (take quantity 0) then None
    else
      let allocation = scratch_copy out !k in
      match sub p allocation with
      | Ok remaining -> Some (remaining, allocation)
      | Error _ ->
          (* The allocation was carved out of [p], so subtraction cannot
             fail. *)
          assert false

let of_terms terms =
  of_rectangles (List.map (fun t -> (Term.interval t, Term.rate t)) terms)

let to_terms ~ltype p =
  List.init (nseg p) (fun i ->
      Term.v (seg_rate p i)
        (Interval.of_pair (seg_start p i) (seg_stop p i))
        ltype)

(* Triple order (start, stop, rate) in slab layout order is exactly the
   old per-segment (interval, rate) lexicographic order, with a shorter
   prefix ordering first. *)
let compare (p : t) (q : t) =
  let np = Array.length p and nq = Array.length q in
  let rec go i =
    if i >= np || i >= nq then Int.compare np nq
    else
      let c = Int.compare p.(i) q.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal p q = p == q || compare p q = 0

let pp ppf p =
  match segments p with
  | [] -> Format.pp_print_string ppf "0"
  | segs ->
      let pp_segment ppf s =
        Format.fprintf ppf "%d@%a" s.rate Interval.pp s.interval
      in
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " + ")
        pp_segment ppf segs

let pp_deficit ppf d =
  Format.fprintf ppf "deficit at %a: available %d, required %d" Time.pp d.at
    d.available d.required

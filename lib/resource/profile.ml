open Import

type segment = { interval : Interval.t; rate : int }

(* Flat slab representation: a profile is one int array of
   (start, stop, rate) triples, sorted by start, pairwise disjoint,
   rates >= 1, and no segment meeting the next with the same rate
   (canonical form).  The slab layout keeps the decide/residual hot
   path walking contiguous memory instead of chasing list cells, and
   every binary operation is a single left-to-right merge — no
   boundary lists, no closures, no sort.

   A profile is a view of its slab: the segments from index [off], the
   first of them starting at [head] (at or after its stored start).
   That is what lets [truncate_before] — run on every clock tick over
   every type of the residual — drop and cut the head of a long profile
   in O(log segments) without copying the rest.  Every other operation
   builds a fresh slab with [off = 0]. *)
type t = { slab : int array; off : int; head : int }

type deficit = { at : Time.t; available : int; required : int }

let empty = { slab = [||]; off = 0; head = 0 }
let of_slab a = if Array.length a = 0 then empty else { slab = a; off = 0; head = a.(0) }
let nseg p = (Array.length p.slab - p.off) / 3
let is_empty p = nseg p = 0

let seg_start p i =
  if i = 0 then p.head else Array.unsafe_get p.slab (p.off + (3 * i))

let seg_stop p i = Array.unsafe_get p.slab (p.off + (3 * i) + 1)
let seg_rate p i = Array.unsafe_get p.slab (p.off + (3 * i) + 2)

let segments p =
  List.init (nseg p) (fun i ->
      {
        interval = Interval.of_pair (seg_start p i) (seg_stop p i);
        rate = seg_rate p i;
      })

let unsafe_slab p =
  if p.off = 0 && (is_empty p || p.head = p.slab.(0)) then p.slab
  else begin
    let a = Array.sub p.slab p.off (Array.length p.slab - p.off) in
    a.(0) <- p.head;
    a
  end

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

let scratch_copy out k = if k = 0 then empty else of_slab (Array.sub out 0 k)

(* --- canonical construction ---------------------------------------------- *)

exception Deficit_exn of deficit

(* Index of the first segment ending after [t] / starting at or after
   [t] (both sequences ascend); [nseg p] when there is none. *)
let first_stop_after p t =
  let lo = ref 0 and hi = ref (nseg p) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if seg_stop p mid <= t then lo := mid + 1 else hi := mid
  done;
  !lo

let first_start_from p t =
  let lo = ref 0 and hi = ref (nseg p) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if seg_start p mid < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* Walk the merged boundaries of [p]'s segments [ip0, ip1) and all of
   [q] left to right, applying [op slice_start rate_p rate_q] on every
   elementary slice and coalescing equal-rate neighbours as they are
   emitted into [out] from [!k].  [op] must send (0, 0) to 0 and may
   raise to abort (dominance and deficit checks pay no allocation at
   all that way).  The hottest loop of the library, so it reads the
   slabs directly (segment 0 of a view starts at its [head]) and keeps
   its state in locals the compiler holds in registers. *)
let sweep_into op p ip0 ip1 q out k =
  let ps = p.slab and po = p.off and ph = p.head in
  let qs = q.slab and qo = q.off and qh = q.head and nq = nseg q in
  let ip = ref ip0 and inside_p = ref false in
  let iq = ref 0 and inside_q = ref false in
  let run_start = ref 0 and run_rate = ref 0 and kk = ref !k in
  let running = ref true in
  while !running do
    let next_p =
      if !ip >= ip1 then max_int
      else if !inside_p then Array.unsafe_get ps (po + (3 * !ip) + 1)
      else if !ip = 0 then ph
      else Array.unsafe_get ps (po + (3 * !ip))
    and next_q =
      if !iq >= nq then max_int
      else if !inside_q then Array.unsafe_get qs (qo + (3 * !iq) + 1)
      else if !iq = 0 then qh
      else Array.unsafe_get qs (qo + (3 * !iq))
    in
    let t = if next_p < next_q then next_p else next_q in
    if t = max_int then running := false
    else begin
      (* A boundary can close one segment and open the next in the same
         tick (canonical profiles may meet with different rates). *)
      if !ip < ip1 then begin
        if !inside_p && Array.unsafe_get ps (po + (3 * !ip) + 1) = t then begin
          inside_p := false;
          incr ip
        end;
        if (not !inside_p) && !ip < ip1
           && (if !ip = 0 then ph else Array.unsafe_get ps (po + (3 * !ip))) = t
        then inside_p := true
      end;
      if !iq < nq then begin
        if !inside_q && Array.unsafe_get qs (qo + (3 * !iq) + 1) = t then begin
          inside_q := false;
          incr iq
        end;
        if (not !inside_q) && !iq < nq
           && (if !iq = 0 then qh else Array.unsafe_get qs (qo + (3 * !iq))) = t
        then inside_q := true
      end;
      let rp = if !inside_p then Array.unsafe_get ps (po + (3 * !ip) + 2) else 0
      and rq = if !inside_q then Array.unsafe_get qs (qo + (3 * !iq) + 2) else 0 in
      let r = op t rp rq in
      if r <> !run_rate then begin
        if !run_rate > 0 then begin
          (* Only the first run can meet what [out] already held. *)
          let n = !kk in
          if n > 0 && out.(n - 2) = !run_start && out.(n - 1) = !run_rate then
            out.(n - 2) <- t
          else begin
            out.(n) <- !run_start;
            out.(n + 1) <- t;
            out.(n + 2) <- !run_rate;
            kk := n + 3
          end
        end;
        run_start := t;
        run_rate := r
      end
    end
  done;
  k := !kk

let sweep2 op p q =
  let out = scratch_ensure (6 * (nseg p + nseg q)) in
  let k = ref 0 in
  sweep_into op p 0 (nseg p) q out k;
  scratch_copy out !k

(* [sweep2 op p q] for an [op] that sends (r, 0) to r, in time
   O(log p + q) plus one copy of [p]: the segments of [p] wholly before
   or after [q]'s hull pass through verbatim, and only those that meet
   it are swept.  A small change to a long profile — a reservation
   against a deep residual — costs what it touches. *)
let splice op p q =
  let np = nseg p and nq = nseg q in
  let i0 = first_stop_after p (seg_start q 0)
  and i1 = first_start_from p (seg_stop q (nq - 1)) in
  if i0 = 0 && i1 = np then sweep2 op p q
  else begin
    let mid = scratch_ensure (6 * (i1 - i0 + nq) + 6) in
    let k = ref 0 in
    (* The last segment before the hull seeds the swept part, so a
       result that meets it at its rate coalesces with it. *)
    let keep = if i0 > 0 then i0 - 1 else 0 in
    if i0 > 0 then begin
      mid.(0) <- seg_start p keep;
      mid.(1) <- seg_stop p keep;
      mid.(2) <- seg_rate p keep;
      k := 3
    end;
    sweep_into op p i0 i1 q mid k;
    let i1 =
      if i1 < np && !k > 0
         && mid.(!k - 2) = seg_start p i1
         && mid.(!k - 1) = seg_rate p i1
      then begin
        mid.(!k - 2) <- seg_stop p i1;
        i1 + 1
      end
      else i1
    in
    let pre = 3 * keep and post = 3 * (np - i1) in
    let n = pre + !k + post in
    if n = 0 then empty
    else begin
      let r = Array.make n 0 in
      Array.blit p.slab p.off r 0 pre;
      if pre > 0 then r.(0) <- p.head;
      Array.blit mid 0 r pre !k;
      Array.blit p.slab (p.off + (3 * i1)) r (pre + !k) post;
      if i1 = 0 && post > 0 then r.(!k) <- p.head;
      of_slab r
    end
  end

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
  | [ (i, r) ] -> of_slab [| Interval.start i; Interval.stop i; r |]
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
  else of_slab [| Interval.start i; Interval.stop i; r |]

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
  else if nseg p >= nseg q then splice (fun _ rp rq -> rp + rq) p q
  else splice (fun _ rq rp -> rp + rq) q p

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
      splice
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
    let i0 = first_stop_after p (seg_start q 0)
    and i1 = first_start_from p (seg_stop q (nseg q - 1)) in
    sweep_into
      (fun _ rp rq -> if rp < rq then raise Exit else 0)
      p i0 i1 q (scratch_ensure 0) (ref 0)
  with
  | _ -> true
  | exception Exit -> false

(* Pointwise max(p - q, 0): the part of [p] that survives losing [q].
   A deficit clamps to zero instead of failing — the caller is
   modelling capacity being ripped away, not checking a reservation. *)
let sub_clamped p q =
  if is_empty q then p
  else splice (fun _ rp rq -> if rp > rq then rp - rq else 0) p q

(* Pointwise min — the part of [p] that [q] also covers. *)
let meet p q =
  if is_empty p || is_empty q then empty
  else sweep2 (fun _ rp rq -> if rp < rq then rp else rq) p q

let integrate p w =
  let ws = Interval.start w and we = Interval.stop w in
  let n = nseg p in
  let acc = ref 0 in
  let i = ref (first_stop_after p ws) in
  while !i < n && seg_start p !i < we do
    let lo = max ws (seg_start p !i) and hi = min we (seg_stop p !i) in
    if hi > lo then acc := !acc + (seg_rate p !i * (hi - lo));
    incr i
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
  go (first_stop_after p (Interval.start w)) (Interval.start w) max_int

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
  let i = ref (first_stop_after p ws) in
  while !i < n && seg_start p !i < we do
    let lo = max ws (seg_start p !i) and hi = min we (seg_stop p !i) in
    if hi > lo then begin
      out.(!k) <- lo;
      out.(!k + 1) <- hi;
      out.(!k + 2) <- seg_rate p !i;
      k := !k + 3
    end;
    incr i
  done;
  scratch_copy out !k

(* The common advance case expires nothing and hands back the same
   profile; otherwise the view moves past the expired segments and its
   head to [t] — no copy. *)
let truncate_before p t =
  if p.head >= t || is_empty p then p
  else if seg_stop p 0 > t then { p with head = t }
  else begin
    let i = first_stop_after p t in
    if i = nseg p then empty
    else { p with off = p.off + (3 * i); head = max t (seg_start p i) }
  end

let within p w =
  is_empty p
  || (seg_start p 0 >= Interval.start w
     && seg_stop p (nseg p - 1) <= Interval.stop w)

let shift p d =
  let a = unsafe_slab p in
  of_slab
    (Array.init (Array.length a) (fun idx ->
         if idx mod 3 = 2 then a.(idx) else a.(idx) + d))

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
      if i >= n || seg_start p i >= we then None
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
    scan quantity (first_stop_after p ws)

let allocate p ~window ~quantity =
  if quantity < 0 then invalid_arg "Profile: negative quantity to allocate"
  else if quantity = 0 then Some empty
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
      if i >= n || seg_start p i >= we then false
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
    if not (take quantity (first_stop_after p ws)) then None
    else Some (scratch_copy out !k)

let consume p ~window ~quantity =
  match allocate p ~window ~quantity with
  | None -> None
  | Some allocation -> (
      match sub p allocation with
      | Ok remaining -> Some (remaining, allocation)
      | Error _ ->
          (* The allocation was carved out of [p], so subtraction cannot
             fail. *)
          assert false)

(* --- digest words ------------------------------------------------------------ *)

(* Word-level mixing on native ints (the 64-bit finalizer of MurmurHash3
   with 62-bit constants, wrapping modulo the 63-bit int).  Fixed
   arithmetic, so every build and process computes the same words. *)
let mix x =
  let x = (x lxor (x lsr 32)) * 0x1c69b3f74ac4ae35 in
  let x = (x lxor (x lsr 29)) * 0x3bd39e10cb0ef593 in
  x lxor (x lsr 32)

let segment_hash s e r = mix (mix (mix (s + 0x2545f4914f6cdd1d) + e) + r)

let hash p =
  let h = ref 0 in
  for i = 0 to nseg p - 1 do
    h := !h + segment_hash (seg_start p i) (seg_stop p i) (seg_rate p i)
  done;
  !h

(* [p'] is a truncation of [p]: the same slab, viewed from further on. *)
let hash_expired p p' =
  if is_empty p' then hash p
  else begin
    let dropped = (p'.off - p.off) / 3 in
    let h = ref 0 in
    for i = 0 to dropped - 1 do
      h := !h + segment_hash (seg_start p i) (seg_stop p i) (seg_rate p i)
    done;
    let s = seg_start p dropped in
    if s <> p'.head then begin
      let e = seg_stop p dropped and r = seg_rate p dropped in
      h := !h + segment_hash s e r - segment_hash p'.head e r
    end;
    !h
  end

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
let compare p q =
  let np = nseg p and nq = nseg q in
  let rec go i =
    if i >= np || i >= nq then Int.compare np nq
    else
      let c = Int.compare (seg_start p i) (seg_start q i) in
      if c <> 0 then c
      else
        let c = Int.compare (seg_stop p i) (seg_stop q i) in
        if c <> 0 then c
        else
          let c = Int.compare (seg_rate p i) (seg_rate q i) in
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

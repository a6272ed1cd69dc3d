let on = ref false

let set_enabled b = on := b
let enabled () = !on

(* --- counters ----------------------------------------------------------- *)

type counter = { c_name : string; mutable count : int }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; count = 0 } in
      Hashtbl.replace counters name c;
      c

let incr c = if !on then c.count <- c.count + 1
let add c n = if !on then c.count <- c.count + n
let counter_value c = c.count

(* --- gauges ------------------------------------------------------------- *)

type gauge = { g_name : string; mutable level : int }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let gauge name =
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
      let g = { g_name = name; level = 0 } in
      Hashtbl.replace gauges name g;
      g

let set g v = if !on then g.level <- v
let gauge_value g = g.level

(* --- histograms --------------------------------------------------------- *)

type histogram = {
  h_name : string;
  buckets : float array;  (* strictly ascending upper bounds *)
  cells : int array;  (* length = Array.length buckets + 1 (overflow) *)
  mutable total : int;
  mutable sum : float;
  mutable min_seen : float;
  mutable max_seen : float;
}

let default_buckets =
  [|
    1e-7; 2.5e-7; 5e-7; 1e-6; 2.5e-6; 5e-6; 1e-5; 2.5e-5; 5e-5; 1e-4;
    2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2; 5e-2; 0.1; 0.25; 0.5;
    1.; 2.5; 5.; 10.;
  |]

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram ?buckets name =
  match Hashtbl.find_opt histograms name with
  | Some h ->
      (match buckets with
      | Some b when b <> h.buckets ->
          invalid_arg
            (Printf.sprintf
               "Metrics.histogram: %S re-registered with different buckets"
               name)
      | Some _ | None -> ());
      h
  | None ->
      let buckets = Option.value buckets ~default:default_buckets in
      if Array.length buckets = 0 then
        invalid_arg "Metrics.histogram: empty bucket array";
      Array.iteri
        (fun i b ->
          if i > 0 && buckets.(i - 1) >= b then
            invalid_arg "Metrics.histogram: buckets must be strictly ascending")
        buckets;
      let h =
        {
          h_name = name;
          buckets = Array.copy buckets;
          cells = Array.make (Array.length buckets + 1) 0;
          total = 0;
          sum = 0.;
          min_seen = infinity;
          max_seen = neg_infinity;
        }
      in
      Hashtbl.replace histograms name h;
      h

let bucket_index h v =
  (* First bucket whose upper bound covers [v]; the overflow cell
     otherwise.  Linear scan: bucket arrays are small and the scan only
     runs when recording is on. *)
  let n = Array.length h.buckets in
  let rec find i = if i >= n then n else if v <= h.buckets.(i) then i else find (i + 1) in
  find 0

let observe h v =
  if !on then begin
    let i = bucket_index h v in
    h.cells.(i) <- h.cells.(i) + 1;
    h.total <- h.total + 1;
    h.sum <- h.sum +. v;
    if v < h.min_seen then h.min_seen <- v;
    if v > h.max_seen then h.max_seen <- v
  end

let time h f =
  if not !on then f ()
  else begin
    let t0 = Clock.now () in
    let finally () = observe h (Clock.since t0) in
    Fun.protect ~finally f
  end

let hist_count h = h.total
let hist_sum h = h.sum
let hist_mean h = if h.total = 0 then 0. else h.sum /. float_of_int h.total

let quantile h q =
  if h.total = 0 then 0.
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let rank = q *. float_of_int h.total in
    let n = Array.length h.buckets in
    let rec walk i cum =
      if i > n then h.max_seen
      else
        let here = h.cells.(i) in
        let cum' = cum + here in
        if float_of_int cum' >= rank && here > 0 then
          if i = n then h.max_seen
          else
            let lo = if i = 0 then 0. else h.buckets.(i - 1) in
            let hi = h.buckets.(i) in
            lo +. ((hi -. lo) *. ((rank -. float_of_int cum) /. float_of_int here))
        else walk (i + 1) cum'
    in
    (* rank 0 (q = 0) means "below everything": report the true minimum.
       Estimates are clamped to the observed range so a sparse top bucket
       cannot report a quantile beyond the true maximum. *)
    if rank <= 0. then h.min_seen
    else Float.min (Float.max (walk 0 0) h.min_seen) h.max_seen
  end

(* --- registry ----------------------------------------------------------- *)

type histogram_view = {
  hname : string;
  count : int;
  sum : float;
  mean : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  bucket_counts : (float * int) list;
}

let cumulative_buckets h =
  (* Cumulative counts per declared upper bound, exporter-style: the
     overflow cell is not listed — it is implied by [total] (the +Inf
     bucket). *)
  let cum = ref 0 in
  Array.to_list
    (Array.mapi
       (fun i ub ->
         cum := !cum + h.cells.(i);
         (ub, !cum))
       h.buckets)

type view = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : histogram_view list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  let counters =
    Hashtbl.fold
      (fun name (c : counter) acc -> (name, c.count) :: acc)
      counters []
    |> List.sort by_name
  in
  let gauges =
    Hashtbl.fold (fun name g acc -> (name, g.level) :: acc) gauges []
    |> List.sort by_name
  in
  let histograms =
    Hashtbl.fold
      (fun name h acc ->
        ( name,
          {
            hname = name;
            count = h.total;
            sum = h.sum;
            mean = hist_mean h;
            min_v = (if h.total = 0 then 0. else h.min_seen);
            max_v = (if h.total = 0 then 0. else h.max_seen);
            p50 = quantile h 0.5;
            p90 = quantile h 0.9;
            p95 = quantile h 0.95;
            p99 = quantile h 0.99;
            bucket_counts = cumulative_buckets h;
          } )
        :: acc)
      histograms []
    |> List.sort by_name |> List.map snd
  in
  { counters; gauges; histograms }

let reset () =
  Hashtbl.iter (fun _ (c : counter) -> c.count <- 0) counters;
  Hashtbl.iter (fun _ g -> g.level <- 0) gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.cells 0 (Array.length h.cells) 0;
      h.total <- 0;
      h.sum <- 0.;
      h.min_seen <- infinity;
      h.max_seen <- neg_infinity)
    histograms

(* The registry never reads these fields back except through snapshots;
   keep the names referenced so unused-field warnings stay quiet. *)
let _ = fun (c : counter) -> c.c_name
let _ = fun (g : gauge) -> g.g_name
let _ = fun (h : histogram) -> h.h_name

(* Order statistics over one run's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a sorted array; [nan] when empty. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median xs = quantile (sorted xs) 0.5

(* The highest percentile with at least ten samples beyond it. *)
let p99_ok n = n >= 1000

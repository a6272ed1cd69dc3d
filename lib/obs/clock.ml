(* Monotonic nanoseconds (CLOCK_MONOTONIC through bechamel's stub), and
   the wall time they are anchored to, both read once at start-up. *)
let origin_ns = Monotonic_clock.now ()
let origin_wall = Unix.gettimeofday ()

type t = float

let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin_ns) *. 1e-9
let between t0 t1 = t1 -. t0
let since t0 = between t0 (now ())
let stamp t = origin_wall +. t
let wall_s () = stamp (now ())

(** The one time source: every duration and every telemetry stamp the
    libraries, the CLI and the bechamel benches take is read here, and
    nowhere else ([make clock-lint] checks).

    Simulated time is the engine's tick counter; this clock measures
    what that simulated progress costs in real time.  It is monotonic
    ([CLOCK_MONOTONIC]), so a wall-clock step (NTP) can neither make a
    duration negative nor inflate one.

    Stamps stay epoch-like for offline analysis: a stamp is the wall
    time at process start plus the monotonic time elapsed since, so all
    the stamps of one process lie on one time line that never runs
    backwards. *)

type t
(** One monotonic reading. *)

val now : unit -> t

val between : t -> t -> float
(** [between t0 t1] — seconds from reading [t0] to reading [t1]. *)

val since : t -> float
(** [since t0 = between t0 (now ())]. *)

val stamp : t -> float
(** A reading as epoch-like seconds: process-start wall time plus the
    monotonic time elapsed up to the reading.  The [wall_s] of events
    and the [begin_s] of spans. *)

val wall_s : unit -> float
(** [stamp (now ())]. *)

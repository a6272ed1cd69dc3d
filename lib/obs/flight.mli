(** Crash flight recorder: a bounded in-memory ring of the most recent
    trace events, dumpable as a valid standalone ROTB file.

    The serve daemon tees every telemetry event through {!record}; each
    event is binary-encoded {e immediately} (so a later dump costs no
    encoding of live state and cannot fail on it) and the ring keeps the
    last [capacity] encoded records.  On a watchdog trip, a shed storm,
    a fatal error, or SIGQUIT, {!dump} writes them out as a file that
    [rota trace validate] accepts — the last seconds of the daemon's
    life, readable with every existing trace tool.

    To make an arbitrary suffix of a longer stream self-consistent, the
    ring restamps: events get fresh contiguous [seq] numbers at record
    time, and {!dump} drops span parent links that point outside the
    retained window (the parent record was evicted) or to a span whose
    interval does not contain the child's, clamps a negative span
    duration to 0, and clamps any backward simulated-time step within a
    run (the run's earlier records may be gone, so monotonicity is
    re-established locally). *)

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity in events (default 4096).  Raises [Invalid_argument]
    when [capacity < 1]. *)

val record : t -> Events.t -> unit
(** Encode the event and append it to the ring, evicting the oldest
    record when full.  The stored copy gets the ring's own [seq]
    numbering; everything else is kept verbatim. *)

val recorded : t -> int
(** Events currently retained (at most the capacity). *)

val sink : t -> Sink.t
(** A {!Sink} view of the ring ([emit] = {!record}, [close] = no-op) —
    for composing with [Sink.tee]. *)

val dump : t -> string -> (int, string) result
(** Write the retained events to [path] as a complete binary trace
    (header + records), oldest first, atomically (temp file + rename).
    Returns the number of events written.  A valid — possibly empty —
    trace results even if the recorded stream was arbitrary. *)

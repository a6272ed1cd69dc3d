(** Event sinks: where emitted telemetry goes.

    A sink is just an [emit] function plus a [close].  The {!Tracer}
    holds at most one installed sink; composition (console + file, say)
    is done with {!tee} rather than by the tracer itself. *)

type t = { emit : Events.t -> unit; close : unit -> unit }

val make : emit:(Events.t -> unit) -> close:(unit -> unit) -> t

val null : t
(** Drops everything. *)

val memory : unit -> t * (unit -> Events.t list)
(** An in-memory sink and a function returning everything captured so
    far, in emission order.  [close] is a no-op. *)

val jsonl : ?flush_every:int -> out_channel -> t
(** One JSON object per line.  [close] flushes but does {e not} close
    the channel (the caller owns it).  [flush_every] (default 1) is the
    number of lines buffered between flushes: 1 pays a flush syscall per
    event but survives interruption with every completed event on disk;
    larger values amortize the syscall for high-rate tracing (see the
    [e7/obs-overhead] bench group) at the cost of losing up to that many
    trailing events on a crash.  Raises [Invalid_argument] when
    [flush_every < 1]. *)

val jsonl_file : ?flush_every:int -> string -> t
(** Opens (truncating) [path]; [close] flushes and closes the file and
    is idempotent.  The sink also registers an [at_exit] flush+close,
    so even when the process unwinds without closing (a teed sink
    raising out of a run, a fatal exit) the buffered tail reaches disk
    and the trace stays [rota trace validate]-clean. *)

val binary : ?flush_every:int -> out_channel -> t
(** The compact binary format ({!Binary}): writes the 5-byte header
    immediately, then one length-prefixed record per event.  Flushing
    and ownership semantics are exactly {!jsonl}'s.  Note that unlike
    JSONL, a crash can cut a {e record} (not just a line): the readers
    report the dangling tail as truncation and keep every record before
    it. *)

val binary_file : ?flush_every:int -> string -> t
(** {!binary} over a file it opens (truncating) and owns, with the same
    idempotent-[close]-plus-[at_exit] crash safety as {!jsonl_file}. *)

val console : Format.formatter -> t
(** Human-readable, one event per line via {!Events.pp}.  Span and
    metric-sample events are skipped — on a console they interleave
    confusingly with the simulated-time story.  [close] flushes. *)

val tee : t -> t -> t
(** Sends every event to both sinks; [close] closes both. *)

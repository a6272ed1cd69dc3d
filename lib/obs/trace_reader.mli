(** Streaming trace reader and validator — the consume side of the
    telemetry layer.

    Traces are read a line at a time, so a multi-gigabyte trace never
    has to fit in memory ({!fold_file}); {!read_file} is the convenience
    wrapper for workloads that do fit.  Blank lines are tolerated, and a
    crash-interrupted trace (final line cut mid-write, no trailing
    newline) yields everything up to the cut plus a structured
    {!Truncated} note rather than a parse error.  {!Follow} tails a
    trace that is still being written.

    Both wire formats are accepted transparently: a file starting with
    the {!Binary.magic} bytes is read through the binary codec, with
    1-based {e record} ordinals standing in for line numbers and a
    crash-cut final record reported as the {!Truncated} tail, exactly
    like a JSONL line missing its newline.  {!Follow} tails both
    formats too: a binary cursor delivers each record as its last byte
    lands, buffering (by seek) a record cut mid-write. *)

type error = { line : int; message : string }
(** [line] is 1-based; 0 means the file itself could not be opened. *)

val pp_error : Format.formatter -> error -> unit

(** How the file ended.  [Truncated] means the final line lacked its
    newline and did not parse — a write cut short by a crash; [bytes]
    is the length of the dangling fragment.  Every complete line before
    it was still delivered.  A {e terminated} malformed line (final or
    not) is an {!error}, not a truncation: its writer finished it that
    way. *)
type tail = Complete | Truncated of { line : int; bytes : int }

val pp_tail : Format.formatter -> tail -> unit

val fold_file :
  ?strict:bool ->
  string ->
  init:'a ->
  f:('a -> Events.t -> 'a) ->
  ('a * tail, error) result
(** Fold [f] over every event in the file, in file order, stopping at
    the first malformed line.  [strict] is {!Events.of_line}'s flag
    (default lenient: unknown kinds become {!Events.Unknown}).  An
    unterminated final line is parsed if possible (losing nothing) and
    otherwise reported as the [tail]. *)

val read_file :
  ?strict:bool -> string -> (Events.t list * tail, error) result
(** All events, in file order. *)

(** {1 Following a growing trace}

    The primitive behind [rota audit --follow]: an incremental cursor
    over a file another process is appending to. *)

module Follow : sig
  type cursor

  val open_file : ?strict:bool -> string -> (cursor, error) result
  (** Open [path] for tailing, positioned at the start.  [strict] as in
      {!fold_file}.  Both wire formats are accepted: the ROTB magic
      selects the binary record reader, anything else is tailed as
      JSONL.  A file still shorter than the binary header (a writer
      caught mid-open, or an empty file about to grow) stays
      format-undetected until enough bytes land to tell. *)

  val poll : cursor -> (Events.t list, error) result
  (** Every event whose line (JSONL) or length-prefixed record (binary)
      has been {e completed} since the last poll, in file order; [[]]
      when nothing new arrived.  A partial final line or record is
      buffered, never parsed — it resumes when its remaining bytes
      land, so polling mid-write cannot misread a fragment.  A
      malformed complete line or record is an error and the cursor
      should be abandoned. *)

  val pending_bytes : cursor -> int
  (** Bytes of the unterminated final line (JSONL) or cut final record
      (binary) currently buffered — nonzero while the writer is
      mid-write (or crashed there). *)

  val close : cursor -> unit
end

(** {1 Validation}

    The trace contract, checked by [rota trace validate]:
    every line parses strictly (no unknown kinds) and round-trips
    through the codec — the {e same} codec the file was written with,
    so a binary trace is checked against the binary round-trip; [seq]
    is strictly increasing across the file;
    within each run the non-span simulated times are nondecreasing;
    nonzero span ids are unique and every span's [parent] id resolves
    to a span in the file; no span has a negative [duration_s], and
    every span's interval lies within its parent's, to 1 µs.  A truncated final line is reported as a
    violation (the trace is crash-cut, even though {!fold_file} can
    still use it). *)

type validation = {
  events : int;  (** Events successfully parsed. *)
  runs : int;  (** [run-started] records seen. *)
  errors : string list;  (** Human-readable violations; empty = valid. *)
}

val valid : validation -> bool

val validate_file : ?max_errors:int -> string -> validation
(** Check the whole file, never raising: unreadable files and malformed
    lines are reported as errors.  At most [max_errors] (default 20)
    messages are kept, with a final count of any suppressed beyond
    that. *)

(** Streaming trace reader and validator — the consume side of the
    telemetry layer.

    Every recorded stream — trace files, [rota top], [rota audit
    --follow], the serve daemon's WAL — is read through one {!Cursor},
    one record at a time, in either wire format: newline-terminated
    JSONL or length-prefixed ROTB (files starting with {!Binary.magic}).
    One crash-cut rule holds for both: a record is complete once its
    newline, or the last byte its length prefix promises, is on disk.
    An incomplete final record is reported, never consumed, so a reader
    racing the writer resumes it once the rest lands.  Line numbers are
    1-based line ordinals for JSONL and record ordinals for ROTB. *)

type error = { line : int; message : string }
(** [line] is 1-based; 0 means the file could not be opened or its ROTB
    header is bad. *)

val pp_error : Format.formatter -> error -> unit

(** How the file ended.  [Truncated] means the final record was cut
    short by a crash (a JSONL line that also fails to parse without its
    newline); [bytes] is the length of the dangling fragment, and every
    complete record before it was delivered.  A {e complete} malformed
    record is an {!error}: its writer finished it that way. *)
type tail = Complete | Truncated of { line : int; bytes : int }

val pp_tail : Format.formatter -> tail -> unit

(** {1 The cursor} *)

type format = Jsonl | Rotb

type item =
  | Event of Events.t  (** A complete record, decoded leniently. *)
  | End  (** The bytes on disk end on a record boundary. *)
  | Cut of int
      (** The bytes on disk end this many bytes into an incomplete
          record (for a file shorter than the ROTB header whose bytes
          are a prefix of it, the whole file). *)
  | Malformed of string
      (** A complete record that does not decode.  The next JSONL line
          is still framed; nothing past a malformed ROTB record is. *)

module Cursor : sig
  type t

  val open_file : string -> (t, error) result
  (** Open at the first record.  The format is detected here from the
      first bytes (the ROTB header is checked too), unless they are
      still a prefix of the ROTB header: then on a later {!next}. *)

  val next : t -> item
  (** After {!End} or {!Cut} nothing was consumed: once more bytes are
      appended, [next] resumes there.  Blank JSONL lines are skipped. *)

  val format : t -> format option
  (** [None] while undetected. *)

  val finish : ?strict:bool -> t -> item
  (** After {!next} returned [Cut], read the fragment as the file's
      last record: {!End} when it is blank, the [Event] when it is a
      JSONL line missing only its newline (parsed strictly with
      [~strict:true]), else the same [Cut]. *)

  val ordinal : t -> int
  (** The ordinal of the record the last {!next} returned, or (after
      {!End} or {!Cut}) of the one it waits for; 0 after a bad ROTB
      header. *)

  val offset : t -> int
  (** Byte offset just past the last complete record. *)

  val close : t -> unit
end

val fold_file :
  string -> init:'a -> f:('a -> Events.t -> 'a) -> ('a * tail, error) result
(** Fold [f] over every event in file order, stopping at the first
    malformed record.  A final JSONL line missing only its newline is
    kept; any other cut is the [tail]. *)

val read_file : string -> (Events.t list * tail, error) result
(** All events, in file order. *)

(** {1 Following a growing trace} *)

module Follow : sig
  val poll : Cursor.t -> (Events.t list, error) result
  (** Every event completed since the last poll, in file order; [[]]
      when nothing new arrived.  After an error, abandon the cursor. *)

  val pending_bytes : Cursor.t -> int
  (** Bytes of the incomplete final record at the last poll: nonzero
      while the writer is mid-write (or crashed there). *)
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
    every span's interval lies within its parent's, to 1 µs.  A
    truncated final line or record is reported as a violation (the
    trace is crash-cut, even though {!fold_file} can still use it). *)

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

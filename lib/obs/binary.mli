(** Compact binary trace codec — the length-prefixed alternative to the
    JSONL wire format, selected by [--trace-format=binary].

    A binary trace is a 5-byte header ({!magic} + a version byte) followed
    by one length-prefixed record per event.  Integers are LEB128
    varints (zigzag-mapped where signed), floats the 8 little-endian
    bytes of [Int64.bits_of_float], and structured JSON payload fields
    are embedded as compact JSON strings — reusing the JSONL codec's
    exact round-trip contract.  Full record layout:
    doc/observability.md.

    {!Trace_reader.Cursor} detects the format by the magic, so every
    reading tool accepts both; [rota trace convert] rewrites a binary
    trace as JSONL. *)

val magic : string
(** ["ROTB"] — the first four bytes of every binary trace. *)

val version : int
(** The format version this build writes and reads. *)

val header : string
(** {!magic} followed by the {!version} byte; what {!read_header}
    expects and the binary sink writes first. *)

(** {1 Encoding} *)

val encode : Buffer.t -> Events.t -> unit
(** Append one length-prefixed record to the buffer. *)

(** {1 Decoding} *)

val decode_string : string -> pos:int -> (Events.t * int, string) result
(** Decode the length-prefixed record starting at [pos]; on success also
    returns the offset just past it, so records can be walked in
    sequence.  Never raises: corruption (overrunning lengths, bad tag
    bytes, trailing garbage inside a record) comes back as [Error]. *)

val roundtrip : Events.t -> (Events.t, string) result
(** Encode then decode one event — the codec contract checked by
    [rota trace validate] on binary traces. *)

(** One step of a record-at-a-time reader, distinguishing a clean end
    from a crash-cut final record and from corruption. *)
type item =
  | Event of Events.t  (** A complete, well-formed record. *)
  | Eof  (** The stream ended exactly on a record boundary. *)
  | Cut of int
      (** The stream ended mid-record; the payload is the number of
          dangling bytes (length prefix included) — the binary analogue
          of a JSONL line missing its newline. *)
  | Malformed of string
      (** A complete record that does not decode. *)

val read_header : in_channel -> (unit, string) result
(** Consume and check the 5-byte file header. *)

val read_item : in_channel -> item
(** Read the next record.  After anything but [Event] the channel
    position is unspecified.  These two are the primitives under
    {!Trace_reader.Cursor}, which adds the crash-cut rule (a [Cut]
    record is re-read once complete) and format detection; read traces
    through it. *)

open Import

(** Durability for the serve daemon: a write-ahead log in the ROTB
    binary trace format, plus digest-stamped snapshots.

    The WAL {e is} a trace — [run-started] header, then the exact event
    records {!Replica.apply} produces — so every trace tool works on it
    unchanged: [rota audit] re-verifies each logged decision, [rota
    trace tail -f] follows it live.  Durability and auditability are the
    same file.

    Recovery ({!recover}) rebuilds state as: load the newest usable
    snapshot (falling back to a full replay when it is missing, corrupt,
    or for another policy — a snapshot is an optimization, never a
    source of truth), replay the WAL records past it, and cross-check by
    running the {e whole} WAL through the independent {!Live} auditor:
    the recovered controller's residual digest must equal the digest the
    auditor reconstructs from the stream, or recovery fails.  The WAL is
    read through {!Trace_reader.Cursor}, with its crash-cut rule: a
    record cut mid-write by a crash (a [Cut]) is truncated away — it was
    never acknowledged, write-ahead means its reply was never sent — but
    a complete record that does not decode is corruption and fails
    recovery rather than being skipped.  A WAL with no complete record
    at all (empty, or cut inside its header or its [run-started]) holds
    nothing acknowledged either, and starts fresh — unless a snapshot
    lies beside it: a snapshot is saved only after a sync, so it proves
    acknowledged records were lost, and recovery refuses. *)

val wal_path : dir:string -> string
(** [dir ^ "/wal.rotb"]. *)

val snapshot_path : dir:string -> string
(** [dir ^ "/snapshot.json"]. *)

(** {2 The writer} *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, however many writes it takes. *)

type writer

val append : writer -> sim:Time.t -> Events.payload list -> Events.t list
(** Stamp (monotonic [seq], [run = 1], the given simulated time) and
    buffer the records, returning the stamped events in order — exactly
    what the WAL will hold, so the daemon can tee the same records to
    the live watchdog and the flight recorder without re-stamping.
    Nothing is durable until {!sync}. *)

val sync : writer -> unit
(** Flush buffered records and [fsync].  Replies for the appended
    requests may be sent only after this returns. *)

val seq : writer -> int
(** Sequence number of the last stamped record. *)

val buffered : writer -> int
(** Bytes appended but not yet {!sync}ed — the size of the next sync's
    write, which is what the [server/wal_bytes] counter accumulates. *)

val offset : writer -> int
(** Durable file length, bytes — what the last {!sync} guaranteed. *)

val close : writer -> unit
(** {!sync} then close the descriptor. *)

(** {2 Snapshots} *)

val save_snapshot : path:string -> writer -> Replica.t -> (unit, string) result
(** Atomically (write-temp, fsync, rename) record the replica together
    with the writer's current [seq]/[offset], so recovery knows which
    WAL suffix the snapshot already covers. *)

(** {2 Recovery} *)

type recovery = {
  replica : Replica.t;
  writer : writer;  (** Positioned after the last complete record. *)
  from_snapshot : bool;
  scanned : int;  (** WAL records read (snapshot-covered ones included). *)
  replayed : int;  (** Records replayed into the replica. *)
  truncated : int;  (** Dangling bytes cut from an interrupted tail. *)
  verified : int;  (** Auditor-verified decisions in the stream. *)
  diverged : int;
  digest : string;  (** The agreed residual digest. *)
  live : Live.t;
      (** The independent auditor, stepped over the whole WAL (the
          [run-started] record of a fresh one): the reconstruction the
          recovered state was checked against.  A live watchdog built
          on it ([Watchdog.create ~live]) continues auditing from the
          recovered state instead of from an empty ledger. *)
}

val recover :
  ?cost_model:Cost_model.t ->
  dir:string ->
  policy:Admission.policy ->
  unit ->
  (recovery, string) result
(** Bring up a replica in [dir], writing a fresh WAL (header +
    [run-started]) when none exists or the existing one holds no
    complete record.  Fails — refusing to serve — when such a WAL has a
    snapshot beside it (the error names the snapshot's [seq] and
    [wal_offset]; the file is kept), the WAL is not ROTB or is for
    another policy, a complete record is corrupt or unreplayable, or the
    recovered residual digest disagrees with the auditor's
    reconstruction of the same stream. *)

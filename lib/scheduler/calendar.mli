open Import

(** The commitment ledger.

    A calendar tracks the system's capacity (all acquired resources, as a
    resource set over time) and the reservations committed to admitted
    computations.  Its {!residual} — capacity minus commitments — is
    exactly the paper's "resources which will expire unless new
    computations requiring them enter the system": the availability that
    Theorem 4 lets a new computation claim without disturbing anyone.

    The ledger is incremental: entries live in a map keyed by computation
    id, and the committed/residual sets are caches updated by one
    resource-set operation per {!commit}, {!release}, {!add_capacity},
    {!remove_capacity} and {!advance} — never by re-folding all entries.
    The admission decision path is therefore O(log n) in the number of
    committed computations (plus the size of the sets involved), instead
    of O(n).  {!self_check} recomputes both caches from scratch and
    compares, guarding against silent drift.

    Time is lazy: {!advance} truncates only capacity and the two caches.
    Entries keep the reservations they were committed with, and every
    read of one ({!entries}, {!find}, {!release}, {!revoke},
    {!self_check}, {!snapshot}) cuts it at the latest advance — the
    {e in-force} part, exactly what an eagerly truncated entry would
    hold.  An advance therefore costs O(residual types), not O(live
    commitments). *)

type entry = {
  computation : string;
  window : Interval.t;
  reservation : Resource_set.t;
      (** Exactly which resources, and when, this computation will use. *)
  schedules : (Actor_name.t * Accommodation.schedule) list;
      (** The per-actor certificates behind the reservation. *)
}

type t

val create : Resource_set.t -> t

val capacity : t -> Resource_set.t

val entries : t -> entry list
(** Live entries, in computation-id order, each reservation in force. *)

val size : t -> int
(** Number of live entries — the ledger's telemetry size. *)

val committed : t -> Resource_set.t
(** Union of all reservations (cached; O(1)). *)

val residual : t -> Resource_set.t
(** Capacity minus commitments — the expiring resources offered to new
    computations (cached; O(1)).  An invariant of {!commit} is that this
    is always well-defined (commitments never exceed capacity). *)

val commit : t -> entry -> (t, string) result
(** Adds an entry; fails when its reservation is not covered by the current
    residual (which would disturb existing commitments), or when the id is
    already committed. *)

val release : t -> computation:string -> t
(** Drops a computation's entry (on completion, cancellation or deadline
    kill); its unused reservation returns to the residual.  Unknown ids are
    ignored. *)

val find : t -> computation:string -> entry option
(** The live entry, its reservation in force. *)

val mem : t -> computation:string -> bool
(** Whether the id is live — {!find} without cutting the reservation. *)

val add_capacity : t -> Resource_set.t -> t
(** Resources joining the system, cut at the latest {!advance}: the
    ledger holds nothing from before its clock. *)

val remove_capacity : t -> Resource_set.t -> (t, string) result
(** Withdraws capacity — used when delegating a slice to a child
    encapsulation (see [Pool]).  Fails when the slice is not covered by
    the {e residual} (committed resources cannot be withdrawn). *)

val revoke : t -> Resource_set.t -> t * entry list
(** Forcibly withdraws a capacity slice that never announced its leave —
    the fault-model counterpart of {!remove_capacity}.  Capacity shrinks
    by the clamped difference (total, unlike {!remove_capacity}); entries
    whose reservations no longer fit on the shrunk capacity are {e
    evicted} and returned (in id order) for the repair ladder.  Kept
    entries are untouched — their reservations still hold, so the
    computations behind them run exactly as committed (non-interference,
    Theorem 4). *)

val advance : t -> Time.t -> t
(** Expires capacity and reservations strictly before the given tick (a
    tick at or before the latest advance changes nothing).  Entries are
    cut when read, not here. *)

val committed_quantity : t -> Located_type.t -> Interval.t -> int

val capacity_quantity : t -> Located_type.t -> Interval.t -> int

val self_check : t -> (unit, string) result
(** Recomputes the committed and residual sets from the entries and
    compares them against the caches; [Error] describes the first drift
    found.  Cheap enough for tests, too slow for production ledgers. *)

val set_self_check : bool -> unit
(** When enabled, every mutating operation runs {!self_check} on its
    result and raises [Invalid_argument] on drift.  Defaults to the
    [ROTA_CHECK_CALENDAR] environment variable (any value other than
    empty, ["0"] or ["false"] enables it); tests turn it on explicitly. *)

val pp : Format.formatter -> t -> unit

(** {2 Snapshots}

    The ledger's durable form: capacity and every live entry (window,
    reservation and schedules, serialized through the certificate
    codec's rectangle lists).  Used by the serve daemon's digest-stamped
    state snapshots; the committed/residual caches are not stored — they
    are rebuilt by re-committing each entry, so restoring re-runs the
    same validation as admission and a corrupt snapshot is rejected
    rather than trusted. *)

val snapshot : t -> Rota_obs.Json.t

val restore : Rota_obs.Json.t -> (t, string) result
(** Accepts exactly what {!snapshot} produces. *)

(**/**)

val with_caches_unchecked :
  t -> committed:Resource_set.t -> residual:Resource_set.t -> t
(** Test-only: overwrites the committed/residual caches {e without} any
    consistency check, to simulate cache drift when exercising the
    invariant-violation reports.  Never call this outside tests. *)

(**/**)

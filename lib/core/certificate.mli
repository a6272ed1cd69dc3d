open Import

(** Decision certificates: serializable evidence for Theorem 1–4 verdicts.

    Every admission-control decision — admit, reject, evict, repair —
    is backed by something the decider actually checked: a schedule with
    breakpoints (Theorems 2/3/4), an aggregate feasibility table
    (Theorem 1, the order-blind baseline), or an explicit record that
    nothing was checked (the optimistic baseline, stale arrivals,
    duplicates).  A certificate packages that evidence together with a
    digest of the residual resource set it was checked against, in a
    JSON-serializable form that travels inside the trace.

    The point of the exercise is the checker-vs-decider split: the
    offline auditor ([Rota_audit]) re-verifies certificates with
    {!well_formed}/{!verify}, which go through the independent
    {!Accommodation.check_schedule} validator — never through the greedy
    decision procedures that produced the schedule in the first place.
    A decider bug that emits an invalid schedule is caught even when
    every unit test of the decider passes. *)

type theorem =
  | T1  (** Single action / aggregate feasibility ([f(Theta, rho)]). *)
  | T2  (** Sequential accommodation via breakpoints. *)
  | T3  (** Meet deadline (repair re-admission). *)
  | T4  (** Accommodate one more against the residual. *)
  | Unchecked
      (** No theorem was consulted (optimistic baseline, stale
          arrivals, duplicate ids). *)

type rect = { ltype : Located_type.t; interval : Interval.t; rate : int }
(** One profile rectangle: [rate] units of [ltype] throughout
    [interval].  Resource sets serialize as rectangle lists (the
    canonical segment decomposition). *)

type step = {
  index : int;  (** Position in the complex requirement. *)
  need : (Located_type.t * int) list;
      (** The step's required amounts (the spec side). *)
  subwindow : Interval.t;  (** Where the step executes. *)
  allocation : rect list;  (** Exactly what it consumes, and when. *)
}

type part = {
  actor : string;
  window : Interval.t;
  breakpoints : Time.t list;
      (** Interior breakpoints [t_1 < ... < t_{m-1}] (Theorem 2). *)
  steps : step list;
}
(** One actor's scheduled complex requirement. *)

type row = {
  row_type : Located_type.t;
  demand : int;
  capacity : int;
  committed : int;
}
(** One line of the aggregate baseline's feasibility table: demand fits
    iff [demand <= capacity - committed] within the window. *)

type evidence =
  | Schedules of part list
      (** Constructive admit evidence: per-actor schedules, validated by
          {!Accommodation.check_schedule}. *)
  | Infeasible
      (** Reject: no schedule exists against the digested residual.  The
          digest pins {e which} residual the decider searched. *)
  | Aggregate_fit of { window : Interval.t; rows : row list; fits : bool }
      (** The order-blind check the aggregate baseline actually ran. *)
  | Optimistic_fit of {
      window : Interval.t;
      totals : (Located_type.t * int) list;
    }
      (** The optimistic baseline admitted on demand totals alone. *)
  | Stale of { deadline : Time.t }
      (** Rejected because the deadline had already passed on arrival. *)
  | Duplicate  (** Rejected because the id was already committed. *)

type t = {
  theorem : theorem;
  digest : string;
      (** {!digest} of the residual resource set the decision was
          checked against; [""] when no resource state was consulted. *)
  evidence : evidence;
}

(** {1 Digests} *)

val digest : Resource_set.t -> string
(** The residual digest every writer emits, version 2: ["v2:"] and 16
    hex digits of {!Resource_set.hash}.  Per located type in ascending
    order, the type's name hash plus one mixed word per canonical
    segment (start, stop, rate), combined in type order; deterministic
    across processes and builds, so an offline reader can recompute it
    from a reconstructed resource set.  The per-type parts are cached
    beside the profiles, so a residual derived from a digested one
    costs O(types) plus the segments the derivation changed.  Each call
    is timed into the [certificate/digest_s] histogram. *)

val digest_v1 : Resource_set.t -> string
(** Version 1, a bare 16-hex string, kept only to verify records written
    before version 2: 64-bit FNV-1a over the canonical segment
    decomposition — per located type in ascending order, the bytes of
    {!Located_type.to_string} and a 0 terminator, then the eight
    little-endian bytes of each segment's start, stop and rate.
    O(terms). *)

val digest_like : string -> Resource_set.t -> string
(** [digest_like recorded set] digests [set] in the version [recorded]
    was written in: {!digest_v1} for a bare 16-hex string, {!digest}
    otherwise.  Every verifier compares a recorded digest through this,
    so a record written by either version re-verifies. *)

(** {1 Construction (decider side)} *)

val of_schedules :
  theorem:theorem ->
  residual:Resource_set.t ->
  (Actor_name.t * Requirement.complex * Accommodation.schedule) list ->
  t
(** Admit evidence from the decider's own schedules, one triple per
    actor/part.  Raises [Invalid_argument] if a schedule's steps do not
    align with its requirement's steps (a decider bug by definition). *)

val of_committed :
  theorem:theorem ->
  residual:Resource_set.t ->
  (Actor_name.t * Accommodation.schedule) list ->
  t
(** Like {!of_schedules} when the original requirement is no longer at
    hand (calendar evictions): each step's needs are derived from its
    allocation's integrals, so the certificate records what the
    commitment was actually consuming.  [residual] is the post-decision
    residual (for evictions: what remained after the revocation). *)

val infeasible : residual:Resource_set.t -> t
val stale : deadline:Time.t -> t
val duplicate : t

val aggregate :
  residual:Resource_set.t -> window:Interval.t -> rows:row list -> t
(** Theorem-1 table evidence; [fits] is derived from the rows. *)

val rows_fit : row list -> bool
(** [true] iff every row's demand fits ([demand <= capacity -
    committed]) — the aggregate baseline's actual criterion, shared so
    decider and certificate cannot disagree on it. *)

val optimistic :
  window:Interval.t -> totals:(Located_type.t * int) list -> t

(** {1 Verification (checker side)} *)

val reservation : t -> Resource_set.t
(** Union of all part allocations ({!Resource_set.empty} for
    non-schedule evidence) — what the decision committed. *)

val well_formed : t -> (unit, string) result
(** Internal consistency, checkable without any external state: every
    part's steps rebuild into a schedule that
    {!Accommodation.check_schedule} accepts against its own requirement
    (tiling subwindows, in-window allocations, covered amounts), and an
    aggregate table's verdict matches its rows. *)

val verify : residual:Resource_set.t -> t -> (unit, string) result
(** {!well_formed}, plus the external checks: the digest matches
    [residual] in the certificate's own digest version (when it carries
    one), and schedule evidence
    is dominated by [residual] — i.e. the admission really fit the
    resources that were free. *)

(** {1 Serialization} *)

val to_json : t -> Rota_obs.Json.t
val of_json : Rota_obs.Json.t -> (t, string) result
(** Accepts exactly what {!to_json} produces; validates shapes
    (non-empty intervals, non-negative rates and quantities) so a
    corrupted certificate fails here rather than deep inside
    verification. *)

val rects_of_set : Resource_set.t -> rect list
val set_of_rects : rect list -> Resource_set.t
val rects_to_json : rect list -> Rota_obs.Json.t
val rects_of_json : Rota_obs.Json.t -> (rect list, string) result
(** Rectangle lists double as the wire form of resource slices outside
    certificates (capacity joins, fault terms). *)

val ltype_to_json : Located_type.t -> Rota_obs.Json.t
val ltype_of_json : Rota_obs.Json.t -> (Located_type.t, string) result
val interval_to_json : Interval.t -> Rota_obs.Json.t
val interval_of_json : Rota_obs.Json.t -> (Interval.t, string) result
(** The primitive codecs under {!rects_of_json}, exposed on their own so
    state snapshots (admission ledger, demand records) serialize located
    types and windows in exactly the certificate wire form. *)

val schedules_of_parts : t -> (Actor_name.t * Accommodation.schedule) list
(** Rebuilds the per-actor schedules recorded in [Schedules] evidence
    ([[]] for any other evidence) — the inverse of {!of_committed}'s
    serialization, so a commitment can be re-installed into a ledger
    from its own certificate alone (WAL replay, snapshot restore). *)

val theorem_name : theorem -> string
(** ["T1"] ... ["T4"], ["unchecked"]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human rendering: theorem, digest, and the evidence with
    its breakpoint timeline — the heart of [rota explain]. *)

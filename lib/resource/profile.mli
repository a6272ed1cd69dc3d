open Import

(** Availability profiles: the simplified form of same-type resource terms.

    The paper's simplification rule aggregates resource terms of identical
    located type over the sub-intervals where they coexist (rates add) and
    keeps the remaining sub-intervals separate.  Iterating that rule over
    any multiset of same-type terms yields a canonical {b step function}
    from time to availability rate, which is what this module represents: a
    sorted sequence of disjoint segments (stored flat, as an int-array
    slab), each an interval with a positive rate, with no two adjacent
    segments of equal rate (those coalesce — the
    paper's "resource terms can reduce in number if two identical located
    type resources with identical rates have time intervals that meet").

    A profile covers a {e single} located type; {!Resource_set} maps located
    types to profiles.  All operations preserve canonical form, so
    {!equal} is pointwise equality of the step functions (polymorphic
    equality is not: a truncated profile is a view of a longer slab). *)

type t
(** A step function from ticks to non-negative rates, zero outside finitely
    many segments. *)

type segment = { interval : Interval.t; rate : int }
(** One maximal run of constant positive rate. *)

val empty : t
(** The everywhere-zero profile (the null resource). *)

val is_empty : t -> bool

val constant : Interval.t -> int -> t
(** [constant i r] has rate [r] on [i] and [0] elsewhere.  [r = 0] gives
    {!empty}; negative [r] raises [Invalid_argument]. *)

val of_segments : (Interval.t * int) list -> t
(** Builds the pointwise {b sum} of the given rectangles — the paper's
    union-with-simplification of a multiset of same-type terms.  Overlapping
    rectangles add their rates.  Raises [Invalid_argument] on a negative
    rate. *)

val segments : t -> segment list
(** Canonical decomposition, leftmost first. *)

val unsafe_slab : t -> int array
(** The canonical segments as flat [(start, stop, rate)] triples,
    leftmost first — {!segments} without building a list.  The
    representation itself when the profile is not a truncated view of
    a longer one, else a compact copy.  For loops that only read (the v1
    residual digest); writing into it breaks every invariant of the
    module. *)

val rate_at : t -> Time.t -> int
(** Availability rate at a tick ([0] where undefined). *)

val add : t -> t -> t
(** Pointwise sum — union of same-type resources. *)

type deficit = { at : Time.t; available : int; required : int }
(** Witness that a subtraction or reservation failed: at tick [at] only
    [available] was present but [required] was needed. *)

val sub : t -> t -> (t, deficit) result
(** [sub p q] is the pointwise difference — the paper's relative complement
    of same-type terms.  Defined only when [p] dominates [q]; otherwise the
    first (earliest) deficit is returned. *)

val dominates : t -> t -> bool
(** [dominates p q] iff [rate_at p t >= rate_at q t] for every tick — i.e.
    a computation that can use [q] can use [p] instead.  The profile-level
    generalization of the paper's term order. *)

val sub_clamped : t -> t -> t
(** [sub_clamped p q] is the pointwise [max (p - q) 0] — what remains of
    [p] after [q] is forcibly taken away.  Unlike {!sub} this is total:
    where [q] exceeds [p] the result is simply zero.  This is the
    availability update for an {e unannounced} revocation, where the
    departing capacity was never promised to stay. *)

val meet : t -> t -> t
(** Pointwise minimum — the part of [p] that [q] also covers.  Used to
    clip a revocation slice to the capacity actually present. *)

val integrate : t -> Interval.t -> int
(** [integrate p w] is the total quantity available within window [w]:
    the sum over ticks of the rate. *)

val total : t -> int
(** Total quantity over the whole profile. *)

val min_rate : t -> Interval.t -> int
(** Minimum rate over the window (0 if the profile has a gap there). *)

val max_rate : t -> int
(** Largest rate anywhere (0 for {!empty}). *)

val support : t -> Interval_set.t
(** Ticks with positive rate. *)

val restrict : t -> Interval.t -> t
(** Zeroes the profile outside the window. *)

val within : t -> Interval.t -> bool
(** [within p w] iff the profile's support lies inside [w] — equivalent
    to [equal (restrict p w) p] without building the restriction. *)

val truncate_before : t -> Time.t -> t
(** [truncate_before p t] zeroes the profile strictly before tick [t] —
    how availability decays as the clock advances (resources in the past
    have expired).  When nothing expires the result is [p] itself
    (physically); otherwise it is a view of the same segments from the
    first one still in force, cut to start at [t] — O(log segments),
    no copy. *)

val shift : t -> int -> t
(** Translates the profile in time. *)

val first : t -> Time.t option
(** Earliest tick with positive rate. *)

val last : t -> Time.t option
(** Latest tick with positive rate. *)

val horizon : t -> Time.t option
(** One past the latest covered tick ([stop] of the last segment). *)

val completion_time : t -> window:Interval.t -> quantity:int -> Time.t option
(** [completion_time p ~window ~quantity] is the earliest tick [u] such
    that the quantity available in [window ∩ [_, u)] reaches [quantity] —
    i.e. when a computation consuming this profile greedily from
    [start window] would finish.  [None] when even the whole window is not
    enough.  A zero [quantity] completes immediately at [start window]. *)

val consume : t -> window:Interval.t -> quantity:int -> (t * t) option
(** [consume p ~window ~quantity] greedily allocates [quantity] units from
    the earliest availability inside [window].  Returns
    [(remaining, allocation)] with [add remaining allocation = p] and
    [integrate allocation window = quantity], or [None] when the window
    cannot supply the quantity.  The allocation consumes at the full
    available rate tick by tick (the paper's transition rule), except that
    the final tick takes only the remainder. *)

val allocate : t -> window:Interval.t -> quantity:int -> t option
(** The allocation half of {!consume}, without computing what remains —
    for a caller that keeps the profile it allocated from. *)

val of_terms : Term.t list -> t
(** Sum of same-type terms, ignoring their located types (the caller —
    {!Resource_set} — groups terms by type first). *)

val to_terms : ltype:Located_type.t -> t -> Term.t list
(** The canonical segments as resource terms of the given type. *)

val mix : int -> int
(** The word mixer behind {!hash}: a fixed bijection on native ints, the
    same in every build and process. *)

val hash : t -> int
(** The sum, wrapping, of one {!mix}ed word per canonical segment
    (start, stop, rate) — additive over segments, so a truncation can
    adjust it by what it drops ({!hash_expired}). *)

val hash_expired : t -> t -> int
(** [hash_expired p (truncate_before p t)] is [hash p - hash (truncate_before
    p t)], computed from the expired segments alone. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints as [5@[0,3) + 2@[4,6)], or [0] when empty. *)

val pp_deficit : Format.formatter -> deficit -> unit

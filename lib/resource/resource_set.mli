open Import

(** Resource sets — the paper's [Theta].

    The resources of a distributed system are "a set of resource terms,
    each with its own located type".  We keep the set in simplified
    (canonical) form at all times: a finite map from located type to the
    {!Profile} aggregating all terms of that type.  Union and relative
    complement are then the pointwise profile operations, matching the
    paper's union-with-simplification and its partial relative
    complement. *)

type t
(** A simplified resource set.  Types mapped to the empty profile are not
    represented, so {!equal} is set equality.  Beside each type's profile
    sits its digest slot ({!hash}), filled lazily; polymorphic equality
    would see the slots, so compare sets with {!equal} or {!compare}. *)

val empty : t

val is_empty : t -> bool

val of_terms : Term.t list -> t
(** Union of arbitrary terms, simplified. *)

val to_terms : t -> Term.t list
(** The canonical terms, grouped by type in type order, each type's terms
    in time order. *)

val add_term : Term.t -> t -> t

val add_profile : Located_type.t -> Profile.t -> t -> t
(** [add_profile xi p set] adds [p] pointwise to the availability of
    [xi] — the union of a single-type slice without going through an
    intermediate term list. *)

val singleton : Term.t -> t

val union : t -> t -> t
(** The paper's [Theta1 ∪ Theta2]: pointwise sum of availability.  Models
    resources joining the system. *)

type deficit = { ltype : Located_type.t; deficit : Profile.deficit }
(** Witness that a relative complement was undefined: the type and tick at
    which the subtrahend exceeded availability. *)

val diff : t -> t -> (t, deficit) result
(** The paper's relative complement [Theta1 \ Theta2], defined only when
    every term of the subtrahend is dominated by availability in the
    minuend.  Models committing resources (and the impossibility of
    negative resource). *)

val dominates : t -> t -> bool
(** [dominates a b] iff [diff a b] is defined. *)

val diff_clamped : t -> t -> t
(** [diff_clamped a b] is the pointwise [max (a - b) 0] — total, unlike
    {!diff}.  Models an {e unannounced} revocation: the departing slice is
    ripped out of availability whether or not it was all there. *)

val meet : t -> t -> t
(** Pointwise minimum over every type — the part of [a] that [b] also
    covers.  Clips a fault's nominal slice to the capacity actually
    present. *)

val find : Located_type.t -> t -> Profile.t
(** The availability profile of a type ({!Profile.empty} when absent). *)

val mem : Located_type.t -> t -> bool

val domain : t -> Located_type.t list
(** Located types with any availability, in type order. *)

val integrate : t -> Located_type.t -> Interval.t -> int
(** Total quantity of a type available within a window — the paper's
    [U_s^d Theta] aggregation for one type. *)

val restrict : t -> Interval.t -> t
(** Drops availability outside the window. *)

val within : t -> Interval.t -> bool
(** [within set w] iff every profile's support lies inside [w] —
    equivalent to [equal (restrict set w) set] without building the
    restriction. *)

val truncate_before : t -> Time.t -> t
(** Expires all availability strictly before the given tick: how [Theta]
    decays as the system clock advances.  Returns the set itself when
    nothing expires; a type that loses segments keeps its digest slot,
    adjusted by the segments dropped or cut. *)

val hash : t -> int
(** A 62-bit hash of the canonical form, the word-level basis of
    [Certificate.digest]'s v2.  Each type's slot is the type's name hash
    plus the sum of one mixed word per canonical segment (start, stop,
    rate), modulo 2{^62}; the set's hash mixes the slots in type order.
    Fills every empty slot first, so a set derived from a hashed one
    costs O(types) plus the segments of the profiles the derivation
    changed: an operation that passes a profile through keeps its slot,
    {!truncate_before} carries it forward, and every other operation
    leaves the new profile's slot empty. *)

val total : t -> int
(** Sum of all quantities over all types (a size measure). *)

val horizon : t -> Time.t option
(** One past the last tick with any availability. *)

val map_profiles : (Located_type.t -> Profile.t -> Profile.t) -> t -> t
(** Rebuilds the set by transforming each type's profile (empty results are
    dropped). *)

val fold : (Located_type.t -> Profile.t -> 'a -> 'a) -> t -> 'a -> 'a

val unsafe_slabs : t -> Located_type.t array * Profile.t array
(** The representation itself: the types in ascending order and their
    (non-empty) profiles, index for index — {!fold} without a closure.
    For loops that only read (the v1 residual digest); writing into
    either array breaks every invariant of the module. *)

val update : Located_type.t -> (Profile.t -> Profile.t) -> t -> t
(** Replaces one type's profile with a function of its current value. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints as a set of terms in the paper's notation. *)

val pp_deficit : Format.formatter -> deficit -> unit

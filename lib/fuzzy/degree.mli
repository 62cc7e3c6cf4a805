(** Satisfaction / membership degrees in [0, 1].

    The paper uses the single-measure (possibility-only) system: every
    predicate evaluates to one degree, conjunctions combine by [min]
    (fuzzy AND), duplicate answers combine by [max] (fuzzy OR) and negation
    is [1 - d]. This module centralises those combinators so that the
    relational engine and the query executor share one semantics. *)

type t = float
(** Invariant: [0.0 <= d <= 1.0]. Enforced by [of_float]; operations on
    already-valid degrees preserve the invariant. *)

val zero : t
val one : t

val of_float : float -> t
(** Clamps into [0, 1]; raises [Invalid_argument] on NaN. *)

val is_valid : t -> bool

val conj : t -> t -> t
(** Fuzzy AND: [min]; the bits of [Float.min] on any two floats. *)

val disj : t -> t -> t
(** Fuzzy OR: [max]; the bits of [Float.max] on any two floats. *)

val neg : t -> t
(** Fuzzy NOT: [1 - d]. *)

val conj_list : t list -> t
(** [min] of the list; [one] for the empty list (empty conjunction). *)

val disj_list : t list -> t
(** [max] of the list; [zero] for the empty list (empty disjunction). *)

val meets_threshold : threshold:t -> t -> bool
(** [meets_threshold ~threshold d] implements the [WITH D >= z] clause. *)

val positive : t -> bool
(** [d > 0]: tuple membership test of the fuzzy-set model. *)

val equal : ?eps:float -> t -> t -> bool
(** Equality up to [eps] (default 1e-9); used by the equivalence tests of
    Theorems 4.1-8.1 where both sides compute the same reals in different
    orders. *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

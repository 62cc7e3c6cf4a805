(** Attribute values of the fuzzy relational model.

    Every data value of a numeric attribute carries a possibility
    distribution over the attribute's domain (Section 2.2): a crisp number is
    the degenerate distribution that is 1 at the number and 0 elsewhere.
    Strings are always crisp; integers are kept as a distinct constructor for
    keys and COUNT results. *)

type t =
  | Int of int
  | Str of string
  | Fuzzy of Fuzzy.Possibility.t

val crisp_num : float -> t
val of_trapezoid : Fuzzy.Trapezoid.t -> t

val to_possibility : t -> Fuzzy.Possibility.t option
(** Numeric view; [None] for strings. *)

val compare_degree : Fuzzy.Fuzzy_compare.op -> t -> t -> Fuzzy.Degree.t
(** Satisfaction degree [d(v1 op v2)]. Crisp operands give 0/1; strings
    support all comparators with lexicographic (crisp) semantics; comparing a
    string with a number is unsatisfiable (degree 0). *)

val equal : t -> t -> bool
(** Structural equality, used by duplicate elimination: two fuzzy values are
    the same answer-value only if their distributions coincide; [Int 3],
    crisp [3.0] and [DIST(3:1)] are all the number 3. *)

val compare_structural : t -> t -> int
(** Total preorder whose classes are [equal]'s; arbitrary across
    constructors. *)

val support : t -> Fuzzy.Interval.t
(** Definition 3.1 interval for sorting (strings get a degenerate interval
    from their hash so the merge sweep remains well-defined for crisp string
    keys). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

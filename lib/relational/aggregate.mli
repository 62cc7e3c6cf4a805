(** Aggregate functions over fuzzy sets of values (Section 6 of the paper).

    - COUNT returns the number of values in the fuzzy set (the caller passes
      the duplicate-eliminated value list).
    - SUM and AVG use fuzzy arithmetic on the 0- and 1-cuts.
    - MIN and MAX defuzzify by the center of the 1-cut and return the extreme
      original value.
    - On an empty set, SUM/AVG/MIN/MAX return NULL ([None]); COUNT returns 0.

    The degree [D(A(r))] attached to an aggregate result is 1 in Fuzzy SQL;
    {!result_degree} also offers the paper's suggested alternatives (average
    or weighted-average membership of the aggregated group). *)

type t = Count | Sum | Avg | Min | Max

val of_string : string -> t option
val to_string : t -> string

val apply : t -> Value.t list -> Value.t option
(** Raises [Invalid_argument] when SUM/AVG/MIN/MAX meet a non-numeric
    value. The caller passes distinct values (under
    {!Value.compare_structural}) in ascending order; MIN and MAX fold them
    with {!extreme}. *)

val extreme : t -> Value.t -> Value.t -> Value.t
(** [extreme agg best v] for [agg] MIN or MAX: the group's result once [v]
    joins a group whose result so far is [best]. The more extreme value
    under [Defuzz.compare_by_core_center] wins; on a tie, the one that
    sorts last under {!Value.compare_structural}; a [v] equal to [best]
    under it leaves [best]. So folding a group's values in any order
    gives {!apply}'s result over the distinct values (a class of
    [compare_structural]-equal values is represented by its first
    member), and a running MIN / MAX needs no value set.
    Raises [Invalid_argument] where {!apply} would, for two distinct
    values one of which is non-numeric. *)

type degree_strategy = Always_one | Average_membership | Weighted_membership

val result_degree :
  ?strategy:degree_strategy -> Fuzzy.Degree.t list -> Fuzzy.Degree.t
(** Degree of the aggregate result given the membership degrees of the
    aggregated group; default [Always_one] (Fuzzy SQL's choice). *)

(** Branch-light array kernels over {!Batch} columns.

    Each kernel replicates the boxed path's IEEE-754 arithmetic exactly —
    same expressions, same branch structure as {!Fuzzy.Trapezoid} /
    {!Fuzzy.Fuzzy_compare} on trapezoid operands — so the merge-join
    engine's degrees are bit-identical to the boxed path's (a qcheck
    property).
    The window sweep ([Join_merge.sort_sweep]) computes its per-pair
    equality degrees with {!cmp_at}. *)

open Fuzzy

val cmp :
  Fuzzy_compare.op ->
  float -> float -> float -> float -> float -> float -> float -> float ->
  float
(** [cmp op ua ub uc ud va vb vc vd] = [Fuzzy_compare.degree op u v] for
    trapezoid operands (crisp [Int]s are the degenerate [a = b = c = d]
    case), bit for bit. *)

val cmp_at : Fuzzy_compare.op -> Batch.col -> int -> Batch.col -> int -> float
(** [cmp_at op u i v j]: [cmp] over rows [i] of [u] and [j] of [v]. Only
    valid where both rows' {!Batch.ok} is set. *)

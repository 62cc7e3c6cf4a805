(** Branch-light array kernels over {!Batch} columns.

    Each kernel replicates the boxed path's IEEE-754 arithmetic exactly —
    same expressions, same branch structure as {!Fuzzy.Trapezoid} /
    {!Fuzzy.Fuzzy_compare} on trapezoid operands — so the merge-join
    engine's degrees are bit-identical to the boxed path's (a qcheck
    property).
    The three hot loops of the merge pipeline use them: fuzzy predicate
    evaluation ({!mem_into}, {!cmp_at}), t-norm / co-norm degree combination
    ({!conj_into}, {!disj_reduce}), and the window sweep's per-pair equality
    degrees ({!cmp_at} from [Join_merge.sort_sweep]). *)

open Fuzzy

val mem_s : float -> float -> float -> float -> float -> float
(** [mem_s a b c d x] = [Trapezoid.mem (make a b c d) x]. *)

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

val mem_into : Trapezoid.t -> xs:float array -> n:int -> dst:float array -> unit
(** Membership of each of the first [n] points of [xs] in the trapezoid:
    the columnar fuzzy-predicate kernel. *)

val conj_into : src:float array -> dst:float array -> n:int -> unit
(** In-place t-norm: [dst.(i) <- min dst.(i) src.(i)] over the first [n]. *)

val disj_reduce : xs:float array -> n:int -> float
(** Co-norm reduction: [max] of the first [n] degrees (0 when [n = 0]). *)

val select_positive : xs:float array -> n:int -> sel:int array -> int
(** Write the indices of the strictly positive entries among the first [n]
    into the selection vector [sel] (which must have capacity [n]); returns
    how many were selected. *)

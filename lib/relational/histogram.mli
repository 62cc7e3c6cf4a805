(** Equi-width histograms over fuzzy attributes, for cardinality estimation.

    Fuzzy values are summarised by the centers of their supports plus the
    average support width. Two tuples can equi-join only if their supports
    overlap, i.e. their centers lie within [(w_r + w_s) / 2] of each other;
    the estimator integrates the center histograms over that band. This
    feeds the chain-query join-order search (Section 8's "optimal join order
    may be determined by using, say, a dynamic programming method") and the
    planner's EXPLAIN output. *)

type t = private {
  lo : float;  (** left edge of the first bucket *)
  width : float;  (** bucket width; > 0 *)
  counts : float array;  (** tuples per bucket *)
  total : int;
  avg_width : float;  (** mean support width of the summarised values *)
}

val build : ?buckets:int -> Relation.t -> attr:int -> t
(** Scan the relation once and histogram the support centers of the given
    attribute (default 64 buckets). The supports are read in place off the
    pages ({!Codec.support_into}), so no tuple is decoded. String
    attributes hash to their support stand-ins, so equality estimation
    still works. *)

val cardinality : t -> int
val avg_support_width : t -> float

val estimate_eq_join : t -> t -> float
(** Expected number of tuple pairs with overlapping supports — an estimate of
    the fuzzy equi-join's match count (exactly the quantity C x n_R that the
    paper's cost analysis assumes is linear). *)

val estimate_eq_selectivity : t -> Fuzzy.Possibility.t -> float
(** Expected fraction of tuples whose support overlaps the given value's
    support — the reduced-size estimate for [p1]/[p2] pre-selections. *)

val pp : Format.formatter -> t -> unit

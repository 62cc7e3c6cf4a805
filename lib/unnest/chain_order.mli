(** Join-order selection for unnested chain queries (Section 8).

    A chain's join graph is a path, so connected left-deep orders are exactly
    the ways of growing a contiguous block interval one step left or right;
    the interval dynamic program finds the order minimising the sum of
    estimated intermediate cardinalities in O(K^2) states, with per-join
    fan-outs estimated from {!Relational.Histogram}s over the link
    attributes. A step whose new block adds no live attribute (see
    {!cascade}) is costed as a semi-join: its estimate is capped at the
    accumulated cardinality, so orders that collapse early win. *)

type order = {
  start : int;  (** index of the first block materialised *)
  steps : int list;  (** blocks joined in, each adjacent to the current set *)
  estimated_cost : float;  (** sum of estimated intermediate cardinalities *)
}

type step = {
  block : int;  (** the block joined in *)
  carried : (int * int) list;
      (** the live [(block, attribute)] pairs kept after the step: those of
          the blocks joined before, then those of [block], each ascending *)
  semi_join : bool;  (** [block] contributes no carried attribute *)
}

val left_to_right : int -> order
(** The syntactic order: start at block 0, join 1, 2, ... (cost not
    estimated). *)

val cascade : Classify.chain -> order -> step list
(** The order's steps with what each keeps. An attribute of a joined block
    is live while something still reads it: the answer ([top_select]), the
    link attribute towards a neighbour not joined yet, or the joined
    endpoint of a correlation predicate whose other block is not joined
    yet. Raises [Invalid_argument] when a step is not adjacent to the
    interval joined so far. *)

val plan : ?trace:Storage.Trace.t -> Classify.chain -> order
(** The DP-optimal order under the histogram estimates. Each link's two
    histograms read their supports in place ({!Relational.Histogram.build}).
    With [?trace], the planning runs inside a [chain-order] span. *)

(** The extended merge-join for fuzzy equi-joins (Section 3 of the paper).

    Hash joins are inapplicable in a fuzzy database — tuples with different
    attribute values (e.g. "young" and "about 35") may still join with a
    positive degree. Instead, both relations are sorted by the interval order
    of Definition 3.1 (support start, then support end) and swept: for each
    outer tuple [r], exactly the inner tuples in [Rng(r)] are examined. Inner
    tuples whose support ends before [b(r.X)] are dropped from the window
    permanently (they cannot join any later outer tuple either); the scan for
    [r] stops at the first inner tuple whose support begins after [e(r.X)].
    Dangling tuples inside the window are examined and skipped, as the paper
    describes. Each relation is read once after sorting, giving the
    O(n_R log n_R + n_S log n_S) response time of Section 3.

    Every entry point takes an optional [?cancel] token
    ({!Storage.Cancel}): the sorters and the sweep poll it, so a deadline or client cancellation unwinds with
    {!Storage.Cancel.Cancelled} within one poll period. The sorted
    temporaries of {!join_eq}/{!with_indicator} are destroyed on that path
    too. [None] costs one branch per poll site. *)

val sort_by :
  ?trace:Storage.Trace.t -> ?cancel:Storage.Cancel.t ->
  Relation.t -> attr:int -> mem_pages:int -> Relation.t
(** Sort a relation by the Definition 3.1 order of the given attribute using
    the external sorter (accounted to the [Sort] phase). The result is a
    temporary relation owned by the caller. With [?trace], a
    ["sort <relation>"] span wraps the sorter's own spans. The sort is
    decorated: {!Storage.External_sort.sort_support} decodes each record's
    key once into float columns. The key order is that of Definition 3.1;
    records with equal keys may land in either order. *)

type emit =
  Batch.t -> int -> inner:Batch.t -> idx:int array -> n:int ->
  d_eq:float array -> unit
(** A sweep handler: [emit ob i ~inner ~idx ~n ~d_eq] receives outer row [i]
    of chunk [ob] with its window as indices [idx.(0 .. n-1)] into the inner
    buffer [inner], in insertion order, and their equality degrees
    [d_eq.(0 .. n-1)] (0 for dangling tuples). The arrays are reused across
    calls and must not be retained. Each outer chunk and each inner refill
    is a fresh {!Batch.t}, so caching per-batch data under the batches'
    physical identity is safe. *)

val emit_to_f : f:(Ftuple.t -> (Ftuple.t * Fuzzy.Degree.t) list -> unit) -> emit
(** The handler that calls [f r rng] with the outer tuple and its window as
    an insertion-ordered list of [(tuple, d(r.X = s.X))] pairs, for
    handlers with no form over the selection vector. *)

val sweep_sorted :
  ?trace:Storage.Trace.t -> ?cancel:Storage.Cancel.t ->
  outer:Relation.t -> inner:Relation.t -> outer_attr:int -> inner_attr:int ->
  mem_pages:int -> emit:emit -> unit -> unit
(** Merge phase over relations already sorted on the join attributes:
    [emit] is called once per outer tuple in sort order with the window
    tuples and their equality degrees [d(r.X = s.X)]. Every examined pair
    with overlapping supports counts one fuzzy op; accounted to the [Merge]
    phase. The two scoped cursor pools are sized from [mem_pages]
    ([mem_pages / 2] pages each).

    The sweep is columnar: window bounds and pair degrees are computed over
    unboxed columns ({!Batch}, {!Batch_kernels}). It streams both inputs.
    The outer relation is read in chunks of at most {!Batch.batch_rows}
    rows. The inner relation is read one page at a time into a sliding
    buffer that holds the window's members plus the page read last; rows
    the window evicts are dropped at the next read. So the rows kept
    decoded number at most the largest window plus 2 x {!Batch.batch_rows},
    whatever the input sizes, and each relation is read once, page for
    page as a tuple-at-a-time sweep would read it. Cancellation is polled
    once per outer chunk and once per inner read; with [?trace] the sweep
    records a [sweep] span with one [batch] child per outer chunk. *)

val join_eq :
  ?name:string -> ?trace:Storage.Trace.t -> ?cancel:Storage.Cancel.t ->
  outer:Relation.t -> inner:Relation.t -> outer_attr:int ->
  inner_attr:int -> mem_pages:int ->
  ?residual:(Ftuple.t -> Ftuple.t -> Fuzzy.Degree.t) -> unit -> Relation.t
(** Full extended merge-join: sort both inputs, sweep, and materialise
    matches with degree [min(D_r, D_s, d(r.X = s.X), residual r s)].
    Temporary sorted files are destroyed before returning. *)

val with_indicator :
  ?name:string -> ?trace:Storage.Trace.t -> ?cancel:Storage.Cancel.t ->
  outer:Relation.t -> inner:Relation.t -> outer_attr:int ->
  inner_attr:int -> mem_pages:int ->
  ?residual:(Ftuple.t -> Ftuple.t -> Fuzzy.Degree.t) -> unit -> Relation.t
(** Variant with the fuzzy-equality-indicator prefilter of Zhang & Wang
    (reference [42] of the paper): before computing the exact intersection
    height of a candidate pair, a cheap core/support test classifies pairs
    whose degree is certainly 1 or certainly 0, skipping the full
    computation. Results are identical to {!join_eq}. *)

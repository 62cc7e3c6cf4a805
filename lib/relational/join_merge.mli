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
    {!Storage.Cancel.Cancelled} within one poll period. The sort's run
    files, and the output of {!join_eq}, are destroyed
    on that path too. [None] costs one branch per poll site. *)

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

val sort_sweep :
  ?trace:Storage.Trace.t -> ?cancel:Storage.Cancel.t ->
  outer:Relation.t -> inner:Relation.t -> outer_attr:int -> inner_attr:int ->
  mem_pages:int -> emit:emit -> unit -> unit
(** The merge-join as one pipeline: sort both relations by the Definition
    3.1 order of their join attributes and sweep them, calling [emit] once
    per outer tuple in sort order with its window and the equality degrees
    [d(r.X = s.X)]. No sorted file is written: the sort
    ({!Storage.External_sort.with_sorted}, [mem_pages] shared by both
    inputs' final merges) streams its last merge pass into the sweep as
    record views, and no record is decoded to sweep it: the key is read
    in place ({!Codec.support_into}), and the sweep's degrees and columns
    straight from the record bytes ({!Batch}). A handler decodes only
    what it asks for ({!Batch.value}, {!Batch.row}). Records with equal
    keys may reach the sweep in either order.

    The sweep is columnar: window bounds and pair degrees are computed over
    unboxed columns ({!Batch}, {!Batch_kernels}). The outer side is pulled
    in chunks of at most {!Batch.batch_rows} rows. The inner side is pulled
    page-bound into a sliding buffer that holds the window's members plus
    the chunk read last; rows the window evicts are dropped at the next
    pull. So the rows kept number at most the largest window plus
    2 x {!Batch.batch_rows}, whatever the input sizes. Every examined pair
    with overlapping supports counts one fuzzy op.

    Accounting: sorting and every pull to the [Sort] phase, the sweep's
    own work to the [Merge] phase. Cancellation is polled once per outer
    chunk and once per inner pull, and by the sort; every run file is
    freed on any exit. With [?trace]: a ["sort <relation>"] span per
    input wrapping its [run-formation], and a [sweep] span with one
    [batch] child per outer chunk and one [k-way-merge] child per input
    carrying its final merge's summed pull time. *)

val join_eq :
  ?name:string -> ?trace:Storage.Trace.t -> ?cancel:Storage.Cancel.t ->
  outer:Relation.t -> inner:Relation.t -> outer_attr:int ->
  inner_attr:int -> mem_pages:int ->
  ?residual:(Ftuple.t -> Ftuple.t -> Fuzzy.Degree.t) -> unit -> Relation.t
(** Full extended merge-join: sort both inputs, sweep, and materialise
    matches with degree [min(D_r, D_s, d(r.X = s.X), residual r s)]
    ({!sort_sweep}, then one insert per positive pair). *)

(** External merge sort over heap files, standing in for the Opt-Tech Sort
    package used in the paper's experiments.

    Classic two-phase sort with a user-specified memory budget: run
    generation fills [mem_pages] buffer pages, sorts in memory and writes a
    run; merging combines up to [mem_pages - 1] runs per pass. No sorted
    file is written: the last merge pass is a stream its consumer (the
    merge-join sweep) pulls. All I/O flows through the environment's buffer
    pools and statistics, and sorting is accounted to the [Sort] phase, so
    the Table 3 "sorting time" breakdown can be reproduced. *)

type spec = {
  name : string;  (** the span the input's run formation is recorded in *)
  file : Heap_file.t;
  key : bytes -> int -> float array -> float array -> int -> unit;
      (** [key page off lo hi i]: store the sort key, ordered by (lo, hi),
          of the record at [off] of [page] into [lo.(i)] and [hi.(i)];
          read without decoding the record. Keys must not be NaN. *)
}

type views = { pages : bytes array; offs : int array; lens : int array }
(** A chunk of record views: record [k] is [pages.(k)] from [offs.(k)],
    [lens.(k)] bytes long, in place on the page it was read from
    ({!Heap_file.Slices.page}: the bytes stay valid after the scan moves
    on). The three arrays have one length, the chunk's record count. *)

type stream
(** An input's last merge pass, pulled by its consumer in chunks of
    record views in key order. *)

val with_sorted :
  ?trace:Trace.t -> ?cancel:Cancel.t -> mem_pages:int -> spec -> spec ->
  (stream -> stream -> 'b) -> 'b
(** [with_sorted ~mem_pages outer inner f] sorts both inputs by
    key and calls [f] with their sorted streams; the merge-join engine's
    sort. No sorted file is written:
    - Run formation reads each record's key once into unboxed float
      columns and sorts an index permutation over them with a stable
      top-down merge sort that compares the columns inline (no closure
      call per comparison). An input that fits in one run ([mem_pages]
      pages) stays in memory and no run file is written for it, as long
      as the records both inputs keep in memory stay within [mem_pages]
      pages; past that the held input is written out as one run. A run
      is written a page at a time ({!Heap_file.append_many}).
    - The two final merges share [mem_pages]: an in-memory input costs
      its pages, a spilled one a page per run cursor, read through a
      scoped pool per input. Intermediate passes run only while the two
      together exceed [mem_pages]; each merges just enough runs of the
      input with more runs into one to fit.
    - A k-way merge is a binary heap of run indices over the runs' current
      keys, kept in unboxed columns; a pop replaces the top by its run's
      next record with one sift-down.
    - No record is copied out of its page ({!Heap_file.Slices}): a run
      formation batch holds slices of its input pages, the merges read
      keys in place, and the final merge hands its records out as
      {!views} with nothing allocated per record; decoding them is the
      consumer's business.
    Each stream yields its input's record multiset in non-decreasing
    (lo, hi) key order; equal-key ties carry no order. The
    [storage.comparisons] counter is charged one per key comparison: in
    the run-formation merge sort, and in each heap sift-down (one between
    two children, one between the smaller child and its parent).

    Accounting: run formation, intermediate passes and every {!pull} are
    charged to the [Sort] phase (nested phases are exclusive, so a
    consumer timing itself as [Merge] keeps only its own time). With
    [?trace], each input's run formation is a [run-formation] span under
    a span named by its [spec.name], and intermediate passes a
    [k-way-merge] span; see {!add_merge_span} for the final merge.
    Cancellation is polled once per 1024 records while forming and
    merging runs; the consumer polls while pulling.

    Exception safety: every run file is destroyed when [f] returns and
    when anything raises ([Cancel.Cancelled], an injected {!Fault.Injected},
    a fault in [f]), so [Sim_disk.live_pages] returns to its baseline.
    The streams must not be used after [f] returns. *)

val pull : stream -> max:int -> page_bound:bool -> views
(** The next at most [max] records in key order (an empty chunk at the
    end). With
    [~page_bound:true] the chunk stops before a record whose pop would
    make a run cursor read its next page, so a consumer that pulls only
    what it needs reads no page ahead of that need.
    @raise Invalid_argument if [max < 1], before any record is taken. *)

val sort_index : float array -> float array -> int array * int
(** [sort_index lo hi]: the row indices [0 .. n-1] stably sorted by the
    key [(lo.(i), hi.(i))] (keys must not be NaN), and the key comparisons
    made. Run formation's sort: a top-down merge sort (left half
    [n / 2] rows) that stops comparing once either half is used up.
    @raise Invalid_argument if the columns differ in length. *)

val merge_runs :
  ?cancel:Cancel.t ->
  Env.t ->
  key:(bytes -> int -> float array -> float array -> int -> unit) ->
  Heap_file.t list ->
  Heap_file.t
(** [merge_runs env ~key runs]: one intermediate pass, the k-way heap
    merge of the key-sorted [runs] into one new temporary run, after which
    [runs] are destroyed. Its comparisons are charged to [env]'s
    statistics. On a raise the partial output is destroyed and [runs] are
    left to the caller. *)

val add_merge_span : Trace.t option -> stream -> unit
(** Attach the stream's summed pull time as a [k-way-merge] span under
    the innermost open span (nothing if it was never pulled). *)

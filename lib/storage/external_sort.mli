(** External merge sort over heap files, standing in for the Opt-Tech Sort
    package used in the paper's experiments.

    Classic two-phase sort with a user-specified memory budget: run
    generation fills [mem_pages] buffer pages, sorts in memory and writes a
    run; merging combines up to [mem_pages - 1] runs per pass. {!sort}
    merges until one sorted file remains. {!with_sorted}, the merge-join's
    sort, writes no sorted file: its last merge pass is a stream its
    consumer pulls. All I/O flows through the environment's buffer pools
    and statistics, and sorting is accounted to the [Sort] phase, so the
    Table 3 "sorting time" breakdown can be reproduced. *)

type run_strategy =
  | Load_sort
      (** fill memory, sort, write a run: runs of ~[mem_pages] pages *)
  | Replacement_selection
      (** heap-based run formation: ~2x longer runs on random input, hence
          fewer runs and fewer merge passes when memory is scarce *)

val sort :
  ?run_strategy:run_strategy -> ?trace:Trace.t -> ?cancel:Cancel.t ->
  Heap_file.t -> compare:(bytes -> bytes -> int) -> mem_pages:int ->
  Heap_file.t
(** Returns a new heap file with the records in non-decreasing order;
    intermediate runs are destroyed. The input file is left intact.
    [mem_pages] must be >= 3 (one output page + two run pages). Default
    strategy: [Load_sort]. With [?trace], a [run-formation] and a
    [k-way-merge] span are recorded with their I/O and comparison deltas.
    With [?cancel], the run-formation and merge loops poll the token.

    Exception safety: if the sort is aborted — by [Cancel.Cancelled], an
    injected {!Fault.Injected}, or any other exception (including ones
    raised by [compare]) — every temporary run page already written is
    freed back to the disk before the exception propagates, so
    [Sim_disk.live_pages] returns to its pre-sort baseline. *)

val initial_runs :
  ?cancel:Cancel.t -> run_strategy -> Heap_file.t ->
  compare:(bytes -> bytes -> int) -> mem_pages:int -> Heap_file.t list
(** The run-formation phase alone (each returned file is sorted); exposed for
    tests and the sort ablation bench. Caller destroys the runs. On abort,
    partially-written runs are destroyed before the exception propagates. *)

val merge_runs :
  ?cancel:Cancel.t -> Env.t -> Heap_file.t list ->
  compare:(bytes -> bytes -> int) -> Heap_file.t
(** One k-way heap-merge pass over sorted runs, writing the merged file into
    [env] and destroying the input runs; exposed for tests ({!sort} composes
    it into as many passes as the fan-in requires). On abort the partial
    output file is destroyed but the input runs are left alive for the
    caller to clean up. *)

type spec = {
  name : string;  (** the span the input's run formation is recorded in *)
  file : Heap_file.t;
  key : bytes -> int -> Fuzzy.Interval.t;
      (** [key page off]: the sort key, ordered by (lo, hi), of the
          record at [off] of [page]; read without decoding the record *)
}

type 'a stream
(** An input's last merge pass, pulled by its consumer in chunks of
    decoded records in key order. *)

val with_sorted :
  ?trace:Trace.t -> ?cancel:Cancel.t -> mem_pages:int ->
  decode:(bytes -> int -> int -> 'a) -> spec -> spec ->
  ('a stream -> 'a stream -> 'b) -> 'b
(** [with_sorted ~mem_pages ~decode outer inner f] sorts both inputs by
    key and calls [f] with their sorted streams; the merge-join engine's
    sort. No sorted file is written:
    - Run formation reads each record's key once into unboxed float
      columns and sorts an index permutation over them. An input that
      fits in one run ([mem_pages] pages) stays in memory and no run file
      is written for it, as long as the records both inputs keep in
      memory stay within [mem_pages] pages; past that the held input is
      written out as one run.
    - The two final merges share [mem_pages]: an in-memory input costs
      its pages, a spilled one a page per run cursor, read through a
      scoped pool per input. Intermediate passes run only while the two
      together exceed [mem_pages]; each merges just enough runs of the
      input with more runs into one to fit.
    - No record is copied out of its page ({!Heap_file.Slices}): a run
      formation batch holds slices of its input pages, and the merges
      read keys in place. Each record is decoded once
      ([decode page off len]), as it leaves the final merge.
    The record multiset and key order are those of {!sort} under the
    matching record comparator; only equal-key ties may land in another
    order. Comparisons are charged per comparator call as in {!sort}.

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

val pull : 'a stream -> max:int -> page_bound:bool -> 'a array
(** The next at most [max] records in key order ([[||]] at the end). With
    [~page_bound:true] the chunk stops before a record whose pop would
    make a run cursor read its next page, so a consumer that pulls only
    what it needs reads no page ahead of that need. *)

val add_merge_span : Trace.t option -> 'a stream -> unit
(** Attach the stream's summed pull time as a [k-way-merge] span under
    the innermost open span (nothing if it was never pulled). *)

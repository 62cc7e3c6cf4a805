(** External merge sort over heap files, standing in for the Opt-Tech Sort
    package used in the paper's experiments.

    Classic two-phase sort with a user-specified memory budget: run
    generation fills [mem_pages] buffer pages, sorts in memory and writes a
    run; merging combines up to [mem_pages - 1] runs per pass until one
    sorted file remains. All I/O flows through the environment's buffer pool
    and statistics, and the whole call is accounted to the [Sort] phase, so
    the Table 3 "sorting time" breakdown can be reproduced. *)

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

val sort_support :
  ?trace:Trace.t -> ?cancel:Cancel.t -> Heap_file.t ->
  key:(bytes -> float * float) -> mem_pages:int -> Heap_file.t
(** Columnar decorated sort, the merge-join engine's
    counterpart of {!sort}: run formation decodes each record's
    [(support lo, support hi)] key exactly once into unboxed float columns
    and sorts an index permutation over them (runs are produced directly
    from the columns), so the comparator never touches record bytes; the k-way merge decorates
    cursor heads the same way and compares floats lexicographically. The
    record multiset and key order are identical to {!sort} with the
    corresponding record comparator — only equal-key ties may land in a
    different order. Cancellation is polled once per
    batch of records (1024) rather than per comparison; abort safety and
    trace spans ([run-formation], [k-way-merge]) as for {!sort}. *)

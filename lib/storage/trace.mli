(** Execution tracing: hierarchical spans over the query engine.

    A trace is a tree of {e spans}, one per plan operator execution (scan,
    reduce, sort run-formation, k-way merge, sweep, join, dedup, ...). Each
    span carries wall-clock start/duration and a delta snapshot of the
    {!Iostats} counters (page reads/writes, tuple comparisons, fuzzy-library
    calls) and the words it allocated on the minor heap ([Gc.minor_words]:
    exact and repeatable in native code, so an allocation change can be
    pinned on a layer) — and optionally {!Buffer_pool} hit/miss deltas and
    output / estimated cardinalities.

    The whole engine threads a [Trace.t option]: [None] is the no-op sink —
    every entry point short-circuits to the traced function with no
    allocation, so tracing disabled costs nothing on the execution paths and
    bench numbers are unchanged.

    Concurrency discipline mirrors {!Iostats}: a collector is
    single-threaded, and one query runs on one domain. *)

type t
(** A span collector (single-threaded). *)

type span

val create : unit -> t
(** A fresh collector; its creation time is the trace's time origin. *)

val with_span :
  t option -> ?stats:Iostats.t -> ?pool:Buffer_pool.t ->
  string -> (unit -> 'a) -> 'a
(** [with_span trace name f] runs [f] inside a span. With [trace = None]
    this is exactly [f ()] — no allocation. [?stats] snapshots the Iostats
    counters at entry/exit and stores the deltas on the span; [?pool]
    likewise for buffer-pool hits/misses. Exception-safe (the span is closed
    and the exception re-raised). *)

val add_timed_span :
  t option -> string -> start_s:float -> dur_s:float -> unit
(** Attach a pre-measured span (no counter deltas) under the innermost open
    span. [start_s] is an absolute [Unix.gettimeofday] instant — it is
    rebased onto the trace's time origin, so a span timed before the
    collector existed (a server request's queue wait, measured at admission)
    still lands at the right offset. No-op when the trace is [None]. *)

val set_rows : t option -> int -> unit
(** Record the output cardinality on the innermost open span. No-op when
    the trace is [None] or no span is open. *)

val set_est_rows : t option -> float -> unit
(** Record the planner's estimated cardinality on the innermost open span. *)

(** {1 Inspection} *)

val roots : t -> span list
val span_name : span -> string
val span_children : span -> span list
val span_duration : span -> float
val span_ios : span -> int
val span_reads : span -> int
val span_writes : span -> int
val span_compares : span -> int
val span_fuzzy_ops : span -> int

val span_minor_words : span -> int
(** Words the span allocated on the minor heap, its children's included;
    0 for a pre-measured span ({!add_timed_span}). *)

val span_rows : span -> int option
val span_est_rows : span -> float option

val span_set_est_rows : span -> float -> unit
(** Attach an estimate after the fact (EXPLAIN ANALYZE computes estimates
    outside the measured run so histogram scans don't pollute the trace). *)

val iter_spans : t -> (span -> unit) -> unit
(** Depth-first over all spans. *)

val span_count : t -> int

(** {1 Exporters} *)

val pp_tree : Format.formatter -> t -> unit
(** Human-readable tree: per-span time, I/Os, comparisons, fuzzy ops, cache
    hits, minor-heap allocation ([alloc=]), rows, estimate error. *)

val to_json : t -> string
(** Hierarchical JSON of the span tree. Every span carries ["lane": 0], a
    field kept so the format matches earlier traces. *)

val to_chrome_json : t -> string
(** Chrome [trace_event] JSON (an array of ["ph": "X"] complete events on
    one thread, [tid] 0, named "coordinator") — loads in [chrome://tracing]
    and Perfetto. *)

val write_chrome : t -> path:string -> unit

(** Entry point of the query processor: classify, choose a method, execute.

    [Auto] picks the unnesting merge-join whenever the query's shape supports
    it, falling back to the nested-loop method (for 2-level shapes without an
    equality to sweep on) and finally to the naive interpreter — mirroring
    the paper's conclusion that unnested evaluation dominates whenever it
    applies. [Unnest_merge] makes the same merge-join attempt with the same
    nested-loop fallback for 2-level shapes, but raises {!Unsupported} where
    [Auto] would fall back to the naive interpreter. Flat queries run on the
    naive interpreter under both. *)

type strategy =
  | Auto
  | Naive  (** recursive interpreter: the execution semantics, literally *)
  | Nested_loop  (** the paper's blocked nested-loop baseline *)
  | Unnest_merge  (** unnesting + extended merge-join *)

val strategy_to_string : strategy -> string

exception Unsupported of string
(** Raised by [Unnest_merge] on shapes outside the unnestable classes. *)

val default_mem_pages : int
(** 256 pages = the paper's 2 MB buffer. *)

val run :
  ?name:string -> ?strategy:strategy -> ?mem_pages:int -> ?chain_dp:bool ->
  ?trace:Storage.Trace.t -> ?cancel:Storage.Cancel.t ->
  Fuzzysql.Bound.query -> Relational.Relation.t
(** [chain_dp] (default true) selects the chain join order with the
    dynamic-programming search of {!Chain_order}; false uses the syntactic
    left-to-right order.

    A query runs on the calling domain. The merge-join engine is
    one pipeline ({!Relational.Join_merge.sort_sweep}): decorated sorts
    whose last merge passes stream into a window sweep over unboxed
    trapezoid and degree columns, keeping only the window and the chunks
    in flight decoded, and a max-fold of the answer straight off the
    sweep.

    [trace] (default off, costing nothing) collects one hierarchical span
    per plan operator under a root [query] span — see {!Storage.Trace} and
    {!Explain.analyze}.

    [cancel] (default off, costing nothing) is a {!Storage.Cancel} token
    polled at operator boundaries of the merge-join and nested-loop
    executors: a deadline or an explicit {!Storage.Cancel.cancel} unwinds
    the query with {!Storage.Cancel.Cancelled} within one poll period,
    destroying every owned intermediate on the way out. The fuzzy SQL
    server uses this for per-query deadlines and client cancellation.

    Ownership: the answer is the one temporary relation a run leaves
    live, and the caller owns it (free it with
    {!Relational.Relation.destroy}). Every other relation the run
    creates — reductions, sort runs, chain steps, a flattened outer
    product, the unranked answer under [ORDER BY D] /
    [LIMIT], the unfiltered answer under [WITH] — has been destroyed
    when [run] returns, and when it raises. So a worker that destroys
    each answer keeps [Storage.Disk.live_pages] of its temporary disk
    flat however many queries it serves. *)

val run_string :
  ?name:string -> ?strategy:strategy -> ?mem_pages:int -> ?chain_dp:bool ->
  ?trace:Storage.Trace.t -> ?cancel:Storage.Cancel.t ->
  catalog:Relational.Catalog.t ->
  terms:Fuzzy.Term.t -> string -> Relational.Relation.t
(** Parse, bind, and run. *)

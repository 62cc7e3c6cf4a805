(** EXPLAIN: a textual account of how the planner will evaluate a query —
    the classified shape, the chosen method, the sort/sweep attributes, the
    correlation residuals, and histogram-based cardinality estimates. *)

val explain : Fuzzysql.Bound.query -> string

(** {1 EXPLAIN ANALYZE} *)

type analysis = {
  answer : Relational.Relation.t;  (** the executed answer *)
  trace : Storage.Trace.t;  (** the span tree of the run *)
  text : string;
      (** the EXPLAIN text followed by the analyzed span tree: per-operator
          actual time, I/Os, comparisons, fuzzy ops, actual row counts and
          — where the planner has an estimate — estimated-vs-actual
          cardinality *)
}

val analyze :
  ?name:string -> ?strategy:Planner.strategy -> ?mem_pages:int ->
  ?chain_dp:bool -> Fuzzysql.Bound.query -> analysis
(** Run the query under a fresh trace collector (same options as
    {!Planner.run}), then annotate the operator spans with the planner's
    cardinality estimates. Estimates are computed after the run so the
    histogram-building scans do not pollute the traced I/O counters. *)

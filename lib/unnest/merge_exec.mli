(** Unnested evaluation with the extended merge-join: the paper's
    contribution (Sections 4-8).

    Each nested-query type is rewritten to its flat equivalent and evaluated
    as one sorted sweep:
    - type N / J (Theorems 4.1, 4.2): merge-join on [R.Y = S.Z] with the
      correlation predicates as residuals, then max-dedup projection;
    - type JX (Theorem 5.1): the grouped MIN(D) of Query JX' evaluated per
      outer tuple over its window [Rng(r)] — tuples outside the window
      contribute the neutral value, so one sweep suffices;
    - type JALL (Theorem 7.1) and its SOME dual: the same grouped sweep with
      the quantifier folded into [1 - min(..., 1 - d(y op z))];
    - type JA (Theorem 6.1): the pipelined T1 / T2 / JA' cascade, including
      the COUNT left-outer-join branch;
    - EXISTS / NOT EXISTS: fuzzy semi- / anti-joins;
    - chain queries (Theorem 8.1): a cascade of merge-joins growing a
      contiguous block interval in a configurable order, correlation
      predicates applied as soon as both endpoints are available, each
      step carrying only the attributes later steps still read. *)

exception Not_unnestable of string
(** Raised when no equality predicate links outer and inner (quantified,
    aggregate, or EXISTS subqueries whose correlation is order-only); the
    planner falls back to the nested-loop method. *)

val run :
  ?name:string -> ?trace:Storage.Trace.t -> ?cancel:Storage.Cancel.t ->
  Classify.two_level -> mem_pages:int -> Relational.Relation.t
(** One pipeline, sort -> sweep -> max-fold
    ({!Relational.Join_merge.sort_sweep}): the sorts stream their last
    merge pass into the columnar sweep, every link type folds its window
    straight off the window's selection vector, and each answer tuple goes
    straight into the query's {!Relational.Algebra.Max_fold}, which writes
    the answer once. No sorted file and no pre-dedup relation is written.
    Records are read where they sit on their pages
    ({!Relational.Batch}): an answer's projected values are copied out of
    the outer record as bytes ({!Relational.Algebra.Max_fold.add_record}),
    and a value is decoded only where a handler needs it: a term operand
    with no trapezoid form (a string, a [DIST]), the aggregated attribute
    of a JA group and the compared outer value. JA's MIN and MAX keep a
    running extreme per outer row ({!Relational.Aggregate.extreme});
    COUNT, SUM and AVG build the group's fuzzy value set.
    With [?trace], one span per operator is recorded (reduce,
    sort/run-formation, sweep with its k-way-merge children, dedup — or
    constant-inner for uncorrelated subqueries); [None] costs nothing.
    With [?cancel], the reduction predicates, the sort and the sweep poll
    the token; on {!Storage.Cancel.Cancelled} every owned intermediate
    (reductions, sort runs) is destroyed before the exception escapes, so
    a server worker's environment stays clean.

    Ownership: the returned answer is the run's only live temporary and
    the caller owns it; under [WITH] the unfiltered answer is destroyed
    before [run] returns. *)

val run_chain :
  ?name:string -> ?order:Chain_order.order -> ?trace:Storage.Trace.t ->
  ?cancel:Storage.Cancel.t ->
  Classify.chain -> mem_pages:int ->
  Relational.Relation.t
(** Default order: left-to-right (outermost block first). The order's steps
    must each be adjacent to the already-joined interval
    ([Invalid_argument] otherwise). Each step sorts the accumulated relation
    and the new block on their link attributes, sweeps them once, and keeps
    only the live attributes ({!Chain_order.cascade}): the answer columns,
    the link attribute towards each block not joined yet, and the joined
    endpoint of each correlation predicate still missing a block. Tuples
    that agree on those are max-folded across the step
    ({!Relational.Algebra.Max_fold}, fed off the sweep: a one-sided step
    copies the carried values' bytes, a two-sided one decodes them). When only one
    side carries live attributes, that side is swept as the outer (the new
    block and the accumulated relation swap roles when only the new block
    carries) and the step emits one tuple per outer tuple; a step whose
    new block adds no live attribute is a fuzzy semi-join, at most one
    tuple per accumulated tuple. Otherwise the accumulated side is the
    outer and each outer tuple's window is first max-folded per distinct
    projection onto the new block's attributes. Later degrees read only
    live attributes and
    [max_i min(d_i, f(x)) = min(max_i d_i, f(x))] holds exactly in floating
    point, so answers and degree bits equal the unprojected cascade's.
    [?trace] and [?cancel] as for {!run}. Spans:
    [reduce block-i], then per step a [join B] or [semi-join B] span (rows =
    the folded intermediate) wrapping its two sorts and its sweep, then
    [project]; {!Planner.run} adds the [chain-order] span of
    {!Chain_order.plan} before them. The cancel token is additionally polled before each cascade
    step, and the cascade's intermediates are freed on cancellation.
    Ownership as for {!run}: only the answer stays live. *)

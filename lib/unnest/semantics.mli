(** Shared degree-evaluation helpers used by every executor. *)

type stack = Relational.Ftuple.t array list
(** Bindings of the FROM tuples of each enclosing query block, innermost
    first; bound attribute references climb [up] levels, then index the FROM
    entry and the attribute. *)

val resolve_ref : stack -> Fuzzysql.Bound.attr_ref -> Relational.Value.t

val operand_value : stack -> Fuzzysql.Bound.operand -> Relational.Value.t

val cmp_degree :
  Storage.Iostats.t -> stack -> Fuzzysql.Bound.operand ->
  Fuzzy.Fuzzy_compare.op -> Fuzzysql.Bound.operand -> Fuzzy.Degree.t
(** Satisfaction degree of one comparison; records one fuzzy op. *)

val local_degree :
  Storage.Iostats.t -> Relational.Ftuple.t -> Fuzzysql.Bound.pred list ->
  Fuzzy.Degree.t
(** Degree of a conjunction of subquery-free predicates for one tuple of a
    single-relation block (the paper's [p1] / [p2]). Raises
    [Invalid_argument] if a predicate contains a subquery. *)

val apply_threshold :
  Relational.Relation.t -> Fuzzysql.Ast.threshold option ->
  Relational.Relation.t
(** Materialise the WITH clause on an answer relation the caller owns.
    Without a threshold [rel] itself is returned; with one, the filtered
    copy is returned and [rel] is destroyed, also when the copy fails. *)

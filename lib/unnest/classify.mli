(** Classification of bound queries into the paper's nested-query taxonomy.

    Following Kim's taxonomy as extended by the paper: a 2-level query whose
    inner block has no correlation predicate is type N; with a correlation
    predicate, type J; [NOT IN] gives type JX; an aggregate subquery gives
    type JA; quantifiers give type JALL / JSOME; [EXISTS] gives JEXISTS; a
    tower of single-relation IN-blocks is a chain query (Section 8). Anything
    else — multiple subqueries in one WHERE, grouped subqueries — is
    [General] and is evaluated by the naive interpreter. *)

(** One correlation predicate of an inner block: [local_attr op outer_attr]
    where the outer side lives [up] levels out (the paper's p_{i,j}). *)
type corr = {
  local_attr : int;
  op : Fuzzy.Fuzzy_compare.op;
  up : int;
  outer_attr : int;
}

type link =
  | In_link of { y : int; z : int; corr : corr list }
      (** [R.Y IN (SELECT S.Z ...)]; [corr = []] is type N, else type J *)
  | Not_in_link of { y : int; z : int; corr : corr list }  (** type JX / NX *)
  | Quant_link of {
      y : int;
      op : Fuzzy.Fuzzy_compare.op;
      quant : Fuzzysql.Ast.quant;
      z : int;
      corr : corr list;
    }  (** type JALL and its SOME dual *)
  | Agg_link of {
      y : int;
      op1 : Fuzzy.Fuzzy_compare.op;
      agg : Relational.Aggregate.t;
      z : int;
      corr : corr list;
    }  (** type JA *)
  | Exists_link of { negated : bool; corr : corr list }
      (** [EXISTS] / [NOT EXISTS] with correlation: fuzzy semi/anti-join *)

type two_level = {
  select : int list;  (** outer attribute positions to project *)
  outer : Relational.Relation.t;
  inner : Relational.Relation.t;
  p1 : Fuzzysql.Bound.pred list;  (** subquery-free preds of the outer block *)
  p2 : Fuzzysql.Bound.pred list;  (** subquery-free preds of the inner block *)
  link : link;
  threshold : Fuzzysql.Ast.threshold option;
}

type chain_block = {
  rel : Relational.Relation.t;
  p_local : Fuzzysql.Bound.pred list;
  out_attr : int;
      (** X_k: attribute exported to the parent block (unused for the top
          block, whose answer columns are [top_select]) *)
  link_attr : int option;  (** Y_k: compared with the child's X_{k+1} *)
  corr : corr list;  (** correlation predicates to enclosing blocks *)
}

type chain = {
  blocks : chain_block list;  (** outermost first; length >= 2 *)
  top_select : int list;
  chain_threshold : Fuzzysql.Ast.threshold option;
}

type t =
  | Flat  (** no subqueries *)
  | Two_level of two_level
  | Chain_query of chain
  | General  (** evaluated by the naive interpreter *)

val classify : Fuzzysql.Bound.query -> t

val pred_has_subquery : Fuzzysql.Bound.pred -> bool
(** Whether a predicate contains a nested query block. *)

val link_name : link -> string
(** "N", "J", "JX", "NX", "JA", "NA", "JALL", "JSOME", "JEXISTS", ... *)

val to_string : t -> string

val shape_hint : Fuzzysql.Bound.query -> string option
(** [Some desc] iff the query is nested (depth > 1) yet classifies as
    {!General}, i.e. it falls outside the paper's unnestable taxonomy and
    will run on the nested-loop interpreter. Passed to
    [Fuzzysql.Check.check_string ?classify] by the binaries and the
    daemon (the fuzzysql library cannot depend on this one). *)

(** Classification of bound queries into the paper's nested-query types.

    Following Kim's taxonomy as extended by the paper: a 2-level query whose
    inner block has no correlation predicate is type N; with a correlation
    predicate, type J; [NOT IN] gives type JX; an aggregate subquery gives
    type JA; a quantifier gives type JALL (and its SOME dual); a tower of
    single-relation IN-blocks is a chain query (Section 8). Anything else —
    multiple subqueries in one WHERE, subqueries below EXISTS, grouped
    subqueries — is [General] and is evaluated by the naive interpreter. *)

open Fuzzysql

(** One correlation predicate of an inner block: [local_attr op outer_attr]
    where the outer side lives [up] levels out (paper: p_{i,j}). *)
type corr = {
  local_attr : int;
  op : Fuzzy.Fuzzy_compare.op;
  up : int;
  outer_attr : int;
}

type link =
  | In_link of { y : int; z : int; corr : corr list }
      (** [R.Y IN (SELECT S.Z ...)]; [corr = []] is type N, else type J *)
  | Not_in_link of { y : int; z : int; corr : corr list }  (** type JX/NX *)
  | Quant_link of {
      y : int;
      op : Fuzzy.Fuzzy_compare.op;
      quant : Ast.quant;
      z : int;
      corr : corr list;
    }  (** type JALL and the SOME dual *)
  | Agg_link of {
      y : int;
      op1 : Fuzzy.Fuzzy_compare.op;
      agg : Relational.Aggregate.t;
      z : int;
      corr : corr list;
    }  (** type JA *)
  | Exists_link of { negated : bool; corr : corr list }
      (** EXISTS / NOT EXISTS with correlation: fuzzy semi/anti-join *)

type two_level = {
  select : int list;  (** outer attribute positions to project *)
  outer : Relational.Relation.t;
  inner : Relational.Relation.t;
  p1 : Bound.pred list;  (** subquery-free predicates of the outer block *)
  p2 : Bound.pred list;  (** subquery-free predicates of the inner block *)
  link : link;
  threshold : Ast.threshold option;
}

type chain_block = {
  rel : Relational.Relation.t;
  p_local : Bound.pred list;
  out_attr : int;  (** X_k: the attribute this block exports to its parent *)
  link_attr : int option;  (** Y_k: attribute compared with the child's X_{k+1} *)
  corr : corr list;  (** correlation predicates to any enclosing block *)
}

type chain = {
  blocks : chain_block list;  (** outermost first; length >= 2 *)
  top_select : int list;
  chain_threshold : Ast.threshold option;
}

type t =
  | Flat  (** no subqueries: selection / join / aggregation only *)
  | Two_level of two_level
  | Chain_query of chain
  | General  (** anything else: evaluated by the naive interpreter *)

let link_name = function
  | In_link { corr = []; _ } -> "N"
  | In_link _ -> "J"
  | Not_in_link { corr = []; _ } -> "NX"
  | Not_in_link _ -> "JX"
  | Quant_link { quant = Ast.All; _ } -> "JALL"
  | Quant_link { quant = Ast.Some_; _ } -> "JSOME"
  | Agg_link { corr = []; _ } -> "NA"
  | Agg_link _ -> "JA"
  | Exists_link { negated = false; _ } -> "JEXISTS"
  | Exists_link { negated = true; _ } -> "JNOTEXISTS"

let to_string = function
  | Flat -> "flat"
  | Two_level t -> "type " ^ link_name t.link
  | Chain_query c ->
      Printf.sprintf "chain of %d blocks" (List.length c.blocks)
  | General -> "general nested"

let has_subquery = function
  | Bound.Cmp _ -> false
  | Bound.Cmp_sub _ | Bound.In _ | Bound.Not_in _ | Bound.Quant _
  | Bound.Exists _ | Bound.Not_exists _ ->
      true

(* A Cmp predicate of an inner block is a correlation predicate if one side
   is a local attribute and the other an outer attribute; normalise so the
   local attribute is on the left. Returns [None] for purely local or
   otherwise-shaped predicates. *)
let as_corr = function
  | Bound.Cmp (Bound.Ref l, op, Bound.Ref r)
    when l.Bound.up = 0 && r.Bound.up > 0 ->
      Some
        {
          local_attr = l.Bound.attr_idx;
          op;
          up = r.Bound.up;
          outer_attr = r.Bound.attr_idx;
        }
  | Bound.Cmp (Bound.Ref l, op, Bound.Ref r)
    when r.Bound.up = 0 && l.Bound.up > 0 ->
      Some
        {
          local_attr = r.Bound.attr_idx;
          op = Fuzzy.Fuzzy_compare.flip op;
          up = l.Bound.up;
          outer_attr = l.Bound.attr_idx;
        }
  | _ -> None

let is_local_pred = function
  | Bound.Cmp (l, _, r) ->
      let local_operand = function
        | Bound.Lit _ -> true
        | Bound.Ref a -> a.Bound.up = 0
      in
      local_operand l && local_operand r
  | _ -> false

(* Split an inner block's WHERE into local predicates and correlation
   predicates; [None] if any predicate is neither (e.g. a deeper subquery or
   a correlation crossing several levels). *)
let split_inner_preds preds ~max_up =
  let rec go locals corrs = function
    | [] -> Some (List.rev locals, List.rev corrs)
    | p :: rest ->
        if is_local_pred p then go (p :: locals) corrs rest
        else (
          match as_corr p with
          | Some c when c.up <= max_up -> go locals (c :: corrs) rest
          | Some _ | None -> None)
  in
  go [] [] preds

let plain_block (q : Bound.query) =
  q.Bound.group_by = [] && q.Bound.having = [] && q.Bound.threshold = None

(* The inner block of a 2-level nested predicate: single relation, single
   column (or aggregate) select, only local + 1-level correlation preds. *)
let simple_inner (q : Bound.query) =
  match q.Bound.from with
  | [ _ ] when plain_block q -> (
      match split_inner_preds q.Bound.where ~max_up:1 with
      | Some (p2, corr) -> (
          match q.Bound.select with
          | [ Bound.Col z ] when z.Bound.up = 0 ->
              Some (`Col z.Bound.attr_idx, p2, corr)
          | [ Bound.Agg (agg, z) ] when z.Bound.up = 0 ->
              Some (`Agg (agg, z.Bound.attr_idx), p2, corr)
          | _ -> None)
      | None -> None)
  | _ -> None

(* The inner block of an EXISTS predicate: like [simple_inner] but with no
   constraint on the SELECT list (its values are irrelevant). *)
let simple_exists_inner (q : Bound.query) =
  match q.Bound.from with
  | [ (_, inner) ] when plain_block q -> (
      match split_inner_preds q.Bound.where ~max_up:1 with
      | Some (p2, corr) -> Some (inner, p2, corr)
      | None -> None)
  | _ -> None

let select_positions (q : Bound.query) =
  (* Projection of outer-block attributes only (true for every query shape
     the paper unnests). *)
  let ok = ref true in
  let positions =
    List.map
      (function
        | Bound.Col r when r.Bound.up = 0 && r.Bound.from_idx = 0 ->
            r.Bound.attr_idx
        | Bound.Col _ | Bound.Agg _ ->
            ok := false;
            -1)
      q.Bound.select
  in
  if !ok then Some positions else None

(* Try to view [q] as a chain query (Section 8): every block has one
   relation, local preds, correlation Cmp preds to enclosing blocks, and at
   most one IN-subquery linking to the next block. *)
let rec as_chain_blocks (q : Bound.query) ~level =
  match q.Bound.from with
  | [ (_, rel) ] when plain_block q || level = 0 -> (
      let subqueries, rest = List.partition has_subquery q.Bound.where in
      let locals_ok =
        List.for_all (fun p -> is_local_pred p || as_corr p <> None) rest
      in
      let p_local = List.filter is_local_pred rest in
      let corr = List.filter_map as_corr rest in
      if not locals_ok then None
      else
        let out_attr =
          match q.Bound.select with
          | [ Bound.Col r ] when r.Bound.up = 0 -> Some r.Bound.attr_idx
          (* The top block exports nothing: its answer columns, any number
             of them, become [top_select]. *)
          | _ when level = 0 -> Some 0
          | _ -> None
        in
        match (subqueries, out_attr) with
        | [], Some x ->
            Some [ { rel; p_local; out_attr = x; link_attr = None; corr } ]
        | [ Bound.In (Bound.Ref y, sub) ], Some x when y.Bound.up = 0 -> (
            match as_chain_blocks sub ~level:(level + 1) with
            | Some blocks ->
                Some
                  ({ rel; p_local; out_attr = x;
                     link_attr = Some y.Bound.attr_idx; corr }
                  :: blocks)
            | None -> None)
        | _ -> None)
  | _ -> None

let pred_has_subquery = has_subquery

let classify (q : Bound.query) : t =
  let subqueries = List.filter has_subquery q.Bound.where in
  match subqueries with
  | [] -> Flat
  | [ link_pred ] -> (
      let p1 = List.filter (fun p -> not (has_subquery p)) q.Bound.where in
      let p1_ok = List.for_all is_local_pred p1 in
      let two_level_of link sub =
        match (q.Bound.from, sub, select_positions q) with
        | [ (_, outer) ], Some (inner, p2, corr, mk), Some select
          when p1_ok && q.Bound.group_by = [] && q.Bound.having = [] ->
            Some
              (Two_level
                 {
                   select;
                   outer;
                   inner;
                   p1;
                   p2;
                   link = mk corr;
                   threshold = q.Bound.threshold;
                 })
        | _ ->
            ignore link;
            None
      in
      let simple sub_q =
        match simple_inner sub_q with
        | Some (payload, p2, corr) -> (
            match sub_q.Bound.from with
            | [ (_, inner) ] -> Some (payload, inner, p2, corr)
            | _ -> None)
        | None -> None
      in
      let attempt =
        match link_pred with
        | Bound.In (Bound.Ref y, sub) when y.Bound.up = 0 -> (
            match simple sub with
            | Some (`Col z, inner, p2, corr) ->
                two_level_of link_pred
                  (Some
                     ( inner, p2, corr,
                       fun corr -> In_link { y = y.Bound.attr_idx; z; corr } ))
            | _ -> None)
        | Bound.Not_in (Bound.Ref y, sub) when y.Bound.up = 0 -> (
            match simple sub with
            | Some (`Col z, inner, p2, corr) ->
                two_level_of link_pred
                  (Some
                     ( inner, p2, corr,
                       fun corr ->
                         Not_in_link { y = y.Bound.attr_idx; z; corr } ))
            | _ -> None)
        | Bound.Quant (Bound.Ref y, op, quant, sub) when y.Bound.up = 0 -> (
            match simple sub with
            | Some (`Col z, inner, p2, corr) ->
                two_level_of link_pred
                  (Some
                     ( inner, p2, corr,
                       fun corr ->
                         Quant_link { y = y.Bound.attr_idx; op; quant; z; corr }
                     ))
            | _ -> None)
        | Bound.Cmp_sub (Bound.Ref y, op1, sub) when y.Bound.up = 0 -> (
            match simple sub with
            | Some (`Agg (agg, z), inner, p2, corr) ->
                two_level_of link_pred
                  (Some
                     ( inner, p2, corr,
                       fun corr ->
                         Agg_link { y = y.Bound.attr_idx; op1; agg; z; corr } ))
            | _ -> None)
        | Bound.Exists sub -> (
            match simple_exists_inner sub with
            | Some (inner, p2, corr) ->
                two_level_of link_pred
                  (Some
                     (inner, p2, corr, fun corr -> Exists_link { negated = false; corr }))
            | None -> None)
        | Bound.Not_exists sub -> (
            match simple_exists_inner sub with
            | Some (inner, p2, corr) ->
                two_level_of link_pred
                  (Some
                     (inner, p2, corr, fun corr -> Exists_link { negated = true; corr }))
            | None -> None)
        | _ -> None
      in
      match attempt with
      | Some shape -> shape
      | None -> (
          (* Not a 2-level simple shape; maybe a deeper chain. *)
          match as_chain_blocks q ~level:0 with
          | Some blocks
            when List.length blocks >= 2
                 && q.Bound.group_by = [] && q.Bound.having = [] -> (
              match select_positions q with
              | Some top_select ->
                  Chain_query
                    { blocks; top_select; chain_threshold = q.Bound.threshold }
              | None -> General)
          | _ -> General))
  | _ :: _ :: _ -> General

let shape_hint q =
  if Fuzzysql.Bound.depth q <= 1 then None
  else match classify q with General -> Some (to_string General) | _ -> None

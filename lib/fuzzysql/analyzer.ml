open Relational

exception Error of string

(* ------------------------------------------------------------------ *)
(* Accumulating context

   Binding no longer stops at the first problem: every element binder
   reports into [diags] and returns [None] for the unresolvable piece, so
   one pass surfaces all independent errors. The bound query is produced
   only when nothing was reported at Error severity — partially-resolved
   scopes make indices meaningless, so a failed bind yields [None] and
   the diagnostics are the sole result. *)

type ctx = {
  catalog : Catalog.t;
  terms : Fuzzy.Term.t;
  mutable diags : Diagnostic.t list;
}

let report ctx ?hint ~code ~severity ~span fmt =
  Printf.ksprintf
    (fun message ->
      ctx.diags <- Diagnostic.make ?hint ~code ~severity ~span message :: ctx.diags)
    fmt

let err ctx ?hint ~code ~span fmt =
  report ctx ?hint ~code ~severity:Diagnostic.Error ~span fmt

let all_some xs =
  if List.exists Option.is_none xs then None
  else Some (List.filter_map Fun.id xs)

type scope = (string * Relation.t) list list
(** blocks, innermost first; each block lists its FROM entries *)

type resolution = Resolved of Bound.attr_ref | Unknown | Ambiguous

(* Silent resolution — used both for real binding (which reports on
   failure) and for typing context (which must not double-report). *)
let try_resolve (scopes : scope) name =
  let rec in_blocks up = function
    | [] -> Unknown
    | block :: outer -> (
        let hits =
          List.concat
            (List.mapi
               (fun from_idx (_, rel) ->
                 match Schema.index_of (Relation.schema rel) name with
                 | Some attr_idx -> [ (from_idx, attr_idx) ]
                 | None -> [])
               block)
        in
        match hits with
        | [] -> in_blocks (up + 1) outer
        | [ (from_idx, attr_idx) ] ->
            Resolved { Bound.up; from_idx; attr_idx; display = name }
        | _ :: _ :: _ -> Ambiguous)
  in
  in_blocks 0 scopes

(* Candidates both bare and alias-qualified, so a misspelling of [F.NAME]
   (the common, qualified spelling) still lands within the edit budget. *)
let visible_attrs (scopes : scope) =
  List.concat_map
    (fun block ->
      List.concat_map
        (fun (alias, rel) ->
          List.concat_map
            (fun (a, _) -> [ a; alias ^ "." ^ a ])
            (Array.to_list (Schema.attrs (Relation.schema rel))))
        block)
    scopes

let resolve_attr ctx (scopes : scope) ~span name =
  match try_resolve scopes name with
  | Resolved r -> Some r
  | Ambiguous ->
      err ctx ~code:"FSQL012" ~span "ambiguous attribute %s" name;
      None
  | Unknown ->
      let hint =
        Option.map
          (Printf.sprintf "did you mean %s?")
          (Diagnostic.suggest ~candidates:(visible_attrs scopes) name)
      in
      err ctx ?hint ~code:"FSQL011" ~span "unknown attribute %s" name;
      None

let attr_ty (scopes : scope) (r : Bound.attr_ref) =
  let block = List.nth scopes r.Bound.up in
  let _, rel = List.nth block r.Bound.from_idx in
  Schema.ty_of (Relation.schema rel) r.Bound.attr_idx

let suggest_term ctx s =
  let hedges, base = Fuzzy.Hedge.strip s in
  let prefix =
    String.concat ""
      (List.map
         (function Fuzzy.Hedge.Very -> "very " | Fuzzy.Hedge.Somewhat -> "somewhat ")
         hedges)
  in
  Option.map
    (fun t -> Printf.sprintf "did you mean %S?" (prefix ^ t))
    (Diagnostic.suggest ~candidates:(Fuzzy.Term.names ctx.terms) base)

(* The constructors validate a literal (ordered trapezoid bounds, a
   non-negative spread, a positive-degree point); a literal they refuse is
   the query's error, not the server's. *)
let fuzzy_literal ctx ~span make =
  match make () with
  | p -> Some (Value.Fuzzy p)
  | exception Invalid_argument msg ->
      let reason =
        match String.index_opt msg ':' with
        | Some i -> String.trim (String.sub msg (i + 1) (String.length msg - i - 1))
        | None -> msg
      in
      err ctx ~code:"FSQL028" ~span "malformed fuzzy literal: %s" reason;
      None

let resolve_const ctx ~expected ~span c =
  match (c, expected) with
  | Ast.Num f, Some Schema.TStr ->
      err ctx ~code:"FSQL020" ~span "number %g compared with a string attribute" f;
      None
  | Ast.Num f, _ -> Some (Value.crisp_num f)
  | Ast.Str s, Some Schema.TStr -> Some (Value.Str s)
  | Ast.Str s, Some Schema.TNum -> (
      match Fuzzy.Hedge.lookup ctx.terms s with
      | Some p -> Some (Value.Fuzzy p)
      | None ->
          let hint = suggest_term ctx s in
          err ctx ?hint ~code:"FSQL021" ~span
            "unknown linguistic term %S (numeric context)" s;
          None)
  | Ast.Str s, None -> (
      match Fuzzy.Hedge.lookup ctx.terms s with
      | Some p -> Some (Value.Fuzzy p)
      | None -> Some (Value.Str s))
  | (Ast.Trap _ | Ast.Tri _ | Ast.About _ | Ast.Discrete _), Some Schema.TStr ->
      err ctx ~code:"FSQL022" ~span "fuzzy literal compared with a string attribute";
      None
  | Ast.Trap (a, b, c, d), _ ->
      fuzzy_literal ctx ~span (fun () ->
          Fuzzy.Possibility.trap (Fuzzy.Trapezoid.make a b c d))
  | Ast.Tri (a, p, d), _ ->
      fuzzy_literal ctx ~span (fun () -> Fuzzy.Possibility.triangle a p d)
  | Ast.About (v, spread), _ ->
      fuzzy_literal ctx ~span (fun () -> Fuzzy.Possibility.about v ~spread)
  | Ast.Discrete pts, _ ->
      fuzzy_literal ctx ~span (fun () -> Fuzzy.Possibility.discrete pts)

let rec bind_query ctx ~outer (q : Ast.query) : Bound.query option =
  if q.Ast.select = [] then
    err ctx ~code:"FSQL013" ~span:q.Ast.q_span "empty SELECT list";
  if q.Ast.from = [] then
    err ctx ~code:"FSQL014" ~span:q.Ast.q_span "empty FROM list";
  (* Bind the FROM list first: even when a relation is missing we keep the
     resolvable tail so attribute errors in the rest of the block still
     surface (the partially-built scope only feeds diagnostics — a block
     with any error never yields a bound query). *)
  let from_ok = ref true in
  let from =
    List.filter_map
      (fun (rel_name, alias, span) ->
        match Catalog.find ctx.catalog rel_name with
        | None ->
            from_ok := false;
            let hint =
              Option.map
                (Printf.sprintf "did you mean %s?")
                (Diagnostic.suggest ~candidates:(Catalog.names ctx.catalog)
                   rel_name)
            in
            err ctx ?hint ~code:"FSQL010" ~span "unknown relation %s" rel_name;
            None
        | Some rel ->
            let alias = Option.value alias ~default:rel_name in
            Some (alias, Relation.with_name rel alias))
      q.Ast.from
  in
  let scopes = from :: outer in
  let local_ref ~span name =
    (* resolving against the single local block always gives up = 0 *)
    resolve_attr ctx [ from ] ~span name
  in
  let select =
    all_some
      (List.map
         (function
           | Ast.Col (name, span) ->
               Option.map (fun r -> Bound.Col r) (local_ref ~span name)
           | Ast.Agg (_, "*", span) ->
               err ctx ~code:"FSQL015" ~span
                 "COUNT(*) is not supported: aggregate a named attribute";
               None
           | Ast.Agg (agg, name, span) ->
               Option.map (fun r -> Bound.Agg (agg, r)) (local_ref ~span name))
         q.Ast.select)
  in
  let where = all_some (List.map (bind_pred ctx ~scopes) q.Ast.where) in
  let group_by =
    all_some (List.map (fun (name, span) -> local_ref ~span name) q.Ast.group_by)
  in
  let having = all_some (List.map (bind_having ctx ~scopes) q.Ast.having) in
  (match q.Ast.with_d with
  | Some { Ast.value; _ } when value < 0.0 || value > 1.0 ->
      err ctx ~code:"FSQL023" ~span:q.Ast.with_span
        "WITH threshold %g outside [0, 1]" value
  | _ -> ());
  (match q.Ast.limit with
  | Some k when k < 0 ->
      err ctx ~code:"FSQL025" ~span:q.Ast.q_span "negative LIMIT %d" k
  | _ -> ());
  if outer <> [] && (q.Ast.order_by_d <> None || q.Ast.limit <> None) then
    err ctx ~code:"FSQL024" ~span:q.Ast.q_span
      "ORDER BY / LIMIT are only allowed on the outermost query block";
  match (select, where, group_by, having) with
  | Some select, Some where, Some group_by, Some having
    when !from_ok && q.Ast.select <> [] && q.Ast.from <> [] ->
      Some
        {
          Bound.distinct = q.Ast.distinct;
          select;
          from;
          where;
          group_by;
          having;
          threshold = q.Ast.with_d;
          order_by_d = q.Ast.order_by_d;
          limit = q.Ast.limit;
        }
  | _ -> None

and bind_operand ctx ~scopes ~expected = function
  | Ast.Attr (name, span) ->
      Option.map (fun r -> Bound.Ref r) (resolve_attr ctx scopes ~span name)
  | Ast.Const (c, span) ->
      Option.map (fun v -> Bound.Lit v) (resolve_const ctx ~expected ~span c)
  | Ast.Agg_of (_, _, span) ->
      err ctx ~code:"FSQL016" ~span "aggregate operands are only allowed in HAVING";
      None

and bind_cmp ctx ~scopes lhs op rhs =
  (* Resolve attribute sides first so constants get the right typing
     context (a string against a numeric attribute is a linguistic term).
     This probe is silent — the real binding below reports failures. *)
  let expected_from o =
    match o with
    | Ast.Attr (name, _) -> (
        match try_resolve scopes name with
        | Resolved r -> Some (attr_ty scopes r)
        | Unknown | Ambiguous -> None)
    | Ast.Const _ | Ast.Agg_of _ -> None
  in
  let e1 = expected_from rhs and e2 = expected_from lhs in
  let b1 = bind_operand ctx ~scopes ~expected:e1 lhs in
  let b2 = bind_operand ctx ~scopes ~expected:e2 rhs in
  match (b1, b2) with
  | Some b1, Some b2 -> Some (Bound.Cmp (b1, op, b2))
  | _ -> None

and bind_pred ctx ~scopes p : Bound.pred option =
  let sub q = bind_query ctx ~outer:scopes q in
  let single_col (ast_q : Ast.query) q =
    match q.Bound.select with
    | [ Bound.Col _ ] -> Some q
    | _ ->
        err ctx ~code:"FSQL018" ~span:ast_q.Ast.q_span
          "subquery of IN / quantifier must select exactly one column";
        None
  in
  let single_agg (ast_q : Ast.query) q =
    match q.Bound.select with
    | [ Bound.Agg _ ] -> Some q
    | _ ->
        err ctx ~code:"FSQL019" ~span:ast_q.Ast.q_span
          "scalar subquery must select exactly one aggregate";
        None
  in
  match p with
  | Ast.Cmp (lhs, op, rhs) -> bind_cmp ctx ~scopes lhs op rhs
  | Ast.CmpSub (lhs, op, q) -> (
      let b = bind_operand ctx ~scopes ~expected:None lhs in
      match (b, Option.bind (sub q) (single_agg q)) with
      | Some b, Some bq -> Some (Bound.Cmp_sub (b, op, bq))
      | _ -> None)
  | Ast.In (lhs, q) -> (
      let b = bind_operand ctx ~scopes ~expected:None lhs in
      match (b, Option.bind (sub q) (single_col q)) with
      | Some b, Some bq -> Some (Bound.In (b, bq))
      | _ -> None)
  | Ast.Not_in (lhs, q) -> (
      let b = bind_operand ctx ~scopes ~expected:None lhs in
      match (b, Option.bind (sub q) (single_col q)) with
      | Some b, Some bq -> Some (Bound.Not_in (b, bq))
      | _ -> None)
  | Ast.Quant (lhs, op, quant, q) -> (
      let b = bind_operand ctx ~scopes ~expected:None lhs in
      match (b, Option.bind (sub q) (single_col q)) with
      | Some b, Some bq -> Some (Bound.Quant (b, op, quant, bq))
      | _ -> None)
  | Ast.Exists q -> Option.map (fun bq -> Bound.Exists bq) (sub q)
  | Ast.Not_exists q -> Option.map (fun bq -> Bound.Not_exists bq) (sub q)

and bind_having ctx ~scopes p : Bound.having option =
  let make ~span agg attr op c cspan =
    match resolve_attr ctx scopes ~span attr with
    | None -> None
    | Some h_attr when h_attr.Bound.up <> 0 ->
        err ctx ~code:"FSQL026" ~span
          "HAVING aggregate must reference this block's relations";
        None
    | Some h_attr ->
        Option.map
          (fun h_value -> { Bound.h_agg = agg; h_attr; h_op = op; h_value })
          (resolve_const ctx ~expected:None ~span:cspan c)
  in
  match p with
  | Ast.Cmp (Ast.Agg_of (agg, attr, span), op, Ast.Const (c, cspan)) ->
      make ~span agg attr op c cspan
  | Ast.Cmp (Ast.Const (c, cspan), op, Ast.Agg_of (agg, attr, span)) ->
      make ~span agg attr (Fuzzy.Fuzzy_compare.flip op) c cspan
  | _ ->
      err ctx ~code:"FSQL027" ~span:(Ast.predicate_span p)
        "HAVING supports only AGG(attr) op constant";
      None

let analyze ~catalog ~terms q =
  let ctx = { catalog; terms; diags = [] } in
  let bound = bind_query ctx ~outer:[] q in
  let diags = Diagnostic.sort ctx.diags in
  let bound = if Diagnostic.has_errors diags then None else bound in
  (bound, diags)

let bind ~catalog ~terms q =
  match analyze ~catalog ~terms q with
  | Some b, _ -> b
  | None, diags -> (
      match Diagnostic.errors diags with
      | d :: _ -> raise (Error d.Diagnostic.message)
      | [] -> raise (Error "semantic analysis failed"))

let bind_string ~catalog ~terms s = bind ~catalog ~terms (Parser.parse s)

(** Shared degree-evaluation helpers used by every executor.

    A [stack] binds the FROM tuples of each enclosing query block, innermost
    first; bound attribute references are resolved by climbing [up] levels
    then indexing the FROM entry and the attribute. *)

open Relational
open Fuzzy

type stack = Ftuple.t array list

let resolve_ref (stack : stack) (r : Fuzzysql.Bound.attr_ref) =
  let block = List.nth stack r.Fuzzysql.Bound.up in
  Ftuple.value block.(r.Fuzzysql.Bound.from_idx) r.Fuzzysql.Bound.attr_idx

let operand_value stack = function
  | Fuzzysql.Bound.Ref r -> resolve_ref stack r
  | Fuzzysql.Bound.Lit v -> v

let cmp_degree (stats : Storage.Iostats.t) stack lhs op rhs =
  Storage.Iostats.record_fuzzy_op stats;
  Value.compare_degree op (operand_value stack lhs) (operand_value stack rhs)

(** Degree of a conjunction of subquery-free predicates for one tuple of a
    single-relation block ([p1] of the outer block, [p2] of the inner). *)
let local_degree stats (tuple : Ftuple.t) preds =
  let stack = [ [| tuple |] ] in
  List.fold_left
    (fun acc p ->
      match p with
      | Fuzzysql.Bound.Cmp (l, op, r) ->
          Degree.conj acc (cmp_degree stats stack l op r)
      | _ -> invalid_arg "Semantics.local_degree: predicate has a subquery")
    Degree.one preds

(** Apply the WITH clause to a materialised answer; a filtered copy
    replaces (and frees) [rel]. *)
let apply_threshold rel = function
  | None -> rel
  | Some { Fuzzysql.Ast.strict; value } ->
      Fun.protect ~finally:(fun () -> Relation.destroy rel) (fun () ->
          Algebra.select rel ~pred:(fun tup ->
              let d = Ftuple.degree tup in
              if (strict && d > value) || ((not strict) && d >= value) then
                Degree.one
              else Degree.zero))

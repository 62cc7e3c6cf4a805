(** Naive evaluation of (nested) Fuzzy SQL queries, straight from the
    execution semantics of Sections 2 and 4-7 of the paper.

    Subqueries are re-evaluated for every candidate binding of the enclosing
    blocks — the inner relation is scanned once per outer tuple, which is
    exactly the behaviour whose cost the paper sets out to eliminate. This
    evaluator is the correctness oracle for the unnesting executors
    (Theorems 4.1-8.1 are property-tested against it) and the reference
    implementation of the semantics. *)

open Relational
open Fuzzy
open Fuzzysql

let stats_of (q : Bound.query) =
  match q.Bound.from with
  | (_, rel) :: _ -> (Relation.env rel).Storage.Env.stats
  | [] -> invalid_arg "Naive_eval: query without FROM"

(* Fuzzy set of values: structural value -> max degree. *)
module Vmap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_structural
end)

let vmap_add v d m =
  if not (Degree.positive d) then m
  else
    Vmap.update v
      (function None -> Some d | Some d' -> Some (Degree.disj d d'))
      m

(* Enumerate all FROM combinations of a block with their base degree
   (the min of the member tuples' membership degrees). *)
let rec combos rels =
  match rels with
  | [] -> Seq.return ([], Degree.one)
  | (_, rel) :: rest ->
      (* The inner relation is rescanned for every combination of the outer
         ones: the naive nested-loops pattern. *)
      Seq.concat_map
        (fun (tuples, d) ->
          Seq.map
            (fun tup ->
              (tup :: tuples, Degree.conj d (Ftuple.degree tup)))
            (List.to_seq (Relation.to_list rel)))
        (combos rest)

(* All satisfying bindings of a block: yields (stack-frame, degree > 0 of
   membership+WHERE). *)
let rec satisfying (q : Bound.query) ~outer : (Ftuple.t array * Degree.t) Seq.t =
  let stats = stats_of q in
  Seq.filter_map
    (fun (tuples, d0) ->
      (* [combos] prepends while recursing, so the list is already in FROM
         order. *)
      let frame = Array.of_list tuples in
      let stack = frame :: outer in
      let d =
        List.fold_left
          (fun acc p ->
            if Degree.positive acc then
              Degree.conj acc (pred_degree stats ~stack p)
            else acc)
          d0 q.Bound.where
      in
      if Degree.positive d then Some (frame, d) else None)
    (combos q.Bound.from)

(* The fuzzy set of values produced by a single-column subquery under the
   given outer context: the temporary relation T (or T(r)) of the paper. *)
and subquery_values (q : Bound.query) ~outer : Degree.t Vmap.t =
  let extract =
    match q.Bound.select with
    | [ Bound.Col r ] -> r
    | _ -> invalid_arg "Naive_eval: subquery must select a single column"
  in
  Seq.fold_left
    (fun m (frame, d) ->
      vmap_add (Semantics.resolve_ref [ frame ] extract) d m)
    Vmap.empty
    (satisfying q ~outer)

and scalar_aggregate (q : Bound.query) ~outer =
  (* Type JA inner block: collect T(r), then apply AGG to its value set.
     D(A(r)) = 1 in Fuzzy SQL. *)
  let agg, extract =
    match q.Bound.select with
    | [ Bound.Agg (agg, r) ] -> (agg, r)
    | _ -> invalid_arg "Naive_eval: scalar subquery must select one aggregate"
  in
  let values =
    Seq.fold_left
      (fun m (frame, d) ->
        vmap_add (Semantics.resolve_ref [ frame ] extract) d m)
      Vmap.empty
      (satisfying q ~outer)
  in
  let vs = List.map fst (Vmap.bindings values) in
  match (Aggregate.apply agg vs, agg) with
  | Some a, _ -> Some a
  | None, Aggregate.Count -> Some (Value.Int 0)
  | None, _ -> None

and pred_degree stats ~stack (p : Bound.pred) : Degree.t =
  match p with
  | Bound.Cmp (l, op, r) -> Semantics.cmp_degree stats stack l op r
  | Bound.In (x, sub) ->
      let xv = Semantics.operand_value stack x in
      Vmap.fold
        (fun z dz acc ->
          Storage.Iostats.record_fuzzy_op stats;
          Degree.disj acc (Degree.conj dz (Value.compare_degree Fuzzy_compare.Eq xv z)))
        (subquery_values sub ~outer:stack)
        Degree.zero
  | Bound.Not_in (x, sub) ->
      Degree.neg (pred_degree stats ~stack (Bound.In (x, sub)))
  | Bound.Quant (x, op, Ast.All, sub) ->
      (* d(v op ALL F) = 1 - max_z min(mu_F(z), 1 - d(v op z)); 1 if empty. *)
      let xv = Semantics.operand_value stack x in
      Degree.neg
        (Vmap.fold
           (fun z dz acc ->
             Storage.Iostats.record_fuzzy_op stats;
             Degree.disj acc
               (Degree.conj dz (Degree.neg (Value.compare_degree op xv z))))
           (subquery_values sub ~outer:stack)
           Degree.zero)
  | Bound.Quant (x, op, Ast.Some_, sub) ->
      let xv = Semantics.operand_value stack x in
      Vmap.fold
        (fun z dz acc ->
          Storage.Iostats.record_fuzzy_op stats;
          Degree.disj acc (Degree.conj dz (Value.compare_degree op xv z)))
        (subquery_values sub ~outer:stack)
        Degree.zero
  | Bound.Exists sub ->
      Seq.fold_left
        (fun acc (_, d) -> Degree.disj acc d)
        Degree.zero
        (satisfying sub ~outer:stack)
  | Bound.Not_exists sub ->
      Degree.neg (pred_degree stats ~stack (Bound.Exists sub))
  | Bound.Cmp_sub (x, op, sub) -> (
      match scalar_aggregate sub ~outer:stack with
      | None -> Degree.zero
      | Some a ->
          Storage.Iostats.record_fuzzy_op stats;
          Degree.conj Degree.one
            (Value.compare_degree op (Semantics.operand_value stack x) a))

(* ----- top-level result construction ----- *)

let ref_ty (q : Bound.query) (r : Bound.attr_ref) =
  let _, rel = List.nth q.Bound.from r.Bound.from_idx in
  Schema.ty_of (Relation.schema rel) r.Bound.attr_idx

let result_schema (q : Bound.query) name =
  let attr_of = function
    | Bound.Col r -> (r.Bound.display, ref_ty q r)
    | Bound.Agg (agg, r) ->
        ( Printf.sprintf "%s_%s" (Aggregate.to_string agg) r.Bound.display,
          match agg with Aggregate.Count -> Schema.TNum | _ -> ref_ty q r )
  in
  (* Rename duplicates introduced by projecting the same attribute twice. *)
  let seen = Hashtbl.create 8 in
  let attrs =
    List.map
      (fun item ->
        let base, ty = attr_of item in
        let n = try Hashtbl.find seen base with Not_found -> 0 in
        Hashtbl.replace seen base (n + 1);
        ((if n = 0 then base else Printf.sprintf "%s_%d" base n), ty))
      q.Bound.select
  in
  Schema.make ~name attrs

let grouped_rows (q : Bound.query) stats rows =
  (* [rows] are (frame, degree) pairs. Group by the GROUP BY key (or a single
     group when only aggregates are selected), aggregate each group's fuzzy
     value sets, and evaluate HAVING. *)
  let key_of frame =
    Array.of_list
      (List.map (fun r -> Semantics.resolve_ref [ frame ] r) q.Bound.group_by)
  in
  let module Kmap = Map.Make (struct
    type t = Value.t array

    let compare a b =
      let c = Int.compare (Array.length a) (Array.length b) in
      if c <> 0 then c
      else
        let rec go i =
          if i >= Array.length a then 0
          else
            match Value.compare_structural a.(i) b.(i) with
            | 0 -> go (i + 1)
            | c -> c
        in
        go 0
  end) in
  let groups =
    List.fold_left
      (fun m (frame, d) ->
        Kmap.update (key_of frame)
          (function
            | None -> Some [ (frame, d) ]
            | Some l -> Some ((frame, d) :: l))
          m)
      Kmap.empty rows
  in
  Kmap.fold
    (fun key members acc ->
      let fuzzy_set_of r =
        List.fold_left
          (fun m (frame, d) -> vmap_add (Semantics.resolve_ref [ frame ] r) d m)
          Vmap.empty members
      in
      let agg_value agg r =
        let vs = List.map fst (Vmap.bindings (fuzzy_set_of r)) in
        match (Aggregate.apply agg vs, agg) with
        | Some a, _ -> Some a
        | None, Aggregate.Count -> Some (Value.Int 0)
        | None, _ -> None
      in
      let group_degree =
        List.fold_left (fun m (_, d) -> Degree.disj m d) Degree.zero members
      in
      let having_degree =
        List.fold_left
          (fun acc (h : Bound.having) ->
            match agg_value h.Bound.h_agg h.Bound.h_attr with
            | None -> Degree.zero
            | Some a ->
                Storage.Iostats.record_fuzzy_op stats;
                Degree.conj acc
                  (Value.compare_degree h.Bound.h_op a h.Bound.h_value))
          Degree.one q.Bound.having
      in
      let select_values =
        List.map
          (function
            | Bound.Col r -> (
                (* must be a grouping attribute *)
                match
                  List.find_opt
                    (fun (g : Bound.attr_ref) ->
                      g.Bound.from_idx = r.Bound.from_idx
                      && g.Bound.attr_idx = r.Bound.attr_idx && g.Bound.up = 0)
                    q.Bound.group_by
                with
                | Some _ ->
                    let ki =
                      ref (-1)
                    in
                    List.iteri
                      (fun i (g : Bound.attr_ref) ->
                        if
                          g.Bound.from_idx = r.Bound.from_idx
                          && g.Bound.attr_idx = r.Bound.attr_idx
                        then if !ki < 0 then ki := i)
                      q.Bound.group_by;
                    Some key.(!ki)
                | None ->
                    invalid_arg
                      "Naive_eval: non-aggregated SELECT column must appear \
                       in GROUPBY")
            | Bound.Agg (agg, r) -> agg_value agg r)
          q.Bound.select
      in
      if List.exists (fun v -> v = None) select_values then acc
      else
        let values = Array.of_list (List.map Option.get select_values) in
        let d = Degree.conj group_degree having_degree in
        if Degree.positive d then Ftuple.make values d :: acc else acc)
    groups []

let query ?(name = "answer") ?trace (q : Bound.query) : Relation.t =
  let module Trace = Storage.Trace in
  let stats = stats_of q in
  let env =
    match q.Bound.from with
    | (_, rel) :: _ -> Relation.env rel
    | [] -> invalid_arg "Naive_eval.query: empty FROM"
  in
  let schema = result_schema q name in
  let rows =
    Trace.with_span trace ~stats ~pool:env.Storage.Env.pool "naive-bindings"
      (fun () ->
        let rows = List.of_seq (satisfying q ~outer:[]) in
        Trace.set_rows trace (List.length rows);
        rows)
  in
  let is_grouped =
    q.Bound.group_by <> []
    || List.exists (function Bound.Agg _ -> true | Bound.Col _ -> false)
         q.Bound.select
  in
  let tuples =
    if is_grouped then grouped_rows q stats rows
    else
      List.map
        (fun (frame, d) ->
          let values =
            Array.of_list
              (List.map
                 (function
                   | Bound.Col r -> Semantics.resolve_ref [ frame ] r
                   | Bound.Agg _ -> assert false)
                 q.Bound.select)
          in
          Ftuple.make values d)
        rows
  in
  let raw = Relation.of_list env schema tuples in
  Fun.protect ~finally:(fun () -> Relation.destroy raw) @@ fun () ->
  let deduped =
    Trace.with_span trace ~stats "dedup" (fun () ->
        let deduped = Algebra.dedup_max raw in
        Trace.set_rows trace (Relation.cardinality deduped);
        deduped)
  in
  Semantics.apply_threshold deduped q.Bound.threshold

(** EXPLAIN: a textual account of how the planner will evaluate a query —
    the classified shape, the chosen method, the sort/sweep attributes, the
    correlation residuals, and histogram-based cardinality estimates. *)

open Relational

let attr_name rel i = Schema.attr_name (Relation.schema rel) i

let corr_to_string ~outer ~inner (c : Classify.corr) =
  Printf.sprintf "%s %s %s"
    (attr_name inner c.Classify.local_attr)
    (Fuzzy.Fuzzy_compare.op_to_string c.Classify.op)
    (attr_name outer c.Classify.outer_attr)

let link_description ~outer ~inner = function
  | Classify.In_link { y; z; corr } ->
      ( Printf.sprintf "d(%s = %s)" (attr_name outer y) (attr_name inner z),
        corr, Some (y, z) )
  | Classify.Not_in_link { y; z; corr } ->
      ( Printf.sprintf "group-min over 1 - min(.., d(%s = %s), ..)"
          (attr_name outer y) (attr_name inner z),
        corr, Some (y, z) )
  | Classify.Quant_link { y; op; quant; z; corr } ->
      ( Printf.sprintf "quantified %s: d(%s %s %s)"
          (match quant with Fuzzysql.Ast.All -> "ALL" | Fuzzysql.Ast.Some_ -> "SOME")
          (attr_name outer y)
          (Fuzzy.Fuzzy_compare.op_to_string op)
          (attr_name inner z),
        corr, None )
  | Classify.Agg_link { y; op1; agg; z; corr } ->
      ( Printf.sprintf "pipelined %s(%s) compared as d(%s %s AGG)"
          (Aggregate.to_string agg) (attr_name inner z) (attr_name outer y)
          (Fuzzy.Fuzzy_compare.op_to_string op1),
        corr, None )
  | Classify.Exists_link { negated; corr } ->
      ( (if negated then "fuzzy anti-join (NOT EXISTS)"
         else "fuzzy semi-join (EXISTS)"),
        corr, None )

let two_level_text buf (t : Classify.two_level) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let { Classify.outer; inner; p1; p2; link; threshold; select; _ } = t in
  let link_text, corr, in_attrs = link_description ~outer ~inner link in
  add "method: unnest + extended merge-join (Sections 4-7)\n";
  add "  reduce %s by p1 (%d local predicate%s)\n"
    (Schema.name (Relation.schema outer))
    (List.length p1)
    (if List.length p1 = 1 then "" else "s");
  add "  reduce %s by p2 (%d local predicate%s)\n"
    (Schema.name (Relation.schema inner))
    (List.length p2)
    (if List.length p2 = 1 then "" else "s");
  let sweep =
    match (in_attrs, corr) with
    | Some (y, z), _ -> Some (y, z)
    | None, corr -> (
        match
          List.find_opt
            (fun (c : Classify.corr) -> c.Classify.op = Fuzzy.Fuzzy_compare.Eq)
            corr
        with
        | Some c -> Some (c.Classify.outer_attr, c.Classify.local_attr)
        | None -> None)
  in
  (match sweep with
  | Some (y, z) ->
      add "  sort both on the Definition 3.1 interval order of (%s, %s)\n"
        (attr_name outer y) (attr_name inner z);
      add "  single sweep; per outer tuple examine Rng(r): %s\n" link_text;
      let hy = Histogram.build outer ~attr:y and hz = Histogram.build inner ~attr:z in
      add "  estimates: |%s| = %d, |%s| = %d, expected matching pairs ~ %.0f\n"
        (Schema.name (Relation.schema outer))
        (Relation.cardinality outer)
        (Schema.name (Relation.schema inner))
        (Relation.cardinality inner)
        (Histogram.estimate_eq_join hy hz)
  | None ->
      add "  no equality to sweep on -> falls back to the nested-loop method\n");
  (match corr with
  | [] -> ()
  | corr ->
      add "  residual correlation predicates: %s\n"
        (String.concat ", " (List.map (corr_to_string ~outer ~inner) corr)));
  add "  project %s, duplicate-eliminate keeping max degree\n"
    (String.concat ", " (List.map (attr_name outer) select));
  add "  rewritten flat query (paper notation):\n    %s\n" (Rewrite_sql.two_level t);
  match threshold with
  | Some { Fuzzysql.Ast.strict; value } ->
      add "  threshold WITH D %s %g (pushed down%s)\n"
        (if strict then ">" else ">=") value
        (if Pushdown.inner_prunable link then " on both sides"
         else " on the outer side only")
  | None -> ()

let chain_text buf (c : Classify.chain) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let order = Chain_order.plan c in
  let blocks = Array.of_list c.Classify.blocks in
  let name i = Schema.name (Relation.schema blocks.(i).Classify.rel) in
  add "method: unnest to a K-way flat join (Theorem 8.1), merge-joins only\n";
  add "  blocks: %s\n"
    (String.concat " -> " (List.map (fun (b : Classify.chain_block) ->
         Schema.name (Relation.schema b.Classify.rel)) c.Classify.blocks));
  add "  join order (interval DP over estimated intermediate sizes):\n";
  add "    start with %s\n" (name order.Chain_order.start);
  List.iter
    (fun { Chain_order.block; carried; semi_join } ->
      add "    %s %s, carry %s\n"
        (if semi_join then "semi-join" else "join")
        (name block)
        (String.concat ", "
           (List.map
              (fun (b, a) -> name b ^ "." ^ attr_name blocks.(b).Classify.rel a)
              carried)))
    (Chain_order.cascade c order);
  add "    estimated total intermediate tuples: %.0f\n"
    order.Chain_order.estimated_cost;
  add "  each step keeps only the carried attributes, max-deduplicated\n";
  add "  rewritten flat query (Theorem 8.1):\n    %s\n" (Rewrite_sql.chain c)

let explain (q : Fuzzysql.Bound.query) : string =
  let buf = Buffer.create 512 in
  let shape = Classify.classify q in
  Buffer.add_string buf ("shape: " ^ Classify.to_string shape ^ "\n");
  (match shape with
  | Classify.Two_level t -> two_level_text buf t
  | Classify.Chain_query c -> chain_text buf c
  | Classify.Flat ->
      Buffer.add_string buf
        "method: direct evaluation (nested loops over the FROM relations,\n\
        \  grouped aggregation if requested, dedup-max, threshold)\n"
  | Classify.General ->
      Buffer.add_string buf
        "method: naive interpreter (inner blocks re-evaluated per outer\n\
        \  binding) - the shape is outside the paper's unnestable classes\n");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: run the query under a trace collector, then annotate
   the recorded operator spans with the planner's cardinality estimates.
   The estimates are computed AFTER the run, on the base relations — the
   histogram build scans must not pollute the traced I/O counters. *)

type analysis = {
  answer : Relation.t;
  trace : Storage.Trace.t;
  text : string;
}

(* The sweep equality the two-level plan would pick (mirrors the dispatch
   in {!Merge_exec.run}). *)
let sweep_attrs (t : Classify.two_level) =
  match t.Classify.link with
  | Classify.In_link { y; z; _ } | Classify.Not_in_link { y; z; _ } ->
      Some (y, z)
  | Classify.Quant_link { corr; _ }
  | Classify.Exists_link { corr; _ }
  | Classify.Agg_link { corr; _ } -> (
      match
        List.find_opt
          (fun (c : Classify.corr) -> c.Classify.op = Fuzzy.Fuzzy_compare.Eq)
          corr
      with
      | Some c -> Some (c.Classify.outer_attr, c.Classify.local_attr)
      | None -> None)

let annotate_estimates trace (shape : Classify.t) =
  let module Trace = Storage.Trace in
  let set_on name est =
    Trace.iter_spans trace (fun sp ->
        if Trace.span_name sp = name then Trace.span_set_est_rows sp est)
  in
  match shape with
  | Classify.Two_level t -> (
      match sweep_attrs t with
      | Some (y, z) ->
          let hy = Histogram.build t.Classify.outer ~attr:y
          and hz = Histogram.build t.Classify.inner ~attr:z in
          let est = Histogram.estimate_eq_join hy hz in
          (* The sweep emits one callback per outer tuple; the estimated
             matching pairs bound what the callbacks fold over. *)
          set_on "sweep" est;
          set_on "query" (float_of_int (Relation.cardinality t.Classify.outer))
      | None -> ())
  | Classify.Chain_query c ->
      let order = Chain_order.plan c in
      set_on "query" order.Chain_order.estimated_cost
  | Classify.Flat | Classify.General -> ()

let analyze ?name ?strategy ?mem_pages ?chain_dp
    (q : Fuzzysql.Bound.query) : analysis =
  let module Trace = Storage.Trace in
  let trace = Trace.create () in
  let answer =
    Planner.run ?name ?strategy ?mem_pages ?chain_dp ~trace q
  in
  annotate_estimates trace (Classify.classify q);
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (explain q);
  Buffer.add_string buf "analyze:\n";
  Buffer.add_string buf (Format.asprintf "%a" Trace.pp_tree trace);
  Printf.ksprintf (Buffer.add_string buf) "actual answer rows: %d\n"
    (Relation.cardinality answer);
  { answer; trace; text = Buffer.contents buf }

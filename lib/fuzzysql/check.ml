open Relational

(* ------------------------------------------------------------------ *)
(* Loaded-domain statistics

   One scan per relation at [ctx] construction time records, for every
   numeric attribute, the hull of the stored values' supports and whether
   every stored value is crisp. Relations are matched back by physical
   heap-file identity, so aliasing through [Relation.with_name] (which
   shares the file) finds the same statistics. *)

type attr_stats = {
  dom : Fuzzy.Interval.t option;  (** hull of loaded supports; [None] when
                                      the column holds no numeric value *)
  all_crisp : bool;
}

type rel_stats = { file : Storage.Heap_file.t; stats : attr_stats array }

type ctx = {
  catalog : Catalog.t;
  terms : Fuzzy.Term.t;
  rels : rel_stats list;
}

let scan rel =
  let n = Schema.arity (Relation.schema rel) in
  let dom = Array.make n None and all_crisp = Array.make n true in
  Relation.iter rel (fun tup ->
      for i = 0 to n - 1 do
        match Value.to_possibility (Ftuple.value tup i) with
        | None -> ()
        | Some p ->
            let s = Fuzzy.Possibility.support p in
            dom.(i) <-
              Some
                (match dom.(i) with
                | None -> s
                | Some d -> Fuzzy.Interval.hull d s);
            if not (Fuzzy.Possibility.is_crisp p) then all_crisp.(i) <- false
      done);
  {
    file = Relation.file rel;
    stats = Array.init n (fun i -> { dom = dom.(i); all_crisp = all_crisp.(i) });
  }

let ctx ~catalog ~terms =
  let rels =
    List.filter_map
      (fun name -> Option.map scan (Catalog.find catalog name))
      (Catalog.names catalog)
  in
  { catalog; terms; rels }

let stats_for ctx rel attr_idx =
  match List.find_opt (fun rs -> rs.file == Relation.file rel) ctx.rels with
  | Some rs when attr_idx < Array.length rs.stats -> Some rs.stats.(attr_idx)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Code table *)

let code_table =
  [
    ("FSQL001", Diagnostic.Error, "lexical error");
    ("FSQL002", Diagnostic.Error, "syntax error");
    ("FSQL010", Diagnostic.Error, "unknown relation");
    ("FSQL011", Diagnostic.Error, "unknown attribute");
    ("FSQL012", Diagnostic.Error, "ambiguous attribute");
    ("FSQL013", Diagnostic.Error, "empty SELECT list");
    ("FSQL014", Diagnostic.Error, "empty FROM list");
    ("FSQL015", Diagnostic.Error, "COUNT(*) is not supported");
    ("FSQL016", Diagnostic.Error, "aggregate operand outside HAVING");
    ("FSQL018", Diagnostic.Error, "IN / quantifier subquery arity");
    ("FSQL019", Diagnostic.Error, "scalar subquery must select one aggregate");
    ("FSQL020", Diagnostic.Error, "number compared with a string attribute");
    ("FSQL021", Diagnostic.Error, "unknown linguistic term");
    ("FSQL022", Diagnostic.Error, "fuzzy literal against a string attribute");
    ("FSQL023", Diagnostic.Error, "WITH threshold outside [0, 1]");
    ("FSQL024", Diagnostic.Error, "ORDER BY / LIMIT on an inner block");
    ("FSQL025", Diagnostic.Error, "negative LIMIT");
    ("FSQL026", Diagnostic.Error, "HAVING aggregate not of this block");
    ("FSQL027", Diagnostic.Error, "unsupported HAVING form");
    ("FSQL028", Diagnostic.Error, "malformed fuzzy literal");
    ("FSQL030", Diagnostic.Warning, "support disjoint from loaded domain");
    ("FSQL031", Diagnostic.Warning, "threshold above maximum membership height");
    ("FSQL032", Diagnostic.Warning, "contradictory conjunction");
    ("FSQL033", Diagnostic.Warning, "nested shape needs nested-loop evaluation");
  ]

(* ------------------------------------------------------------------ *)
(* Satisfiability pass

   Walks the AST and the bound query in parallel (the analyzer preserves
   list structure 1:1, and only runs this pass when binding succeeded).

   Soundness notes, since fuzzy data makes naive region reasoning wrong:

   - FSQL030 uses only the loaded-domain hull D: every stored support is
     contained in D, so [supp(lit) disjoint-beyond D] really does force
     sup-min degree 0 for every stored value, fuzzy or crisp.
   - FSQL031 relies on any t-norm being bounded above by [min] and on
     [poss(X op lit) <= height(lit)], which holds for every comparator
     under sup-min semantics.
   - FSQL032 would be unsound for fuzzy values (a wide stored trapezoid
     satisfies [X <= 3 AND X >= 4] with positive degree), so it only
     fires for attributes whose loaded values are all crisp. *)

type constr = {
  c_op : Fuzzy.Fuzzy_compare.op;
  c_sup : Fuzzy.Interval.t;  (** support of the literal *)
  c_span : Ast.span;
}

let warn acc ?hint ~code ~span fmt =
  Printf.ksprintf
    (fun message ->
      acc :=
        Diagnostic.make ?hint ~code ~severity:Diagnostic.Warning ~span message
        :: !acc)
    fmt

(* [attr op lit]: degree 0 for every loaded value? (see notes above) *)
let disjoint_from_domain op ~dom:d ~sup:s =
  let open Fuzzy in
  match op with
  | Fuzzy_compare.Eq -> not (Interval.overlaps d s)
  | Fuzzy_compare.Le -> Interval.lo d > Interval.hi s
  | Fuzzy_compare.Lt -> Interval.lo d >= Interval.hi s
  | Fuzzy_compare.Ge -> Interval.hi d < Interval.lo s
  | Fuzzy_compare.Gt -> Interval.hi d <= Interval.lo s
  | Fuzzy_compare.Ne -> false

let rec check_block ctx acc (ast : Ast.query) (b : Bound.query) =
  (* (from_idx, attr_idx) -> accumulated single-attribute constraints *)
  let constraints : ((int * int) * (string * constr list ref)) list ref =
    ref []
  in
  let flagged_attrs = ref [] in
  let note_constraint (r : Bound.attr_ref) c =
    let key = (r.Bound.from_idx, r.Bound.attr_idx) in
    match List.assoc_opt key !constraints with
    | Some (_, cs) -> cs := c :: !cs
    | None -> constraints := (key, (r.Bound.display, ref [ c ])) :: !constraints
  in
  let consider (r : Bound.attr_ref) op v ~alit ~span =
    match Value.to_possibility v with
    | None -> ()
    | Some p ->
        let sup = Fuzzy.Possibility.support p in
        note_constraint r { c_op = op; c_sup = sup; c_span = span };
        let _, rel = List.nth b.Bound.from r.Bound.from_idx in
        (match stats_for ctx rel r.Bound.attr_idx with
        | Some { dom = Some d; _ } when disjoint_from_domain op ~dom:d ~sup ->
            flagged_attrs := (r.Bound.from_idx, r.Bound.attr_idx) :: !flagged_attrs;
            warn acc ~code:"FSQL030" ~span
              "predicate is always degree 0: support [%g, %g] of %s cannot \
               meet %s's loaded domain [%g, %g]"
              (Fuzzy.Interval.lo sup) (Fuzzy.Interval.hi sup) alit
              r.Bound.display (Fuzzy.Interval.lo d) (Fuzzy.Interval.hi d)
        | _ -> ());
        (* FSQL031: the block's threshold cut vs this predicate's ceiling. *)
        (match b.Bound.threshold with
        | Some { Ast.strict; value = z } ->
            let h = Fuzzy.Possibility.height p in
            if z > h || (strict && z >= h) then
              warn acc ~code:"FSQL031" ~span
                "predicate degree can reach at most %g (the height of %s), \
                 below the WITH D %s %g cut — this block yields no answers"
                h alit
                (if strict then ">" else ">=")
                z
        | None -> ())
  in
  List.iter2
    (fun (bp : Bound.pred) (ap : Ast.predicate) ->
      match (bp, ap) with
      | Bound.Cmp (Bound.Ref r, op, Bound.Lit v), Ast.Cmp (_, _, Ast.Const (c, _))
        when r.Bound.up = 0 ->
          consider r op v ~alit:(Pretty.const_to_string c)
            ~span:(Ast.predicate_span ap)
      | Bound.Cmp (Bound.Lit v, op, Bound.Ref r), Ast.Cmp (Ast.Const (c, _), _, _)
        when r.Bound.up = 0 ->
          consider r (Fuzzy.Fuzzy_compare.flip op) v
            ~alit:(Pretty.const_to_string c)
            ~span:(Ast.predicate_span ap)
      | Bound.Cmp _, _ -> ()
      | Bound.Cmp_sub (_, _, sub), Ast.CmpSub (_, _, asub)
      | Bound.In (_, sub), Ast.In (_, asub)
      | Bound.Not_in (_, sub), Ast.Not_in (_, asub)
      | Bound.Quant (_, _, _, sub), Ast.Quant (_, _, _, asub)
      | Bound.Exists sub, Ast.Exists asub
      | Bound.Not_exists sub, Ast.Not_exists asub ->
          check_block ctx acc asub sub
      | _ ->
          (* The analyzer maps each AST predicate to the same-shaped bound
             predicate, so the lists walk in lock-step. *)
          assert false)
    b.Bound.where ast.Ast.where;
  (* FSQL032: intersect the per-attribute constraint regions (crisp data
     only; skip attributes already flagged FSQL030 to avoid double noise). *)
  List.iter
    (fun ((from_idx, attr_idx), (display, cs)) ->
      let cs = !cs in
      if List.length cs >= 2 && not (List.mem (from_idx, attr_idx) !flagged_attrs)
      then
        let _, rel = List.nth b.Bound.from from_idx in
        match stats_for ctx rel attr_idx with
        | Some { dom = Some d; all_crisp = true } ->
            let lo = ref (Fuzzy.Interval.lo d)
            and hi = ref (Fuzzy.Interval.hi d) in
            List.iter
              (fun c ->
                let slo = Fuzzy.Interval.lo c.c_sup
                and shi = Fuzzy.Interval.hi c.c_sup in
                match c.c_op with
                | Fuzzy.Fuzzy_compare.Eq ->
                    lo := Float.max !lo slo;
                    hi := Float.min !hi shi
                | Fuzzy.Fuzzy_compare.Le | Fuzzy.Fuzzy_compare.Lt ->
                    hi := Float.min !hi shi
                | Fuzzy.Fuzzy_compare.Ge | Fuzzy.Fuzzy_compare.Gt ->
                    lo := Float.max !lo slo
                | Fuzzy.Fuzzy_compare.Ne -> ())
              cs;
            if !lo > !hi then
              let span =
                List.fold_left
                  (fun sp c -> Ast.span_hull sp c.c_span)
                  (List.hd cs).c_span (List.tl cs)
              in
              warn acc ~code:"FSQL032" ~span
                "contradictory conjunction on %s: the combined supports \
                 admit no loaded value (degree is always 0)"
                display
        | _ -> ())
    !constraints

let shape_warning classify (ast : Ast.query) (b : Bound.query) =
  match classify with
  | None -> []
  | Some f -> (
      match f b with
      | None -> []
      | Some desc ->
          let is_nested = function
            | Ast.Cmp _ -> false
            | Ast.CmpSub _ | Ast.In _ | Ast.Not_in _ | Ast.Quant _
            | Ast.Exists _ | Ast.Not_exists _ ->
                true
          in
          let span =
            match List.find_opt is_nested ast.Ast.where with
            | Some p -> Ast.predicate_span p
            | None -> ast.Ast.q_span
          in
          [
            Diagnostic.make ~code:"FSQL033" ~severity:Diagnostic.Warning ~span
              ~hint:
                "expect O(outer x inner) scan cost; consider rewriting the \
                 subquery into an unnestable form"
              (Printf.sprintf
                 "query is %s — outside the unnestable types N/J/JX/JA/JALL, \
                  so it runs on the nested-loop interpreter"
                 desc);
          ])

let check_ast ?classify ctx ast =
  let bound, diags =
    Analyzer.analyze ~catalog:ctx.catalog ~terms:ctx.terms ast
  in
  match bound with
  | None -> (None, diags)
  | Some b ->
      let acc = ref [] in
      check_block ctx acc ast b;
      let shape = shape_warning classify ast b in
      (Some b, Diagnostic.sort (diags @ !acc @ shape))

let check_string ?classify ctx sql =
  match Parser.parse_spanned sql with
  | exception Lexer.Error (msg, pos) ->
      ( None,
        [
          Diagnostic.make ~code:"FSQL001" ~severity:Diagnostic.Error
            ~span:{ Ast.sp_lo = pos; sp_hi = pos + 1 }
            msg;
        ] )
  | exception Parser.Error_at (msg, span) ->
      (None, [ Diagnostic.make ~code:"FSQL002" ~severity:Diagnostic.Error ~span msg ])
  | ast -> check_ast ?classify ctx ast

(** Tests of the extensions beyond the paper's core: necessity degrees,
    histogram estimation, chain join-order DP, EXPLAIN, band/interval joins
    and threshold pushdown. *)

open Frepro
open Frepro.Relational

let tc = Alcotest.test_case

(* ---------- necessity (the double-measure discussion of Section 2.2) --- *)

let nec_hand_cases =
  tc "necessity hand cases" `Quick (fun () ->
      let open Fuzzy in
      let my = Option.get (Term.lookup Term.paper "medium young") in
      let a35 = Option.get (Term.lookup Term.paper "about 35") in
      (* Two genuinely fuzzy values: fully possible that they differ, so
         necessity of equality is 0 while possibility is 0.5. *)
      Test_util.check_degree "Poss(my = a35)" 0.5
        (Necessity.possibility Fuzzy_compare.Eq my a35);
      Test_util.check_degree "Nec(my = a35)" 0.0
        (Necessity.necessity Fuzzy_compare.Eq my a35);
      (* Crisp equal values: certainty. *)
      let c = Possibility.crisp 5.0 in
      Test_util.check_degree "Nec(5 = 5)" 1.0 (Necessity.necessity Fuzzy_compare.Eq c c);
      Test_util.check_degree "Nec(5 <> 5)" 0.0 (Necessity.necessity Fuzzy_compare.Ne c c);
      (* Certainly larger: supports disjoint. *)
      let lo = Possibility.triangle 0. 5. 10. and hi = Possibility.triangle 20. 25. 30. in
      Test_util.check_degree "Nec(hi > lo)" 1.0
        (Necessity.necessity Fuzzy_compare.Gt hi lo);
      Test_util.check_degree "Poss(lo > hi)" 0.0
        (Necessity.possibility Fuzzy_compare.Gt lo hi))

let nec_leq_poss =
  QCheck.Test.make ~count:300 ~name:"Nec <= Poss for normal distributions"
    (QCheck.pair (QCheck.make (QCheck.gen (QCheck.make QCheck.Gen.int)))
       QCheck.(pair (int_bound 1000) (int_bound 5)))
    (fun (_, (seed, op_i)) ->
      let rng = Random.State.make [| seed |] in
      let u = Workload.Gen.random_possibility rng ~lo:0.0 ~hi:50.0 in
      let v = Workload.Gen.random_possibility rng ~lo:0.0 ~hi:50.0 in
      let op =
        [| Fuzzy.Fuzzy_compare.Eq; Ne; Lt; Le; Gt; Ge |].(op_i mod 6)
      in
      (* Only normal (height-1) distributions satisfy the law; the random
         discrete ones may be subnormal, so normalise by skipping those. *)
      if Fuzzy.Possibility.height u < 1.0 || Fuzzy.Possibility.height v < 1.0
      then true
      else
        Fuzzy.Necessity.necessity op u v
        <= Fuzzy.Necessity.possibility op u v +. 1e-9)

(* ---------- linguistic hedges ---------- *)

let hedge_tests =
  [
    tc "very / somewhat on trapezoids preserve the core" `Quick (fun () ->
        let open Fuzzy in
        let young = Trapezoid.make 16. 18. 25. 30. in
        let very = Hedge.apply Hedge.Very (Possibility.trap young) in
        let somewhat = Hedge.apply Hedge.Somewhat (Possibility.trap young) in
        (match very with
        | Possibility.Trap t ->
            Test_util.(Alcotest.check interval) "core unchanged"
              (Trapezoid.core young) (Trapezoid.core t);
            Test_util.(Alcotest.check interval) "support tightened"
              (Interval.make 17. 27.5) (Trapezoid.support t)
        | _ -> Alcotest.fail "very shape");
        match somewhat with
        | Possibility.Trap t ->
            Test_util.(Alcotest.check interval) "support widened"
              (Interval.make 14. 35.) (Trapezoid.support t)
        | _ -> Alcotest.fail "somewhat shape");
    tc "discrete hedges are exact powers" `Quick (fun () ->
        let open Fuzzy in
        let d = Possibility.discrete [ (1.0, 0.5); (2.0, 1.0) ] in
        (match Hedge.apply Hedge.Very d with
        | Possibility.Discrete [ (1.0, 0.25); (2.0, 1.0) ] -> ()
        | p -> Alcotest.failf "very: %a" Possibility.pp p);
        match Hedge.apply Hedge.Somewhat d with
        | Possibility.Discrete [ (1.0, x); (2.0, 1.0) ] ->
            Alcotest.(check (float 1e-9)) "sqrt" (Float.sqrt 0.5) x
        | p -> Alcotest.failf "somewhat: %a" Possibility.pp p);
    tc "hedge-aware lookup, stacking, and precedence" `Quick (fun () ->
        let open Fuzzy in
        Alcotest.(check bool) "very young resolves" true
          (Hedge.lookup Term.paper "very young" <> None);
        Alcotest.(check bool) "very very young stacks" true
          (Hedge.lookup Term.paper "VERY very young" <> None);
        Alcotest.(check bool) "unknown base fails" true
          (Hedge.lookup Term.paper "very ancient" = None);
        (* an exact dictionary entry wins over hedge decomposition *)
        let t = Term.register Term.paper "very young" (Possibility.crisp 1.0) in
        match Hedge.lookup t "very young" with
        | Some p -> Alcotest.(check bool) "exact entry wins" true (Possibility.is_crisp p)
        | None -> Alcotest.fail "lookup");
    tc "hedged terms work end-to-end in SQL" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let q =
          Test_util.bind_paper_query env
            "SELECT F.NAME FROM F WHERE F.AGE = 'very medium young'"
        in
        let naive, nl, merged = Test_util.run_all_strategies q in
        Test_util.check_same_answer "nl" naive nl;
        Test_util.check_same_answer "merge" naive merged;
        (* the hedged predicate is at most as satisfied as the bare one *)
        let bare =
          Unnest.Planner.run
            (Test_util.bind_paper_query env
               "SELECT F.NAME FROM F WHERE F.AGE = 'medium young'")
        in
        let degree_of rel name =
          List.fold_left
            (fun acc (vs, d) ->
              match vs.(0) with Value.Str n when n = name -> Float.max acc d | _ -> acc)
            0.0
            (Test_util.answer_of_relation rel)
        in
        List.iter
          (fun n ->
            Alcotest.(check bool)
              (n ^ ": hedged <= bare")
              true
              (degree_of naive n <= degree_of bare n +. 1e-9))
          [ "Ann"; "Betty"; "Cathy" ]);
  ]

(* ---------- histograms ---------- *)

let histogram_tests =
  [
    tc "selectivity and join estimates are sane" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let spec = { Workload.Gen.default_spec with n = 600; groups = 30 } in
        let r, s = Workload.Gen.join_pair env ~seed:5 ~outer:spec ~inner:spec in
        let hr = Histogram.build r ~attr:1 and hs = Histogram.build s ~attr:1 in
        Alcotest.(check int) "cardinality" 600 (Histogram.cardinality hr);
        Alcotest.(check bool) "avg width positive" true
          (Histogram.avg_support_width hr > 0.0);
        let est = Histogram.estimate_eq_join hr hs in
        (* true match count = n * n / groups = 12000; the estimate should at
           least land within an order of magnitude *)
        Alcotest.(check bool)
          (Printf.sprintf "join estimate %.0f in [1200, 120000]" est)
          true
          (est > 1200.0 && est < 120000.0);
        let sel =
          Histogram.estimate_eq_selectivity hr
            (Fuzzy.Possibility.about 0.0 ~spread:30.0)
        in
        Alcotest.(check bool) "selectivity in [0,1]" true (sel >= 0.0 && sel <= 1.0));
    tc "histograms read in place equal the decoded build, field for field"
      `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let rng = Random.State.make [| 41 |] in
        let schema =
          Schema.make ~name:"H"
            [ ("ID", Schema.TNum); ("X", Schema.TNum); ("N", Schema.TStr) ]
        in
        let names = [| "ann"; "bob"; "cy" |] in
        (* crisp, trapezoid and discrete values (one-point ones included),
           over enough pages that the scan crosses page boundaries *)
        let r =
          Relation.of_list env schema
            (List.init 700 (fun i ->
                 Test_util.tuple
                   [
                     Value.Int i;
                     Test_equivalence.rand_value rng ~discrete_ok:true;
                     Value.Str names.(i mod Array.length names);
                   ]
                   1.0))
        in
        Alcotest.(check bool) "several pages" true (Relation.num_pages r > 1);
        (* The histogram as it is built from decoded tuples. *)
        let decoded attr buckets =
          let sups =
            List.map (fun t -> Value.support (Ftuple.value t attr)) (Relation.to_list r)
          in
          let center i = (Fuzzy.Interval.lo i +. Fuzzy.Interval.hi i) /. 2.0 in
          let lo = List.fold_left (fun m i -> Float.min m (center i)) infinity sups in
          let hi = List.fold_left (fun m i -> Float.max m (center i)) neg_infinity sups in
          let width = Float.max (hi -. lo) 1e-9 /. float_of_int buckets in
          let counts = Array.make buckets 0.0 in
          List.iter
            (fun i ->
              let b =
                Int.min (buckets - 1)
                  (Int.max 0 (int_of_float ((center i -. lo) /. width)))
              in
              counts.(b) <- counts.(b) +. 1.0)
            sups;
          let wsum =
            List.fold_left (fun acc i -> acc +. Fuzzy.Interval.width i) 0.0 sups
          in
          (lo, width, counts, List.length sups, wsum /. float_of_int (List.length sups))
        in
        let bits = Int64.bits_of_float in
        List.iter
          (fun (attr, buckets) ->
            let h = Histogram.build ~buckets r ~attr in
            let lo, width, counts, total, avg_width = decoded attr buckets in
            let what f = Printf.sprintf "attr %d, %d buckets: %s" attr buckets f in
            Alcotest.(check int64) (what "lo") (bits lo) (bits h.Histogram.lo);
            Alcotest.(check int64) (what "width") (bits width) (bits h.Histogram.width);
            Alcotest.(check (array int64)) (what "counts")
              (Array.map bits counts) (Array.map bits h.Histogram.counts);
            Alcotest.(check int) (what "total") total h.Histogram.total;
            Alcotest.(check int64) (what "avg_width") (bits avg_width)
              (bits h.Histogram.avg_width))
          [ (0, 64); (1, 64); (1, 7); (2, 64) ]);
    tc "empty relation histogram" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let schema = Workload.Gen.schema ~name:"E" in
        let e = Relation.of_list env schema [] in
        let h = Histogram.build e ~attr:1 in
        Alcotest.(check int) "cardinality 0" 0 (Histogram.cardinality h);
        Alcotest.(check (float 0.)) "join est 0" 0.0 (Histogram.estimate_eq_join h h));
  ]

(* ---------- chain order DP ---------- *)

let chain_catalog env ~n1 ~n2 ~n3 =
  let catalog = Catalog.create env in
  let spec n g = { Workload.Gen.default_spec with n; groups = g } in
  let add name s seed =
    let rel = Workload.Gen.relation env ~seed ~name (s : Workload.Gen.spec) in
    Catalog.add catalog rel
  in
  add "R" (spec n1 (Int.max 1 (n1 / 4))) 11;
  add "S" (spec n2 (Int.max 1 (n2 / 4))) 12;
  add "T" (spec n3 (Int.max 1 (n3 / 4))) 13;
  catalog

let chain_sql =
  "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.W <= R.W AND \
   S.X IN (SELECT T.X FROM T WHERE T.W >= S.W))"

let chain_tests =
  [
    tc "DP order evaluates to the same answer as left-to-right" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let catalog = chain_catalog env ~n1:40 ~n2:40 ~n3:40 in
        let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper chain_sql in
        let with_dp = Unnest.Planner.run ~chain_dp:true q in
        let without = Unnest.Planner.run ~chain_dp:false q in
        let naive = Unnest.Planner.run ~strategy:Unnest.Planner.Naive q in
        Test_util.check_same_answer "dp vs fixed" with_dp without;
        Test_util.check_same_answer "dp vs naive" with_dp naive);
    tc "every adjacent-growth order is valid and equivalent" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let catalog = chain_catalog env ~n1:25 ~n2:25 ~n3:25 in
        let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper chain_sql in
        match Unnest.Classify.classify q with
        | Unnest.Classify.Chain_query chain ->
            let reference = Unnest.Planner.run ~strategy:Unnest.Planner.Naive q in
            List.iter
              (fun (start, steps) ->
                let order =
                  { Unnest.Chain_order.start; steps; estimated_cost = nan }
                in
                let r = Unnest.Merge_exec.run_chain ~order chain ~mem_pages:16 in
                Test_util.check_same_answer
                  (Printf.sprintf "order starting at %d" start)
                  reference r)
              [ (0, [ 1; 2 ]); (1, [ 0; 2 ]); (1, [ 2; 0 ]); (2, [ 1; 0 ]) ]
        | other ->
            Alcotest.failf "expected a chain, got %s" (Unnest.Classify.to_string other));
    tc "non-adjacent order step is rejected" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let catalog = chain_catalog env ~n1:5 ~n2:5 ~n3:5 in
        let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper chain_sql in
        match Unnest.Classify.classify q with
        | Unnest.Classify.Chain_query chain ->
            Alcotest.(check bool) "raises" true
              (try
                 ignore
                   (Unnest.Merge_exec.run_chain
                      ~order:{ Unnest.Chain_order.start = 0; steps = [ 2; 1 ];
                               estimated_cost = nan }
                      chain ~mem_pages:16);
                 false
               with Invalid_argument _ -> true)
        | _ -> Alcotest.fail "expected a chain");
    tc "a semi-join step emits no more tuples than it consumes" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let catalog = Catalog.create env in
        Server.Demo.load_nested ~seed:11 env catalog;
        let q =
          Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
            "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.Z IN \
             (SELECT T.W FROM T))"
        in
        match Unnest.Classify.classify q with
        | Unnest.Classify.Chain_query chain ->
            let card b =
              Relation.cardinality
                (List.nth chain.Unnest.Classify.blocks b).Unnest.Classify.rel
            in
            (* Left to right, T adds no live attribute: R.ID is the answer
               and nothing reads T's columns. *)
            Alcotest.(check (list bool))
              "left-to-right step kinds" [ false; true ]
              (List.map
                 (fun (st : Unnest.Chain_order.step) -> st.Unnest.Chain_order.semi_join)
                 (Unnest.Chain_order.cascade chain
                    (Unnest.Chain_order.left_to_right 3)));
            let semi_joins = ref 0 in
            List.iter
              (fun (start, steps) ->
                let order =
                  { Unnest.Chain_order.start; steps; estimated_cost = nan }
                in
                let trace = Storage.Trace.create () in
                ignore
                  (Unnest.Merge_exec.run_chain ~trace ~order chain ~mem_pages:16);
                (* The cascade's step spans in execution order, each with
                   the row count of the relation it produced. *)
                let rows = ref (card start) in
                Storage.Trace.iter_spans trace (fun sp ->
                    let name = Storage.Trace.span_name sp in
                    let semi = String.starts_with ~prefix:"semi-join " name in
                    if semi || String.starts_with ~prefix:"join " name then begin
                      let out = Option.get (Storage.Trace.span_rows sp) in
                      if semi then begin
                        incr semi_joins;
                        if out > !rows then
                          Alcotest.failf "order from %d: %s emitted %d rows from %d"
                            start name out !rows
                      end;
                      rows := out
                    end))
              [ (0, [ 1; 2 ]); (1, [ 0; 2 ]); (1, [ 2; 0 ]); (2, [ 1; 0 ]) ];
            Alcotest.(check bool)
              "some order has a semi-join step" true (!semi_joins > 0)
        | _ -> Alcotest.fail "expected a chain");
    tc "DP prefers starting from the small end" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        (* Block sizes 200 - 200 - 5: joining T (tiny) early shrinks every
           intermediate; the DP should not start by joining R with S. *)
        let catalog = chain_catalog env ~n1:200 ~n2:200 ~n3:5 in
        let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper chain_sql in
        match Unnest.Classify.classify q with
        | Unnest.Classify.Chain_query chain ->
            let order = Unnest.Chain_order.plan chain in
            Alcotest.(check bool) "cost is finite" true
              (Float.is_finite order.Unnest.Chain_order.estimated_cost);
            let lr = Unnest.Chain_order.left_to_right 3 in
            ignore lr;
            (* The chosen order must involve block 2 before the expensive
               R-S join, i.e. not be plain left-to-right. *)
            Alcotest.(check bool) "not left-to-right" true
              (order.Unnest.Chain_order.start <> 0
              || order.Unnest.Chain_order.steps <> [ 1; 2 ])
        | _ -> Alcotest.fail "expected a chain");
  ]

(* ---------- explain ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let explain_tests =
  [
    tc "explain mentions shape, sweep, and estimates" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let q =
          Test_util.bind_paper_query env
            "SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M \
             WHERE M.AGE = F.AGE) WITH D >= 0.5"
        in
        let text = Unnest.Explain.explain q in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("mentions " ^ needle) true (contains text needle))
          [ "type J"; "merge-join"; "Definition 3.1"; "estimates"; "WITH D >= 0.5" ]);
    tc "explain shows the chain order" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let catalog = chain_catalog env ~n1:20 ~n2:20 ~n3:20 in
        let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper chain_sql in
        let text = Unnest.Explain.explain q in
        Alcotest.(check bool) "mentions DP" true (contains text "join order");
        Alcotest.(check bool) "mentions Theorem 8.1" true (contains text "Theorem 8.1"));
    tc "explain for flat and general shapes" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let flat = Test_util.bind_paper_query env "SELECT F.NAME FROM F" in
        Alcotest.(check bool) "flat" true
          (contains (Unnest.Explain.explain flat) "direct evaluation");
        let general =
          Test_util.bind_paper_query env
            "SELECT F.NAME FROM F WHERE F.AGE IN (SELECT M.AGE FROM M) AND \
             F.INCOME IN (SELECT M.INCOME FROM M)"
        in
        Alcotest.(check bool) "general" true
          (contains (Unnest.Explain.explain general) "naive interpreter"));
  ]

(* ---------- band / interval joins ---------- *)

let band_schema name = Schema.make ~name [ ("ID", Schema.TNum); ("X", Schema.TNum) ]

let crisp_rel env name xs =
  Relation.of_list env (band_schema name)
    (List.mapi (fun i x -> Test_util.tuple [ Value.Int i; Value.crisp_num x ] 1.0) xs)

let band_tests =
  [
    tc "band join equals the brute-force band predicate" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let rng = Random.State.make [| 99 |] in
        let xs () = List.init 60 (fun _ -> Random.State.float rng 100.0) in
        let r_xs = xs () and s_xs = xs () in
        let r = crisp_rel env "R" r_xs and s = crisp_rel env "S" s_xs in
        let c1 = 3.0 and c2 = 7.0 in
        let joined =
          Join_band.band_join ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
            ~mem_pages:8 ~c1 ~c2 ()
        in
        let expected =
          List.fold_left
            (fun acc rx ->
              acc
              + List.length
                  (List.filter (fun sx -> rx -. c1 <= sx && sx <= rx +. c2) s_xs))
            0 r_xs
        in
        Alcotest.(check int) "pair count" expected (Relation.cardinality joined);
        Alcotest.(check int) "schema keeps only original attrs" 4
          (Schema.arity (Relation.schema joined)));
    tc "interval join = support overlap" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let itv lo hi =
          Value.Fuzzy (Fuzzy.Possibility.trap (Fuzzy.Trapezoid.make lo lo hi hi))
        in
        let rel name rows =
          Relation.of_list env (band_schema name)
            (List.mapi (fun i (lo, hi) -> Test_util.tuple [ Value.Int i; itv lo hi ] 1.0) rows)
        in
        let r = rel "R" [ (0., 10.); (20., 30.); (35., 40.) ] in
        let s = rel "S" [ (5., 8.); (9., 22.); (50., 60.) ] in
        (* overlaps: r0-s0, r0-s1, r1-s1 *)
        let joined =
          Join_band.interval_join ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
            ~mem_pages:8 ()
        in
        Alcotest.(check int) "three overlaps" 3 (Relation.cardinality joined));
    tc "negative band rejected" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let r = crisp_rel env "R" [ 1.0 ] in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Join_band.band_join ~outer:r ~inner:r ~outer_attr:1 ~inner_attr:1
                  ~mem_pages:8 ~c1:(-1.0) ~c2:0.0 ());
             false
           with Invalid_argument _ -> true));
  ]

(* ---------- outer-block flattening and paper-notation rewrites ---------- *)

let flatten_tests =
  [
    tc "flatten turns a multi-FROM outer block into type J" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let catalog = Test_util.paper_db env in
        let q =
          Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
            "SELECT F.NAME, M.NAME FROM F, M WHERE F.AGE = M.AGE AND F.INCOME \
             IN (SELECT G.INCOME FROM M G WHERE G.AGE = M.AGE)"
        in
        Alcotest.(check string) "general before" "general nested"
          (Unnest.Classify.to_string (Unnest.Classify.classify q));
        match Unnest.Flatten.flatten_outer q with
        | None -> Alcotest.fail "flatten should apply"
        | Some q' ->
            Alcotest.(check string) "type J after" "type J"
              (Unnest.Classify.to_string (Unnest.Classify.classify q'));
            Alcotest.(check int) "single FROM" 1 (List.length q'.Fuzzysql.Bound.from);
            (* equivalence against naive evaluation of the original *)
            Test_util.check_same_answer "flattened = naive"
              (Unnest.Planner.run q)
              (Unnest.Planner.run ~strategy:Unnest.Planner.Naive q));
    tc "flatten declines when it cannot apply" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let catalog = Test_util.paper_db env in
        let bind sql = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
        Alcotest.(check bool) "single FROM" true
          (Unnest.Flatten.flatten_outer
             (bind "SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M)")
          = None);
        Alcotest.(check bool) "two subqueries" true
          (Unnest.Flatten.flatten_outer
             (bind
                "SELECT F.NAME FROM F, M WHERE F.AGE IN (SELECT M.AGE FROM M) \
                 AND F.INCOME IN (SELECT M.INCOME FROM M)")
          = None));
    tc "rewrite_sql prints the paper's flat forms" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let shape sql =
          match
            Unnest.Classify.classify (Test_util.bind_paper_query env sql)
          with
          | Unnest.Classify.Two_level t -> Unnest.Rewrite_sql.two_level t
          | s -> Alcotest.failf "not two-level: %s" (Unnest.Classify.to_string s)
        in
        let j =
          shape "SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)"
        in
        Alcotest.(check bool) "J' is a flat join" true (contains j "FROM F, M");
        let jx =
          shape "SELECT F.NAME FROM F WHERE F.INCOME NOT IN (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE)"
        in
        Alcotest.(check bool) "JX' has the grouped MIN(D)" true (contains jx "MIN(D)");
        Alcotest.(check bool) "JX' negates the join" true (contains jx "NOT(");
        let ja =
          shape "SELECT F.NAME FROM F WHERE F.INCOME >= (SELECT COUNT(M.INCOME) FROM M WHERE M.AGE = F.AGE)"
        in
        Alcotest.(check bool) "COUNT' uses the outer join bracket" true
          (contains ja "+= T2.U"));
  ]

(* ---------- threshold pushdown specifics ---------- *)

let pushdown_tests =
  [
    tc "cannot_pass respects strictness" `Quick (fun () ->
        let mk strict value = Some { Fuzzysql.Ast.strict; value } in
        Alcotest.(check bool) "no threshold" false
          (Unnest.Pushdown.cannot_pass None 0.0);
        Alcotest.(check bool) ">= z keeps z" false
          (Unnest.Pushdown.cannot_pass (mk false 0.5) 0.5);
        Alcotest.(check bool) "> z drops z" true
          (Unnest.Pushdown.cannot_pass (mk true 0.5) 0.5);
        Alcotest.(check bool) "below drops" true
          (Unnest.Pushdown.cannot_pass (mk false 0.5) 0.4));
    tc "inner pruning is disabled for min-combining links" `Quick (fun () ->
        let corrless = [] in
        Alcotest.(check bool) "IN prunable" true
          (Unnest.Pushdown.inner_prunable
             (Unnest.Classify.In_link { y = 0; z = 0; corr = corrless }));
        Alcotest.(check bool) "NOT IN not prunable" false
          (Unnest.Pushdown.inner_prunable
             (Unnest.Classify.Not_in_link { y = 0; z = 0; corr = corrless }));
        Alcotest.(check bool) "ALL not prunable" false
          (Unnest.Pushdown.inner_prunable
             (Unnest.Classify.Quant_link
                { y = 0; op = Fuzzy.Fuzzy_compare.Lt; quant = Fuzzysql.Ast.All;
                  z = 0; corr = corrless }));
        Alcotest.(check bool) "aggregate not prunable" false
          (Unnest.Pushdown.inner_prunable
             (Unnest.Classify.Agg_link
                { y = 0; op1 = Fuzzy.Fuzzy_compare.Gt;
                  agg = Aggregate.Sum; z = 0; corr = corrless })));
  ]

let suites =
  [
    ( "ext.necessity",
      [ nec_hand_cases; QCheck_alcotest.to_alcotest nec_leq_poss ] );
    ("ext.hedges", hedge_tests);
    ("ext.histogram", histogram_tests);
    ("ext.chain_order", chain_tests);
    ("ext.explain", explain_tests);
    ("ext.band_join", band_tests);
    ("ext.flatten", flatten_tests);
    ("ext.pushdown", pushdown_tests);
  ]

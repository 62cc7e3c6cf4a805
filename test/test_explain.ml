(** Golden tests for EXPLAIN (one query per shape of the taxonomy) and for
    EXPLAIN ANALYZE (actual cardinalities from the trace, estimates
    attached post-run).

    The goldens pin the full explain text over the Example 4.1 database:
    both the fixture and the histogram estimator are deterministic, so any
    drift in the plan description shows up as a diff. *)

open Frepro

let tc = Alcotest.test_case

let explain_of sql =
  let env = Test_util.fresh_env () in
  Unnest.Explain.explain (Test_util.bind_paper_query env sql)

let check_golden label sql expected =
  Alcotest.(check string) label expected (explain_of sql)

let golden_tests =
  [
    tc "type N" `Quick (fun () ->
        check_golden "type N"
          "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN \
           (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')"
          "shape: type N\n\
           method: unnest + extended merge-join (Sections 4-7)\n\
          \  reduce F by p1 (1 local predicate)\n\
          \  reduce M by p2 (1 local predicate)\n\
          \  sort both on the Definition 3.1 interval order of (INCOME, \
           INCOME)\n\
          \  single sweep; per outer tuple examine Rng(r): d(INCOME = INCOME)\n\
          \  estimates: |F| = 4, |M| = 4, expected matching pairs ~ 15\n\
          \  project NAME, duplicate-eliminate keeping max degree\n\
          \  rewritten flat query (paper notation):\n\
          \    SELECT F.NAME FROM F, M WHERE p1 AND p2 AND F.INCOME = \
           M.INCOME\n");
    tc "type J" `Quick (fun () ->
        check_golden "type J"
          "SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M \
           WHERE M.AGE = F.AGE)"
          "shape: type J\n\
           method: unnest + extended merge-join (Sections 4-7)\n\
          \  reduce F by p1 (0 local predicates)\n\
          \  reduce M by p2 (0 local predicates)\n\
          \  sort both on the Definition 3.1 interval order of (INCOME, \
           INCOME)\n\
          \  single sweep; per outer tuple examine Rng(r): d(INCOME = INCOME)\n\
          \  estimates: |F| = 4, |M| = 4, expected matching pairs ~ 15\n\
          \  residual correlation predicates: AGE = AGE\n\
          \  project NAME, duplicate-eliminate keeping max degree\n\
          \  rewritten flat query (paper notation):\n\
          \    SELECT F.NAME FROM F, M WHERE F.INCOME = M.INCOME AND M.AGE = \
           F.AGE\n");
    tc "type JX" `Quick (fun () ->
        check_golden "type JX"
          "SELECT F.NAME FROM F WHERE F.INCOME NOT IN (SELECT M.INCOME FROM \
           M WHERE M.AGE = F.AGE)"
          "shape: type JX\n\
           method: unnest + extended merge-join (Sections 4-7)\n\
          \  reduce F by p1 (0 local predicates)\n\
          \  reduce M by p2 (0 local predicates)\n\
          \  sort both on the Definition 3.1 interval order of (INCOME, \
           INCOME)\n\
          \  single sweep; per outer tuple examine Rng(r): group-min over 1 \
           - min(.., d(INCOME = INCOME), ..)\n\
          \  estimates: |F| = 4, |M| = 4, expected matching pairs ~ 15\n\
          \  residual correlation predicates: AGE = AGE\n\
          \  project NAME, duplicate-eliminate keeping max degree\n\
          \  rewritten flat query (paper notation):\n\
          \    JXT(K, X) = (SELECT F.K, F.NAME, MIN(D) FROM F, M WHERE F.D \
           AND NOT(M.D AND F.INCOME = M.INCOME AND M.AGE = F.AGE) WITH D >= \
           0 GROUPBY F.K);  SELECT X FROM JXT\n");
    tc "type JA" `Quick (fun () ->
        check_golden "type JA"
          "SELECT F.NAME FROM F WHERE F.INCOME > (SELECT MAX(M.INCOME) FROM \
           M WHERE M.AGE = F.AGE)"
          "shape: type JA\n\
           method: unnest + extended merge-join (Sections 4-7)\n\
          \  reduce F by p1 (0 local predicates)\n\
          \  reduce M by p2 (0 local predicates)\n\
          \  sort both on the Definition 3.1 interval order of (AGE, AGE)\n\
          \  single sweep; per outer tuple examine Rng(r): pipelined \
           MAX(INCOME) compared as d(INCOME > AGG)\n\
          \  estimates: |F| = 4, |M| = 4, expected matching pairs ~ 13\n\
          \  residual correlation predicates: AGE = AGE\n\
          \  project NAME, duplicate-eliminate keeping max degree\n\
          \  rewritten flat query (paper notation):\n\
          \    T1(U) = (SELECT F.AGE FROM F);  T2(U, A) = (SELECT T1.U, \
           MAX(M.INCOME) FROM T1, M WHERE M.AGE = T1.U GROUPBY T1.U);  \
           SELECT F.NAME FROM F, T2 WHERE TRUE AND F.AGE = T2.U AND F.INCOME \
           > T2.A\n");
    tc "type JALL" `Quick (fun () ->
        check_golden "type JALL"
          "SELECT F.NAME FROM F WHERE F.INCOME < ALL (SELECT M.INCOME FROM M \
           WHERE M.AGE = F.AGE)"
          "shape: type JALL\n\
           method: unnest + extended merge-join (Sections 4-7)\n\
          \  reduce F by p1 (0 local predicates)\n\
          \  reduce M by p2 (0 local predicates)\n\
          \  sort both on the Definition 3.1 interval order of (AGE, AGE)\n\
          \  single sweep; per outer tuple examine Rng(r): quantified ALL: \
           d(INCOME < INCOME)\n\
          \  estimates: |F| = 4, |M| = 4, expected matching pairs ~ 13\n\
          \  residual correlation predicates: AGE = AGE\n\
          \  project NAME, duplicate-eliminate keeping max degree\n\
          \  rewritten flat query (paper notation):\n\
          \    T1(K, X, D) = (SELECT F.K, F.NAME, MIN(D) FROM F, M WHERE F.D \
           AND NOT(M.D AND M.AGE = F.AGE AND NOT(F.INCOME < M.INCOME)) WITH \
           D >= 0 GROUPBY F.K);  SELECT X FROM T1\n");
    tc "chain of 3 blocks" `Quick (fun () ->
        check_golden "chain"
          "SELECT F.ID FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN \
           (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE AND M.ID IN (SELECT \
           G.ID FROM F G WHERE G.AGE = M.AGE AND G.INCOME = F.INCOME))"
          "shape: chain of 3 blocks\n\
           method: unnest to a K-way flat join (Theorem 8.1), merge-joins \
           only\n\
          \  blocks: F -> M -> G\n\
          \  join order (interval DP over estimated intermediate sizes):\n\
          \    start with M\n\
          \    join G, carry M.AGE, M.INCOME, G.INCOME\n\
          \    join F, carry F.ID\n\
          \    estimated total intermediate tuples: 0\n\
          \  each step keeps only the carried attributes, max-deduplicated\n\
          \  rewritten flat query (Theorem 8.1):\n\
          \    SELECT F.ID FROM F, M, G WHERE p1 AND F.INCOME = M.INCOME AND \
           M.ID = G.ID AND M.AGE = F.AGE AND G.AGE = M.AGE AND G.INCOME = \
           F.INCOME\n");
  ]

(* ---------- EXPLAIN ANALYZE ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let analyze_tests =
  [
    tc "analyze reports actual = answer cardinality and the estimate" `Quick
      (fun () ->
        let env = Test_util.fresh_env () in
        let q =
          Test_util.bind_paper_query env
            "SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M \
             WHERE M.AGE = F.AGE)"
        in
        let a = Unnest.Explain.analyze q in
        let answer_rows = Relational.Relation.cardinality a.Unnest.Explain.answer in
        (* The root "query" span records the executed answer's cardinality. *)
        let query_rows = ref None and sweep_est = ref None in
        Storage.Trace.iter_spans a.Unnest.Explain.trace (fun sp ->
            match Storage.Trace.span_name sp with
            | "query" -> query_rows := Storage.Trace.span_rows sp
            | "sweep" -> sweep_est := Storage.Trace.span_est_rows sp
            | _ -> ());
        Alcotest.(check (option int))
          "query span rows = executed answer size" (Some answer_rows)
          !query_rows;
        Alcotest.(check bool) "sweep span carries an estimate" true
          (!sweep_est <> None);
        (* Both figures surface in the rendered text. *)
        let text = a.Unnest.Explain.text in
        Alcotest.(check bool) "text has the analyze tree" true
          (contains text "analyze:");
        Alcotest.(check bool) "text has the estimate" true
          (contains text "est~");
        Alcotest.(check bool) "text has the actual row count" true
          (contains text
             (Printf.sprintf "actual answer rows: %d" answer_rows));
        (* And the analyzed answer matches a plain run of the same query. *)
        Test_util.check_same_answer "analyze answer = planner answer"
          a.Unnest.Explain.answer
          (Unnest.Planner.run q));
    tc "analyze on a chain query annotates the root span" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let q =
          Test_util.bind_paper_query env
            "SELECT F.ID FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN \
             (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE AND M.ID IN (SELECT \
             G.ID FROM F G WHERE G.AGE = M.AGE AND G.INCOME = F.INCOME))"
        in
        let a = Unnest.Explain.analyze q in
        let query_est = ref None in
        Storage.Trace.iter_spans a.Unnest.Explain.trace (fun sp ->
            if Storage.Trace.span_name sp = "query" then
              query_est := Storage.Trace.span_est_rows sp);
        Alcotest.(check bool)
          "chain root span carries the DP cost estimate" true
          (!query_est <> None));
  ]

let suites =
  [ ("explain.golden", golden_tests); ("explain.analyze", analyze_tests) ]

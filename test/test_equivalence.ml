(** Property tests of the unnesting theorems.

    For every nested-query type the paper unnests (Theorems 4.1, 4.2, 5.1,
    6.1, 7.1, 8.1), random small databases and random queries of that shape
    are evaluated by (a) the naive interpreter, (b) the blocked nested-loop
    method, and (c) the unnesting merge-join executor; all three answers must
    be identical fuzzy relations — same tuples AND same membership degrees,
    the equivalence notion of Section 2.3. *)

open Frepro
open Frepro.Relational

(* ---------- random databases ---------- *)

type db_spec = {
  seed : int;
  n_r : int;
  n_s : int;
  n_t : int;
  discrete_ok : bool;
}

let pp_spec s =
  Printf.sprintf "{seed=%d; n_r=%d; n_s=%d; n_t=%d; discrete=%b}" s.seed s.n_r
    s.n_s s.n_t s.discrete_ok

let arb_spec ?(discrete_ok = true) () =
  let gen =
    QCheck.Gen.(
      map3
        (fun seed (n_r, n_s) n_t -> { seed; n_r; n_s; n_t; discrete_ok })
        (int_bound 1_000_000)
        (pair (int_bound 20) (int_bound 20))
        (int_bound 10))
  in
  QCheck.make ~print:pp_spec gen

let rand_value rng ~discrete_ok =
  match Random.State.int rng (if discrete_ok then 5 else 4) with
  | 0 -> Value.crisp_num (float_of_int (Random.State.int rng 50))
  | 1 | 2 | 3 ->
      Value.Fuzzy (Fuzzy.Possibility.trap (Workload.Gen.random_trapezoid rng ~lo:0.0 ~hi:50.0))
  | _ ->
      let n = 1 + Random.State.int rng 3 in
      Value.Fuzzy
        (Fuzzy.Possibility.discrete
           (List.init n (fun _ ->
                ( float_of_int (Random.State.int rng 50),
                  0.125 *. float_of_int (1 + Random.State.int rng 8) ))))

let rand_degree rng = 0.125 *. float_of_int (1 + Random.State.int rng 8)

let make_db spec =
  let env = Test_util.fresh_env () in
  let catalog = Catalog.create env in
  let rng = Random.State.make [| spec.seed |] in
  let rel name n attrs =
    let schema = Schema.make ~name (("ID", Schema.TNum) :: List.map (fun a -> (a, Schema.TNum)) attrs) in
    let tuples =
      List.init n (fun i ->
          Test_util.tuple
            (Value.Int i
            :: List.map (fun _ -> rand_value rng ~discrete_ok:spec.discrete_ok) attrs)
            (rand_degree rng))
    in
    let r = Relation.of_list env schema tuples in
    Catalog.add catalog r;
    r
  in
  ignore (rel "R" spec.n_r [ "Y"; "U" ]);
  ignore (rel "S" spec.n_s [ "Z"; "V" ]);
  ignore (rel "T" spec.n_t [ "W"; "P" ]);
  ignore (rel "Q" spec.n_t [ "X"; "B" ]);
  catalog

(* ---------- query templates ---------- *)

let ops = [| "="; "<"; "<="; ">"; ">=" |]
let aggs = [| "MAX"; "MIN"; "AVG"; "SUM"; "COUNT" |]

let pick rng arr = arr.(Random.State.int rng (Array.length arr))

let maybe rng s = if Random.State.bool rng then s else ""

let template rng kind =
  let c () = Random.State.int rng 50 in
  let p1 = maybe rng (Printf.sprintf " AND R.U >= %d" (c ())) in
  let p2 = maybe rng (Printf.sprintf " AND S.V <= %d" (c ())) in
  let corr_op = pick rng [| "="; "<="; ">=" |] in
  let with_d = maybe rng (Printf.sprintf " WITH D >= 0.%d" (1 + Random.State.int rng 8)) in
  match kind with
  | `N ->
      Printf.sprintf
        "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V >= %d%s)%s%s"
        (c ()) p2 p1 with_d
  | `J ->
      Printf.sprintf
        "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V %s R.U%s)%s%s"
        corr_op p2 p1 with_d
  | `JX ->
      Printf.sprintf
        "SELECT R.ID FROM R WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V %s R.U%s)%s%s"
        corr_op p2 p1 with_d
  | `JALL ->
      Printf.sprintf
        "SELECT R.ID FROM R WHERE R.Y %s ALL (SELECT S.Z FROM S WHERE S.V = R.U%s)%s%s"
        (pick rng ops) p2 p1 with_d
  | `JSOME ->
      Printf.sprintf
        "SELECT R.ID FROM R WHERE R.Y %s SOME (SELECT S.Z FROM S WHERE S.V = R.U%s)%s%s"
        (pick rng ops) p2 p1 with_d
  | `JA ->
      Printf.sprintf
        "SELECT R.ID FROM R WHERE R.Y %s (SELECT %s(S.Z) FROM S WHERE S.V = R.U%s)%s%s"
        (pick rng ops) (pick rng aggs) p2 p1 with_d
  | `Chain ->
      Printf.sprintf
        "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V %s R.U \
         AND S.Z IN (SELECT T.W FROM T WHERE T.P = S.V AND T.W %s R.Y))%s%s"
        corr_op (pick rng [| "<="; ">=" |]) p1 with_d
  | `Chain_uncorrelated ->
      (* serve-small's chain shape: no correlation predicate, so whatever
         the join order, a step carries attributes of one side only. *)
      Printf.sprintf
        "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.Z IN \
         (SELECT T.W FROM T)%s)%s%s"
        p2 p1 with_d
  | `Chain_mid ->
      (* A 4-block chain whose two small relations, T and Q, sit in the
         middle, so the join-order DP starts there; the correlation
         predicates reach across the middle blocks. *)
      Printf.sprintf
        "SELECT R.ID FROM R WHERE R.Y IN (SELECT T.W FROM T WHERE T.P %s R.U \
         AND T.W IN (SELECT Q.X FROM Q WHERE Q.X IN (SELECT S.Z FROM S \
         WHERE S.V %s T.P%s)))%s%s"
        corr_op (pick rng [| "<="; ">=" |]) p2 p1 with_d
  | `Exists ->
      Printf.sprintf
        "SELECT R.ID FROM R WHERE %s (SELECT S.ID FROM S WHERE S.V = R.U AND \
         S.Z %s R.Y%s)%s%s"
        (pick rng [| "EXISTS"; "NOT EXISTS" |])
        corr_op p2 p1 with_d
  | `Multi_from ->
      (* Multi-relation outer block: unnestable only after the outer FROM
         product is flattened (Unnest.Flatten). *)
      Printf.sprintf
        "SELECT R.ID, T.ID FROM R, T WHERE R.U <= T.W AND R.Y IN (SELECT S.Z \
         FROM S WHERE S.V %s T.P%s)%s"
        corr_op p2 with_d
  | `Uncorrelated ->
      (* Constant inner blocks: "no unnesting is needed" (Section 6). *)
      (match Random.State.int rng 3 with
      | 0 ->
          Printf.sprintf
            "SELECT R.ID FROM R WHERE R.Y %s (SELECT %s(S.Z) FROM S WHERE S.V \
             >= %d)%s%s"
            (pick rng ops) (pick rng aggs) (c ()) p1 with_d
      | 1 ->
          Printf.sprintf
            "SELECT R.ID FROM R WHERE R.Y %s %s (SELECT S.Z FROM S WHERE S.V \
             >= %d)%s%s"
            (pick rng ops)
            (pick rng [| "ALL"; "SOME" |])
            (c ()) p1 with_d
      | _ ->
          Printf.sprintf
            "SELECT R.ID FROM R WHERE %s (SELECT S.ID FROM S WHERE S.V >= %d)%s%s"
            (pick rng [| "EXISTS"; "NOT EXISTS" |])
            (c ()) p1 with_d)

let check_three_ways kind spec =
  let catalog = make_db spec in
  let rng = Random.State.make [| spec.seed + 17 |] in
  let sql = template rng kind in
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
  let naive = Unnest.Naive_eval.query q in
  let nl = Unnest.Planner.run ~strategy:Unnest.Planner.Nested_loop ~mem_pages:4 q in
  let merged = Unnest.Planner.run ~strategy:Unnest.Planner.Auto ~mem_pages:8 q in
  let a_naive = Test_util.answer_of_relation naive in
  let a_nl = Test_util.answer_of_relation nl in
  let a_merged = Test_util.answer_of_relation merged in
  if not (Test_util.answers_equal a_naive a_nl) then
    QCheck.Test.fail_reportf "naive <> nested-loop for %s@.naive: %a@.nl: %a"
      sql Test_util.pp_answer a_naive Test_util.pp_answer a_nl;
  if not (Test_util.answers_equal a_naive a_merged) then
    QCheck.Test.fail_reportf "naive <> merge for %s@.naive: %a@.merge: %a" sql
      Test_util.pp_answer a_naive Test_util.pp_answer a_merged;
  true

let make_prop name kind ?discrete_ok () =
  QCheck.Test.make ~count:60 ~name (arb_spec ?discrete_ok ())
    (check_three_ways kind)

(* ---------- the projected chain cascade, every join order ---------- *)

(* A 4-block chain with a two-attribute answer and a correlation predicate
   that skips a level (block 3 -> block 1), so every step of every order
   carries a different set of live attributes. *)
let chain4_sql rng =
  Printf.sprintf
    "SELECT R.ID, R.U FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V %s R.U \
     AND S.Z IN (SELECT T.W FROM T WHERE T.P %s S.V AND T.W IN (SELECT Q.X \
     FROM Q WHERE Q.B %s S.V)))%s"
    (pick rng [| "="; "<="; ">=" |])
    (pick rng [| "="; "<="; ">=" |])
    (pick rng [| "<="; ">=" |])
    (maybe rng (Printf.sprintf " WITH D >= 0.%d" (1 + Random.State.int rng 8)))

(* Every connected left-deep order of a K-block chain: a start block, then
   any interleaving of the left and right extensions (2^(K-1) orders). *)
let growth_orders k =
  let rec grow lo hi =
    let left = if lo > 0 then List.map (List.cons (lo - 1)) (grow (lo - 1) hi) else [] in
    let right =
      if hi < k - 1 then List.map (List.cons (hi + 1)) (grow lo (hi + 1)) else []
    in
    if lo = 0 && hi = k - 1 then [ [] ] else left @ right
  in
  List.concat_map
    (fun start ->
      List.map
        (fun steps -> { Unnest.Chain_order.start; steps; estimated_cost = nan })
        (grow start start))
    (List.init k Fun.id)

(* Degrees as IEEE-754 bits: max and min never round, so the projected
   cascade must reproduce the interpreter's degrees exactly, not within
   [Degree.equal]'s tolerance. *)
let answer_bits rel =
  List.map
    (fun (vs, d) -> (vs, Int64.bits_of_float d))
    (Test_util.answer_of_relation rel)

let check_chain_orders spec =
  let catalog = make_db spec in
  let sql = chain4_sql (Random.State.make [| spec.seed + 23 |]) in
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
  let chain =
    match Unnest.Classify.classify q with
    | Unnest.Classify.Chain_query c -> c
    | other ->
        QCheck.Test.fail_reportf "%s classified as %s" sql
          (Unnest.Classify.to_string other)
  in
  let naive = answer_bits (Unnest.Naive_eval.query q) in
  let orders = growth_orders 4 in
  if List.length orders <> 8 then
    QCheck.Test.fail_reportf "expected 8 growth orders, got %d" (List.length orders);
  List.iter
    (fun (order : Unnest.Chain_order.order) ->
      let got =
        answer_bits (Unnest.Merge_exec.run_chain ~order chain ~mem_pages:8)
      in
      let same (v1, d1) (v2, d2) =
        Array.length v1 = Array.length v2 && Array.for_all2 Value.equal v1 v2 && d1 = d2
      in
      if not (List.length got = List.length naive && List.for_all2 same got naive) then
        QCheck.Test.fail_reportf "order start %d, steps [%s] differs from naive for %s"
          order.start
          (String.concat "; " (List.map string_of_int order.steps))
          sql)
    orders;
  true

let props =
  [
    make_prop "Theorem 4.1: type N unnesting" `N ();
    make_prop "Theorem 4.2: type J unnesting" `J ();
    make_prop "Theorem 5.1: type JX unnesting" `JX ();
    make_prop "Theorem 7.1: type JALL unnesting" `JALL ();
    make_prop "SOME dual of Theorem 7.1" `JSOME ();
    (* SUM/AVG cannot mix discrete and continuous operands. *)
    make_prop "Theorem 6.1: type JA unnesting" `JA ~discrete_ok:false ();
    make_prop "Theorem 8.1: chain unnesting" `Chain ();
    QCheck.Test.make ~count:60
      ~name:"Theorem 8.1: 4-block chain, every growth order, degree bits"
      (arb_spec ()) check_chain_orders;
    make_prop "EXISTS / NOT EXISTS semi- and anti-join unnesting" `Exists ();
    (* uncorrelated aggregates use SUM/AVG, which cannot mix discrete and
       continuous operands *)
    make_prop "constant inner blocks (uncorrelated NA / NALL / NEXISTS)"
      `Uncorrelated ~discrete_ok:false ();
    make_prop "multi-relation outer blocks via flattening" `Multi_from ();
  ]

(* ---------- deterministic regression cases ---------- *)

let tc = Alcotest.test_case

let regression_cases =
  [
    tc "empty inner relation: IN yields nothing, NOT IN / ALL yield all" `Quick
      (fun () ->
        let spec = { seed = 1; n_r = 5; n_s = 0; n_t = 0; discrete_ok = false } in
        let catalog = make_db spec in
        let bind sql = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
        let run sql = Unnest.Planner.run (bind sql) in
        Alcotest.(check int) "IN empty" 0
          (Relation.cardinality (run "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)"));
        Alcotest.(check int) "NOT IN empty keeps all" 5
          (Relation.cardinality
             (run "SELECT R.ID FROM R WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V = R.U)"));
        Alcotest.(check int) "ALL over empty keeps all" 5
          (Relation.cardinality
             (run "SELECT R.ID FROM R WHERE R.Y < ALL (SELECT S.Z FROM S WHERE S.V = R.U)"));
        Alcotest.(check int) "COUNT over empty compares with 0" 5
          (Relation.cardinality
             (run "SELECT R.ID FROM R WHERE R.Y >= (SELECT COUNT(S.Z) FROM S WHERE S.V = R.U)")));
    tc "degenerate: outer empty" `Quick (fun () ->
        let spec = { seed = 2; n_r = 0; n_s = 5; n_t = 0; discrete_ok = false } in
        let catalog = make_db spec in
        let q =
          Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
            "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V = R.U)"
        in
        let naive, nl, merged = Test_util.run_all_strategies q in
        Alcotest.(check int) "naive" 0 (Relation.cardinality naive);
        Alcotest.(check int) "nl" 0 (Relation.cardinality nl);
        Alcotest.(check int) "merge" 0 (Relation.cardinality merged));
  ]

let suites =
  [
    ("equivalence.theorems", List.map QCheck_alcotest.to_alcotest props);
    ("equivalence.regressions", regression_cases);
  ]

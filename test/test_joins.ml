(** Tests of the two fuzzy join algorithms of Section 3: the extended
    merge-join must produce exactly the block-nested-loop answer, with
    strictly better asymptotic I/O. *)

open Frepro
open Frepro.Relational

let tc = Alcotest.test_case

let join_schema name =
  Schema.make ~name [ ("ID", Schema.TNum); ("X", Schema.TNum) ]

let rel_of_values env name values =
  Relation.of_list env (join_schema name)
    (List.mapi
       (fun i (v, d) -> Test_util.tuple [ Value.Int i; Value.Fuzzy v ] d)
       values)

(* Random relations over a small numeric domain so supports overlap often. *)
let arb_join_input =
  let open QCheck.Gen in
  let value =
    map2
      (fun seed crisp ->
        let rng = Random.State.make [| seed |] in
        if crisp then Fuzzy.Possibility.crisp (Random.State.float rng 50.0)
        else
          Fuzzy.Possibility.trap
            (Workload.Gen.random_trapezoid rng ~lo:0.0 ~hi:50.0))
      int bool
  in
  let entry = pair value (map (fun d -> 0.2 +. (0.8 *. d)) (float_bound_inclusive 1.0)) in
  pair (list_size (int_range 0 30) entry) (list_size (int_range 0 30) entry)

let arb_join = QCheck.make arb_join_input

let materialised_join join_fn =
  QCheck.Test.make ~count:100 ~name:"merge-join = nested-loop join" arb_join
    (fun (rs, ss) ->
      let env = Test_util.fresh_env () in
      let r = rel_of_values env "R" rs and s = rel_of_values env "S" ss in
      let nl =
        Join_nested_loop.join ~outer:r ~inner:s ~mem_pages:8
          ~on:[ (1, Fuzzy.Fuzzy_compare.Eq, 1) ] ()
      in
      let mj = join_fn ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1 ~mem_pages:8 () in
      Test_util.answers_equal
        (Test_util.answer_of_relation (Algebra.dedup_max nl))
        (Test_util.answer_of_relation (Algebra.dedup_max mj)))

let prop_merge_equals_nl =
  materialised_join (fun ~outer ~inner ~outer_attr ~inner_attr ~mem_pages () ->
      Join_merge.join_eq ~outer ~inner ~outer_attr ~inner_attr ~mem_pages ())

let hand_case =
  tc "hand-checked fuzzy equi-join degrees" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let tr = Fuzzy.Trapezoid.make in
      let r =
        rel_of_values env "R"
          [
            (Fuzzy.Possibility.trap (tr 30. 30. 35. 35.), 1.0);
            (Fuzzy.Possibility.trap (tr 20. 20. 28. 28.), 1.0);
          ]
      in
      let s =
        rel_of_values env "S"
          [
            (Fuzzy.Possibility.trap (tr 32. 32. 34. 34.), 1.0);
            (Fuzzy.Possibility.crisp 25.0, 0.6);
            (Fuzzy.Possibility.trap (tr 30. 30. 40. 40.), 1.0);
          ]
      in
      let out =
        Join_merge.join_eq ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8 ()
      in
      (* r0 (core 30-35) joins s0 (core 32-34, deg 1), s2 (core 30-40, deg 1);
         r1 (core 20-28) joins s1 (25, deg 0.6). *)
      Alcotest.(check int) "three matches" 3 (Relation.cardinality out);
      List.iter
        (fun t -> Alcotest.(check bool) "full or 0.6" true
            (Fuzzy.Degree.equal (Ftuple.degree t) 1.0
            || Fuzzy.Degree.equal (Ftuple.degree t) 0.6))
        (Relation.to_list out))

let dangling_window_case =
  tc "dangling tuples are examined but never matched" `Quick (fun () ->
      (* The paper's example: s.X = [10, 35] sits in Rng(r) for r.X = [30, 40]
         via sort order, while s'.X in (10, 30) never joins r. *)
      let env = Test_util.fresh_env () in
      let tr a b = Fuzzy.Possibility.trap (Fuzzy.Trapezoid.make a a b b) in
      let r = rel_of_values env "R" [ (tr 30. 40., 1.0) ] in
      let s =
        rel_of_values env "S"
          [ (tr 10. 35., 1.0); (tr 15. 20., 1.0); (tr 33. 34., 1.0) ]
      in
      let out =
        Join_merge.join_eq ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8 ()
      in
      Alcotest.(check int) "two real matches" 2 (Relation.cardinality out))

let residual_case =
  tc "residual predicate conjunct" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let r = rel_of_values env "R" [ (Fuzzy.Possibility.crisp 10.0, 1.0) ] in
      let s = rel_of_values env "S" [ (Fuzzy.Possibility.crisp 10.0, 1.0) ] in
      let out =
        Join_merge.join_eq ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8 ~residual:(fun _ _ -> 0.25) ()
      in
      match Relation.to_list out with
      | [ t ] -> Alcotest.(check (float 1e-9)) "degree" 0.25 (Ftuple.degree t)
      | l -> Alcotest.failf "expected 1 tuple, got %d" (List.length l))

let empty_inputs =
  tc "empty inputs" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let r = rel_of_values env "R" [] in
      let s = rel_of_values env "S" [ (Fuzzy.Possibility.crisp 1.0, 1.0) ] in
      let out =
        Join_merge.join_eq ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8 ()
      in
      Alcotest.(check int) "empty" 0 (Relation.cardinality out);
      let out2 =
        Join_nested_loop.join ~outer:s ~inner:r ~mem_pages:8
          ~on:[ (1, Fuzzy.Fuzzy_compare.Eq, 1) ] ()
      in
      Alcotest.(check int) "empty nl" 0 (Relation.cardinality out2))

(* ---------- I/O accounting ---------- *)

let generated_pair env =
  let spec n = { Workload.Gen.default_spec with n; tuple_bytes = 128; groups = 50 } in
  Workload.Gen.join_pair env ~seed:11 ~outer:(spec 400) ~inner:(spec 400)

let nl_io_formula =
  tc "nested loop I/O follows b_R + ceil(b_R/(M-1)) * b_S" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let r, s = generated_pair env in
      let br = Relation.num_pages r and bs = Relation.num_pages s in
      let m = 4 in
      Storage.Iostats.reset env.Storage.Env.stats;
      Join_nested_loop.iter_pairs ~outer:r ~inner:s ~mem_pages:m ~f:(fun _ _ -> ());
      let expected =
        br + (bs * ((br + (m - 1) - 1) / (m - 1)))
      in
      Alcotest.(check int) "reads" expected
        (Storage.Iostats.page_reads env.Storage.Env.stats))

(* The pipelined merge-join reads each input page once and each run page
   once, in the final merge (a fresh run page starts as a zeroed frame,
   with no read). No sorted file is written and read again. Both 7-page inputs fit in 8 pages alone but not together, so
   the outer side is written out as one run while the inner side is
   formed; with 64 pages both stay in memory and nothing is written. *)
let sweep_io mem_pages =
  let env = Test_util.fresh_env () in
  let r, s = generated_pair env in
  Storage.Buffer_pool.drop env.Storage.Env.pool;
  Storage.Iostats.reset env.Storage.Env.stats;
  Join_merge.sort_sweep ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
    ~mem_pages ~emit:(fun _ _ ~inner:_ ~idx:_ ~n:_ ~d_eq:_ -> ()) ();
  let stats = env.Storage.Env.stats in
  ( Relation.num_pages r + Relation.num_pages s,
    Storage.Iostats.page_reads stats,
    Storage.Iostats.page_writes stats )

let merge_io_linear =
  tc "merge-join reads inputs once and each run page once" `Quick (fun () ->
      let inputs, reads, writes = sweep_io 8 in
      Alcotest.(check int) "one side written as one run" 7 writes;
      Alcotest.(check int) "reads = b_R + b_S + run pages"
        (inputs + writes) reads;
      let inputs, reads, writes = sweep_io 64 in
      Alcotest.(check int) "nothing written" 0 writes;
      Alcotest.(check int) "reads = b_R + b_S" inputs reads)

let sorted_order_check =
  tc "sort_sweep feeds the outer side in Definition 3.1 order" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let r, s = generated_pair env in
      let prev = ref None and rows = ref 0 in
      Join_merge.sort_sweep ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
        ~mem_pages:8
        ~emit:(fun ob i ~inner:_ ~idx:_ ~n:_ ~d_eq:_ ->
          incr rows;
          let sup = Value.support (Ftuple.value (Batch.row ob i) 1) in
          (match !prev with
          | Some p ->
              Alcotest.(check bool) "nondecreasing" true
                (Fuzzy.Interval.compare_lex p sup <= 0)
          | None -> ());
          prev := Some sup)
        ();
      Alcotest.(check int) "every outer tuple once" (Relation.cardinality r) !rows)

let fanout_sanity =
  tc "workload fan-out is close to n_inner / groups" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let r, s = generated_pair env in
      let matches = ref 0 in
      Join_nested_loop.iter_pairs ~outer:r ~inner:s ~mem_pages:8 ~f:(fun rt st ->
          if
            Fuzzy.Degree.positive
              (Value.compare_degree Fuzzy.Fuzzy_compare.Eq (Ftuple.value rt 1)
                 (Ftuple.value st 1))
          then incr matches);
      let c = float_of_int !matches /. 400.0 in
      (* expected fan-out = 400 / 50 = 8 *)
      Alcotest.(check bool)
        (Printf.sprintf "fan-out %.2f within [5, 11]" c)
        true
        (c > 5.0 && c < 11.0))

let suites =
  [
    ( "joins.equivalence",
      List.map QCheck_alcotest.to_alcotest
        [ prop_merge_equals_nl ]
      @ [ hand_case; dangling_window_case; residual_case; empty_inputs ] );
    ("joins.io", [ nl_io_formula; merge_io_linear; sorted_order_check; fanout_sanity ]);
  ]

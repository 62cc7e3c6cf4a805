(** Tests of the relational layer: values, schemas, codec, relations,
    algebra, and aggregates. *)

open Frepro
open Frepro.Relational

let tc = Alcotest.test_case
let eq = Fuzzy.Fuzzy_compare.Eq
let gt = Fuzzy.Fuzzy_compare.Gt

let value_tests =
  [
    tc "crisp comparisons are boolean" `Quick (fun () ->
        Test_util.check_degree "5 = 5" 1.0
          (Value.compare_degree eq (Value.crisp_num 5.) (Value.crisp_num 5.));
        Test_util.check_degree "5 = 6" 0.0
          (Value.compare_degree eq (Value.crisp_num 5.) (Value.crisp_num 6.));
        Test_util.check_degree "int/fuzzy promote" 1.0
          (Value.compare_degree eq (Value.Int 5) (Value.crisp_num 5.)));
    tc "string comparisons are lexicographic and crisp" `Quick (fun () ->
        Test_util.check_degree "abc = abc" 1.0
          (Value.compare_degree eq (Value.Str "abc") (Value.Str "abc"));
        Test_util.check_degree "abc > abb" 1.0
          (Value.compare_degree gt (Value.Str "abc") (Value.Str "abb"));
        Test_util.check_degree "type mismatch" 0.0
          (Value.compare_degree eq (Value.Str "5") (Value.crisp_num 5.)));
    tc "fuzzy equality via possibility kernel" `Quick (fun () ->
        let v1 = Test_util.term "medium young" and v2 = Test_util.term "about 35" in
        Test_util.check_degree "0.5 crossing" 0.5 (Value.compare_degree eq v1 v2));
    tc "structural equality for dedup" `Quick (fun () ->
        Alcotest.(check bool) "same trapezoid" true
          (Value.equal (Test_util.term "high") (Test_util.term "high"));
        Alcotest.(check bool) "Int vs equivalent crisp" true
          (Value.equal (Value.Int 3) (Value.crisp_num 3.0));
        Alcotest.(check bool) "different shapes differ" false
          (Value.equal (Test_util.term "high") (Test_util.term "low")));
    tc "compare_structural is a total preorder whose classes are equal's" `Quick
      (fun () ->
        let point v d = Value.Fuzzy (Fuzzy.Possibility.discrete [ (v, d) ]) in
        let vs =
          [ Value.Int 3; Value.crisp_num 3.0; point 3.0 1.0; point 3.0 0.5;
            Value.Int 5; Value.crisp_num (-0.0); point 0.0 1.0; Value.Int 0;
            Value.Fuzzy (Fuzzy.Possibility.discrete [ (1., 1.); (2., 0.5) ]);
            Value.Fuzzy (Fuzzy.Possibility.trap (Fuzzy.Trapezoid.make 1. 2. 3. 4.));
            Value.Fuzzy (Fuzzy.Possibility.trap (Fuzzy.Trapezoid.make 3. 3. 3. 4.));
            Value.Str "a"; Value.Str "b" ]
        in
        let cmp = Value.compare_structural in
        Alcotest.(check bool) "Int 3 = crisp 3.0 = DIST(3:1)" true
          (cmp (Value.Int 3) (point 3.0 1.0) = 0
          && cmp (Value.crisp_num 3.0) (point 3.0 1.0) = 0
          && Value.equal (Value.crisp_num 3.0) (point 3.0 1.0));
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let ab = cmp a b in
                if (ab = 0) <> Value.equal a b || compare ab 0 <> compare 0 (cmp b a)
                then Alcotest.failf "%s vs %s" (Value.to_string a) (Value.to_string b);
                List.iter
                  (fun c ->
                    if ab <= 0 && cmp b c <= 0 && cmp a c > 0 then
                      Alcotest.failf "not transitive: %s, %s, %s" (Value.to_string a)
                        (Value.to_string b) (Value.to_string c))
                  vs)
              vs)
          vs);
    tc "support intervals" `Quick (fun () ->
        Test_util.(Alcotest.check interval) "term support"
          (Fuzzy.Interval.make 20. 35.)
          (Value.support (Test_util.term "medium young"));
        Test_util.(Alcotest.check interval) "int support"
          (Fuzzy.Interval.point 7.) (Value.support (Value.Int 7)));
  ]

let schema_tests =
  [
    tc "index_of handles bare and qualified names" `Quick (fun () ->
        let s = Schema.make ~name:"R" [ ("X", Schema.TNum); ("Y", Schema.TStr) ] in
        Alcotest.(check (option int)) "bare" (Some 0) (Schema.index_of s "X");
        Alcotest.(check (option int)) "qualified" (Some 1) (Schema.index_of s "R.Y");
        Alcotest.(check (option int)) "wrong qualifier" None (Schema.index_of s "S.Y");
        Alcotest.(check (option int)) "missing" None (Schema.index_of s "Z"));
    tc "duplicate attributes rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try ignore (Schema.make ~name:"R" [ ("X", Schema.TNum); ("X", Schema.TNum) ]); false
           with Invalid_argument _ -> true));
    tc "concat qualifies attribute names" `Quick (fun () ->
        let r = Schema.make ~name:"R" [ ("X", Schema.TNum) ] in
        let s = Schema.make ~name:"S" [ ("X", Schema.TNum) ] in
        let j = Schema.concat ~name:"J" r s in
        Alcotest.(check int) "arity" 2 (Schema.arity j);
        Alcotest.(check (option int)) "R.X" (Some 0) (Schema.index_of j "R.X");
        Alcotest.(check (option int)) "S.X" (Some 1) (Schema.index_of j "S.X"));
  ]

let arb_value =
  let open QCheck.Gen in
  let gen =
    frequency
      [
        (2, map (fun i -> Value.Int i) (int_range (-1000) 1000));
        (2, map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 20)));
        ( 3,
          map
            (fun (a, b, c, d) ->
              match List.sort Float.compare [ a; b; c; d ] with
              | [ a; b; c; d ] ->
                  Value.Fuzzy (Fuzzy.Possibility.trap (Fuzzy.Trapezoid.make a b c d))
              | _ -> assert false)
            (quad (float_bound_inclusive 100.) (float_bound_inclusive 100.)
               (float_bound_inclusive 100.) (float_bound_inclusive 100.)) );
        ( 1,
          map
            (fun pts -> Value.Fuzzy (Fuzzy.Possibility.discrete pts))
            (list_size (int_range 1 5)
               (pair (float_bound_inclusive 50.)
                  (map (fun d -> 0.1 +. (0.9 *. d)) (float_bound_inclusive 1.0)))) );
      ]
  in
  QCheck.make ~print:Value.to_string gen

let arb_tuple =
  QCheck.make
    ~print:(fun t -> Format.asprintf "%a" Ftuple.pp t)
    QCheck.Gen.(
      map2
        (fun vs d -> Ftuple.make (Array.of_list vs) (0.01 +. (0.99 *. d)))
        (list_size (int_range 0 6) (QCheck.gen arb_value))
        (float_bound_inclusive 1.0))

let prop_codec_roundtrip =
  QCheck.Test.make ~count:500 ~name:"codec roundtrip" arb_tuple (fun t ->
      let t' = Codec.decode (Codec.encode t) in
      Ftuple.values_equal t t' && Fuzzy.Degree.equal (Ftuple.degree t) (Ftuple.degree t'))

let prop_codec_padding =
  QCheck.Test.make ~count:200 ~name:"codec padding to fixed size" arb_tuple
    (fun t ->
      let natural = Codec.encoded_size t in
      let padded = Codec.encode ~pad_to:(natural + 64) t in
      Bytes.length padded = natural + 64
      && Ftuple.values_equal t (Codec.decode padded))

(* The merge-join's sort reads its key with [Codec.support_into]: it must be
   the support of the decoded value to the bit, for every value kind and
   with or without padding. *)
let arb_key_value =
  QCheck.make ~print:Value.to_string
    QCheck.Gen.(
      frequency
        [
          (4, QCheck.gen arb_value);
          ( 1,
            map Value.crisp_num
              (oneof
                 [ float_bound_inclusive 100.; return (-0.0); return 0.0; return (-3.5) ]) );
        ])

let prop_support_into =
  QCheck.Test.make ~count:500 ~name:"Codec.support_into = support of the decoded value, bitwise"
    QCheck.(pair (list_of_size (Gen.int_range 1 6) arb_key_value) bool)
    (fun (vs, pad) ->
      let t = Ftuple.make (Array.of_list vs) 0.5 in
      let buf =
        if pad then Codec.encode ~pad_to:(Codec.encoded_size t + 32) t
        else Codec.encode t
      in
      let decoded = Codec.decode buf in
      (* in place on a page: the record starts [pos] bytes in *)
      let pos = List.length vs * 3 in
      let page = Bytes.cat (Bytes.make pos '\255') buf in
      let bits = Int64.bits_of_float in
      List.for_all
        (fun a ->
          let lo = [| nan; nan |] and hi = [| nan; nan |] in
          Codec.support_into page ~pos a ~lo ~hi 1;
          let want = Value.support (Ftuple.value decoded a) in
          bits lo.(1) = bits (Fuzzy.Interval.lo want)
          && bits hi.(1) = bits (Fuzzy.Interval.hi want)
          && Float.is_nan lo.(0) && Float.is_nan hi.(0))
        (List.init (List.length vs) Fun.id))

(* The max-fold against a direct reading of its contract: the first tuple
   of each [compare_values] class represents it, with the class's max
   degree, and classes come out in [compare_values] order. *)
let reference_fold tuples =
  let groups = ref [] in
  List.iter
    (fun t ->
      if
        not
          (List.exists
             (fun (rep, d) ->
               if Ftuple.compare_values !rep t = 0 then begin
                 d := Fuzzy.Degree.disj !d (Ftuple.degree t);
                 true
               end
               else false)
             !groups)
      then groups := !groups @ [ (ref t, ref (Ftuple.degree t)) ])
    tuples;
  List.stable_sort
    (fun (a, _) (b, _) -> Ftuple.compare_values a b)
    (List.map (fun (rep, d) -> (!rep, !d)) !groups)
  |> List.map (fun (t, d) -> (Array.map Value.to_string t.Ftuple.values, Int64.bits_of_float d))

let fold_relation tuples =
  let env = Test_util.fresh_env () in
  let acc = Algebra.Max_fold.create () in
  List.iter (Algebra.Max_fold.add acc) tuples;
  let schema = Schema.make ~name:"F" [ ("K", Schema.TNum); ("L", Schema.TNum) ] in
  Relation.to_list (Algebra.Max_fold.to_relation acc env schema)

let ordered_rows rows =
  List.map (fun t -> (Array.map Value.to_string t.Ftuple.values, Int64.bits_of_float (Ftuple.degree t))) rows

let fold_input value =
  let open QCheck.Gen in
  let tuple =
    map3
      (fun a b d -> Ftuple.make [| a; b |] (0.01 +. (0.99 *. d)))
      value value (float_bound_inclusive 1.0)
  in
  QCheck.make ~print:(fun l -> string_of_int (List.length l))
    (list_size (int_range 0 3000) tuple)

let arb_fold_input =
  let open QCheck.Gen in
  let value =
    oneof
      [
        map (fun i -> Value.Int i) (int_range 0 4);
        map (fun i -> Value.crisp_num (float_of_int i)) (int_range 0 4);
        return (Value.crisp_num (-0.0));
        map (fun s -> Value.Str s) (oneofl [ "a"; "b" ]);
        return (Value.Fuzzy (Fuzzy.Possibility.trap (Fuzzy.Trapezoid.make 1. 2. 3. 4.)));
        (* -0.0 and 0.0 encode differently but compare equal *)
        map
          (fun z -> Value.Fuzzy (Fuzzy.Possibility.trap (Fuzzy.Trapezoid.make z 0. 1. 2.)))
          (oneofl [ -0.0; 0.0 ]);
        return (Value.crisp_num 2.5);
        map
          (fun pts -> Value.Fuzzy (Fuzzy.Possibility.discrete pts))
          (oneofl [ [ (1., 0.5) ]; [ (1., 1.); (2., 0.5) ]; [ (-0.0, 0.5); (3., 0.25) ]; [ (0.0, 0.5); (3., 0.25) ] ]);
        (* a one-point distribution at degree 1 is the number it holds *)
        map
          (fun i -> Value.Fuzzy (Fuzzy.Possibility.discrete [ (float_of_int i, 1.0) ]))
          (int_range 0 4);
        return (Value.Fuzzy (Fuzzy.Possibility.discrete [ (-0.0, 1.0) ]));
      ]
  in
  fold_input value

let prop_max_fold =
  QCheck.Test.make ~count:30 ~name:"Max_fold = reference fold: representatives, degree bits, order"
    arb_fold_input (fun tuples ->
      ordered_rows (fold_relation tuples) = reference_fold tuples)

(* The max-fold's hash and order key are computed from encodings
   ([Codec.values_hash], [Codec.order_key]); here are the same rules read
   off decoded values. *)
let mix h =
  let h = (h lxor (h lsr 31)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let float_hash x = mix (if x = 0.0 then 0 else Int64.to_int (Int64.bits_of_float x))

let value_hash = function
  | Value.Int i -> float_hash (float_of_int i)
  | Value.Str s -> mix (String.fold_left (fun h c -> (31 * h) + Char.code c) (String.length s) s)
  | Value.Fuzzy (Fuzzy.Possibility.Trap { a; b; c; d }) ->
      if a = d then float_hash a
      else mix (float_hash a + (3 * float_hash b) + (5 * float_hash c) + (7 * float_hash d))
  | Value.Fuzzy (Fuzzy.Possibility.Discrete [ (v, 1.0) ]) -> float_hash v
  | Value.Fuzzy (Fuzzy.Possibility.Discrete pts) ->
      List.fold_left (fun h (v, d) -> mix (h + float_hash v + (3 * float_hash d))) 1 pts

let tuple_hash (t : Ftuple.t) =
  Array.fold_left (fun h v -> mix (h + value_hash v)) (Array.length t.values) t.values

let order_key (t : Ftuple.t) =
  if Array.length t.values = 0 then 0.0
  else
    match t.values.(0) with
    | Value.Str _ -> neg_infinity
    | Value.Int i -> float_of_int i
    | Value.Fuzzy (Fuzzy.Possibility.Trap tr) -> tr.Fuzzy.Trapezoid.a
    | Value.Fuzzy (Fuzzy.Possibility.Discrete [ (v, 1.0) ]) -> v
    | Value.Fuzzy (Fuzzy.Possibility.Discrete _) -> infinity

(* The encoding in place on a page, [pos] bytes in. *)
let on_page t =
  let pos = 5 in
  (Bytes.cat (Bytes.make pos '\255') (Codec.encode ~pad_to:(Codec.encoded_size t + 7) t), pos)

let same_hash_and_key t =
  let page, pos = on_page t in
  Codec.values_hash page ~pos = tuple_hash t
  && Int64.bits_of_float (Codec.order_key page ~pos) = Int64.bits_of_float (order_key t)

let prop_hash_from_bytes =
  QCheck.Test.make ~count:500
    ~name:"Codec.values_hash / order_key from bytes = the value-level rules" arb_tuple
    same_hash_and_key

(* On the max-fold's collision-prone values (Int and crisp numbers, signed
   zeros, one-point distributions): the same, and tuples that
   [compare_values] equates hash alike. *)
let prop_hash_classes =
  QCheck.Test.make ~count:100
    ~name:"values_hash on colliding values: the value-level rules, classes hash alike"
    arb_fold_input (fun tuples ->
      let some = List.filteri (fun i _ -> i < 60) tuples in
      let hash t = let page, pos = on_page t in Codec.values_hash page ~pos in
      List.for_all same_hash_and_key some
      && List.for_all
           (fun a -> List.for_all (fun b -> Ftuple.compare_values a b <> 0 || hash a = hash b) some)
           some)

let fold_tests =
  [
    tc "Max_fold: Int 3 and crisp 3.0 are one key, the first is kept" `Quick
      (fun () ->
        let rows first second =
          fold_relation
            [ Ftuple.make [| first; Value.Int 0 |] 0.2; Ftuple.make [| second; Value.Int 0 |] 0.9 ]
        in
        (match rows (Value.Int 3) (Value.crisp_num 3.0) with
        | [ t ] ->
            Alcotest.(check bool) "Int kept" true (Ftuple.value t 0 = Value.Int 3);
            Alcotest.(check (float 0.0)) "max degree" 0.9 (Ftuple.degree t)
        | l -> Alcotest.failf "expected one row, got %d" (List.length l));
        match rows (Value.crisp_num 3.0) (Value.Int 3) with
        | [ t ] ->
            Alcotest.(check bool) "crisp kept" true
              (match Ftuple.value t 0 with Value.Fuzzy _ -> true | _ -> false)
        | l -> Alcotest.failf "expected one row, got %d" (List.length l));
    tc "Max_fold: -0.0 and 0.0 fold as compare_values says" `Quick (fun () ->
        let neg = Ftuple.make [| Value.crisp_num (-0.0); Value.Int 0 |] 0.3
        and pos = Ftuple.make [| Value.crisp_num 0.0; Value.Int 0 |] 0.6 in
        let same = Ftuple.compare_values neg pos = 0 in
        Alcotest.(check int) "rows" (if same then 1 else 2)
          (List.length (fold_relation [ neg; pos ]));
        Alcotest.(check bool) "dedup_max agrees" true
          (ordered_rows (fold_relation [ neg; pos ])
           = reference_fold [ neg; pos ]));
    tc "values_hash: Int 3, crisp 3.0 and DIST(3:1) collide; -0.0 hashes as 0.0" `Quick
      (fun () ->
        let hash v = let page, pos = on_page (Ftuple.make [| v; Value.Int 1 |] 0.5) in
          Codec.values_hash page ~pos in
        let three = hash (Value.Int 3) in
        Alcotest.(check int) "crisp 3.0" three (hash (Value.crisp_num 3.0));
        Alcotest.(check int) "DIST(3:1)" three
          (hash (Value.Fuzzy (Fuzzy.Possibility.discrete [ (3.0, 1.0) ])));
        Alcotest.(check int) "-0.0" (hash (Value.crisp_num 0.0)) (hash (Value.crisp_num (-0.0)));
        Alcotest.(check int) "Int 0" (hash (Value.Int 0)) (hash (Value.crisp_num (-0.0))));
  ]

let codec_tests =
  [
    tc "pad_to smaller than encoding rejected" `Quick (fun () ->
        let t = Test_util.tuple [ Value.Str "hello world" ] 1.0 in
        Alcotest.(check bool) "raises" true
          (try ignore (Codec.encode ~pad_to:4 t); false
           with Invalid_argument _ -> true));
    tc "support_into raises where Interval.make would" `Quick (fun () ->
        (* one value: tag, bounds; then the degree *)
        let record tag bounds =
          let b = Bytes.make (2 + 1 + (8 * List.length bounds) + 8) '\000' in
          Bytes.set_uint16_le b 0 1;
          Bytes.set_uint8 b 2 tag;
          List.iteri (fun k f -> Bytes.set_int64_le b (3 + (8 * k)) (Int64.bits_of_float f)) bounds;
          b
        in
        let outcome b =
          let lo = [| 7.0 |] and hi = [| 7.0 |] in
          match Codec.support_into b ~pos:0 0 ~lo ~hi 0 with
          | () -> Printf.sprintf "ok %g %g" lo.(0) hi.(0)
          | exception Invalid_argument m -> Printf.sprintf "raise %s (%g %g)" m lo.(0) hi.(0)
        and interval a d =
          match Fuzzy.Interval.make a d with
          | i -> Printf.sprintf "ok %g %g" (Fuzzy.Interval.lo i) (Fuzzy.Interval.hi i)
          | exception Invalid_argument m -> Printf.sprintf "raise %s (7 7)" m
        in
        Alcotest.(check string) "crisp NaN" (interval nan nan) (outcome (record 2 [ nan ]));
        Alcotest.(check string) "trapezoid lo > hi" (interval 5. 1.)
          (outcome (record 3 [ 5.; 4.; 3.; 1. ]));
        Alcotest.(check string) "trapezoid NaN" (interval nan 1.)
          (outcome (record 3 [ nan; 0.; 0.; 1. ]));
        Alcotest.(check string) "ordered trapezoid" (interval 1. 5.)
          (outcome (record 3 [ 1.; 2.; 3.; 5. ])));
  ]

let relation_tests =
  [
    tc "zero-degree tuples are not members" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let s = Schema.make ~name:"R" [ ("X", Schema.TNum) ] in
        let r =
          Relation.of_list env s
            [ Test_util.tuple [ Value.Int 1 ] 0.0; Test_util.tuple [ Value.Int 2 ] 0.4 ]
        in
        Alcotest.(check int) "only positive degrees" 1 (Relation.cardinality r));
    tc "of_list / to_list roundtrip with padding" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let s = Schema.make ~name:"R" [ ("X", Schema.TNum) ] in
        let tuples = List.init 100 (fun i -> Test_util.tuple [ Value.Int i ] 1.0) in
        let r = Relation.of_list ~pad_to:128 env s tuples in
        Alcotest.(check int) "cardinality" 100 (Relation.cardinality r);
        Alcotest.(check bool) "pages reflect padding" true (Relation.num_pages r >= 2);
        let back = Relation.to_list r in
        Alcotest.(check bool) "same values" true
          (List.for_all2 Ftuple.values_equal tuples back));
  ]

let mk_rel env name rows =
  let s = Schema.make ~name [ ("K", Schema.TStr); ("V", Schema.TNum) ] in
  Relation.of_list env s
    (List.map (fun (k, v, d) -> Test_util.tuple [ Value.Str k; Value.crisp_num v ] d) rows)

let algebra_tests =
  [
    tc "select combines degrees by min" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let r = mk_rel env "R" [ ("a", 1., 0.9); ("b", 2., 0.3) ] in
        let out = Algebra.select r ~pred:(fun _ -> 0.5) in
        let ds = List.map Ftuple.degree (Relation.to_list out) in
        Alcotest.(check (list (float 1e-9))) "min degrees" [ 0.5; 0.3 ] ds);
    tc "dedup keeps max degree (fuzzy OR)" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let r = mk_rel env "R" [ ("a", 1., 0.3); ("a", 1., 0.7); ("b", 1., 0.2) ] in
        let out = Algebra.dedup_max r in
        let ans = Test_util.answer_of_relation out in
        Alcotest.(check int) "two rows" 2 (List.length ans);
        let d_a = List.assoc "a" (List.map (fun (vs, d) ->
          (match vs.(0) with Value.Str s -> s | _ -> "?"), d) ans) in
        Alcotest.(check (float 1e-9)) "max kept" 0.7 d_a);
    tc "project then dedup" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let r = mk_rel env "R" [ ("a", 1., 0.3); ("a", 2., 0.8) ] in
        let out = Algebra.project r ~attrs:[ "K" ] in
        Alcotest.(check int) "single row" 1 (Relation.cardinality out);
        match Relation.to_list out with
        | [ t ] -> Alcotest.(check (float 1e-9)) "max degree" 0.8 (Ftuple.degree t)
        | _ -> Alcotest.fail "expected one tuple");
    tc "project unknown attribute errors" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let r = mk_rel env "R" [ ("a", 1., 1.) ] in
        Alcotest.(check bool) "raises" true
          (try ignore (Algebra.project r ~attrs:[ "NOPE" ]); false
           with Invalid_argument _ -> true));
    tc "union_max merges by max" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let r = mk_rel env "R" [ ("a", 1., 0.4) ] in
        let s = mk_rel env "S" [ ("a", 1., 0.6); ("b", 2., 0.5) ] in
        let u = Algebra.union_max r s in
        Alcotest.(check int) "rows" 2 (Relation.cardinality u));
    tc "threshold implements WITH D >= z" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let r = mk_rel env "R" [ ("a", 1., 0.4); ("b", 1., 0.8) ] in
        let out = Algebra.threshold r 0.5 in
        Alcotest.(check int) "one survives" 1 (Relation.cardinality out));
    tc "product multiplies cardinalities, degree is min" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let r = mk_rel env "R" [ ("a", 1., 0.9); ("b", 2., 0.8) ] in
        let s = mk_rel env "S" [ ("x", 3., 0.5) ] in
        let p = Algebra.product r s in
        Alcotest.(check int) "2x1" 2 (Relation.cardinality p);
        List.iter
          (fun t -> Alcotest.(check bool) "degree <= 0.5" true (Ftuple.degree t <= 0.5))
          (Relation.to_list p));
    tc "group collects by key" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let r = mk_rel env "R" [ ("a", 1., 1.); ("a", 2., 1.); ("b", 3., 1.) ] in
        let groups = Algebra.group r ~key:[ 0 ] in
        Alcotest.(check int) "two groups" 2 (List.length groups);
        let sizes = List.map (fun (_, ts) -> List.length ts) groups in
        Alcotest.(check (list int)) "sizes" [ 2; 1 ] sizes);
  ]

let aggregate_tests =
  [
    tc "count / empty semantics" `Quick (fun () ->
        Alcotest.(check bool) "count []" true
          (Aggregate.apply Aggregate.Count [] = Some (Value.Int 0));
        Alcotest.(check bool) "sum [] is NULL" true (Aggregate.apply Aggregate.Sum [] = None);
        Alcotest.(check bool) "min [] is NULL" true (Aggregate.apply Aggregate.Min [] = None));
    tc "sum and avg use fuzzy arithmetic" `Quick (fun () ->
        let vs = [ Value.crisp_num 10.; Value.crisp_num 20. ] in
        (match Aggregate.apply Aggregate.Sum vs with
        | Some (Value.Fuzzy p) ->
            Alcotest.(check (float 1e-9)) "sum" 30.0 (Fuzzy.Defuzz.core_center p)
        | _ -> Alcotest.fail "sum shape");
        match Aggregate.apply Aggregate.Avg vs with
        | Some (Value.Fuzzy p) ->
            Alcotest.(check (float 1e-9)) "avg" 15.0 (Fuzzy.Defuzz.core_center p)
        | _ -> Alcotest.fail "avg shape");
    tc "min/max defuzzify by core center and return originals" `Quick (fun () ->
        let low = Test_util.term "about 40K" and high = Test_util.term "high" in
        (match Aggregate.apply Aggregate.Max [ low; high ] with
        | Some v -> Alcotest.(check bool) "max is high" true (Value.equal v high)
        | None -> Alcotest.fail "max");
        match Aggregate.apply Aggregate.Min [ low; high ] with
        | Some v -> Alcotest.(check bool) "min is about 40K" true (Value.equal v low)
        | None -> Alcotest.fail "min");
    tc "non-numeric aggregation rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try ignore (Aggregate.apply Aggregate.Sum [ Value.Str "x" ]); false
           with Invalid_argument _ -> true));
    tc "degree strategies" `Quick (fun () ->
        Test_util.check_degree "always one" 1.0 (Aggregate.result_degree [ 0.2; 0.4 ]);
        Test_util.check_degree "average" 0.3
          (Aggregate.result_degree ~strategy:Aggregate.Average_membership [ 0.2; 0.4 ]);
        Test_util.check_degree "weighted on empty" 1.0
          (Aggregate.result_degree ~strategy:Aggregate.Weighted_membership []));
    tc "MIN/MAX: Aggregate.extreme in any order = apply on the sorted distinct values" `Quick
      (fun () ->
        let trap a b c d = Value.Fuzzy (Fuzzy.Possibility.trap (Fuzzy.Trapezoid.make a b c d)) in
        let dist pts = Value.Fuzzy (Fuzzy.Possibility.discrete pts) in
        (* tied core centres in several shapes, and two integers one float
           apart only past 2^53, which tie on every numeric reading *)
        let big = 1 lsl 53 in
        let values =
          [ Value.crisp_num 5.0; trap 3. 4. 6. 7.; trap 1. 5. 5. 9.; dist [ (4., 1.); (6., 1.) ];
            Value.Int 2; trap 0. 1. 2. 3.; Value.Int big; Value.Int (big + 1); Value.Int 7 ]
        in
        let rng = Random.State.make [| 7 |] in
        for _ = 1 to 200 do
          let group = List.filter (fun _ -> Random.State.bool rng) values in
          let shuffled =
            List.map snd (List.sort compare (List.map (fun v -> (Random.State.bits rng, v)) group))
          in
          let sorted = List.sort_uniq Value.compare_structural group in
          List.iter
            (fun agg ->
              (* MIN / MAX as a fold over the ascending distinct values
                 where a value that ties with the best so far replaces it *)
              let oracle =
                let num v = Option.get (Value.to_possibility v) in
                let keep v best =
                  let c = Fuzzy.Defuzz.compare_by_core_center (num v) (num best) in
                  if agg = Aggregate.Min then c <= 0 else c >= 0
                in
                match sorted with
                | [] -> None
                | v :: rest ->
                    Some (List.fold_left (fun best v -> if keep v best then v else best) v rest)
              in
              let running =
                match shuffled with
                | [] -> None
                | v :: rest -> Some (List.fold_left (Aggregate.extreme agg) v rest)
              in
              let show = Option.fold ~none:"NULL" ~some:Value.to_string in
              let name = Aggregate.to_string agg in
              Alcotest.(check string) (name ^ " apply") (show oracle)
                (show (Aggregate.apply agg sorted));
              Alcotest.(check string) (name ^ " running") (show oracle) (show running))
            [ Aggregate.Min; Aggregate.Max ]
        done);
  ]

let suites =
  [
    ("relational.value", value_tests);
    ("relational.schema", schema_tests);
    ( "relational.codec",
      List.map QCheck_alcotest.to_alcotest
        [ prop_codec_roundtrip; prop_codec_padding; prop_support_into ]
      @ codec_tests );
    ("relational.relation", relation_tests);
    ("relational.algebra", algebra_tests);
    ( "relational.max_fold",
      (QCheck_alcotest.to_alcotest prop_max_fold :: fold_tests)
      @ List.map QCheck_alcotest.to_alcotest [ prop_hash_from_bytes; prop_hash_classes ] );
    ("relational.aggregate", aggregate_tests);
  ]

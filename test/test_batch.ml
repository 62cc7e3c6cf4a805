(** Exactness of the columnar merge-join engine.

    The engine's contract is exact: same answer tuples and the same
    IEEE-754 membership-degree bits as the nested semantics, for every
    query shape. These properties check it at three levels: the trapezoid
    kernels against the boxed [Value.compare_degree] path; the streaming
    sweep against a nested-loop enumeration of the overlapping pairs; and
    whole plans ([Planner.run]) against the [Naive_eval] interpreter
    across every unnestable shape, with string and discrete join operands,
    which take the boxed fallback. A test bounds the rows the sweep keeps
    decoded, and the last ones repeat the plan checks on relations that
    span several sweep chunks. *)

open Frepro
open Frepro.Relational

let bits = Int64.bits_of_float

(* ---------- kernel-level bit identity ---------- *)

let arb_trap =
  let gen st =
    let rng = Random.State.make [| QCheck.Gen.int_bound 1_000_000 st |] in
    Workload.Gen.random_trapezoid rng ~lo:0.0 ~hi:50.0
  in
  QCheck.make
    ~print:(fun t -> Format.asprintf "%a" Fuzzy.Trapezoid.pp t)
    gen

let arb_trap_pair = QCheck.pair arb_trap arb_trap

let all_ops =
  Fuzzy.Fuzzy_compare.
    [ (Eq, "="); (Ne, "<>"); (Ge, ">="); (Le, "<="); (Gt, ">"); (Lt, "<") ]

let cmp_of_traps op u v =
  let open Fuzzy.Trapezoid in
  Relational.Batch_kernels.cmp op u.a u.b u.c u.d v.a v.b v.c v.d

let kernel_cmp_prop =
  QCheck.Test.make ~count:500 ~name:"cmp kernels = Value.compare_degree bits"
    arb_trap_pair (fun (u, v) ->
      let vu = Value.Fuzzy (Fuzzy.Possibility.trap u)
      and vv = Value.Fuzzy (Fuzzy.Possibility.trap v) in
      List.for_all
        (fun (op, name) ->
          let scalar = Value.compare_degree op vu vv in
          let batch = cmp_of_traps op u v in
          if bits scalar <> bits batch then
            QCheck.Test.fail_reportf
              "op %s: scalar %.17g (%Lx) <> kernel %.17g (%Lx) for %a vs %a"
              name scalar (bits scalar) batch (bits batch)
              Fuzzy.Trapezoid.pp u Fuzzy.Trapezoid.pp v
          else true)
        all_ops)

(* The window fold reads every term with the outer operand first, so a
   comparison must give the same bits with its operands swapped and the
   operator mirrored. *)
let kernel_mirror_prop =
  QCheck.Test.make ~count:500 ~name:"cmp kernels: u op v = v op' u bits"
    arb_trap_pair (fun (u, v) ->
      let open Fuzzy.Fuzzy_compare in
      List.for_all
        (fun (op, op') -> bits (cmp_of_traps op u v) = bits (cmp_of_traps op' v u))
        [ (Eq, Eq); (Ne, Ne); (Le, Ge); (Ge, Le); (Lt, Gt); (Gt, Lt) ])

(* Crisp numbers travel through the kernels as degenerate trapezoids; the
   crisp/crisp and crisp/trap cases must match the boxed dispatch too. *)
let kernel_crisp_prop =
  QCheck.Test.make ~count:500 ~name:"cmp kernels: crisp and mixed operands"
    QCheck.(triple (int_bound 50) (int_bound 50) arb_trap)
    (fun (a, b, t) ->
      let rows =
        [|
          Ftuple.make [| Value.Int a |] 1.0;
          Ftuple.make [| Value.Int b |] 1.0;
          Ftuple.make [| Value.Fuzzy (Fuzzy.Possibility.trap t) |] 1.0;
        |]
      in
      let batch = Test_util.batch_of_tuples rows in
      let col = Batch.col batch 0 in
      List.for_all
        (fun (op, name) ->
          List.for_all
            (fun (i, j) ->
              if not (Batch.ok col i && Batch.ok col j) then true
              else
                let scalar =
                  Value.compare_degree op
                    (Ftuple.value rows.(i) 0)
                    (Ftuple.value rows.(j) 0)
                in
                let k = Batch_kernels.cmp_at op col i col j in
                if bits scalar <> bits k then
                  QCheck.Test.fail_reportf
                    "op %s rows (%d,%d): scalar %.17g <> kernel %.17g" name i
                    j scalar k
                else true)
            [ (0, 1); (1, 0); (0, 2); (2, 0); (0, 0) ])
        all_ops)

(* ---------- reading batches from record bytes ---------- *)

(* Values of every kind the codec writes: integers, strings, crisp numbers
   (signed zeros included), trapezoids, degenerate trapezoids (a = b,
   b = c, c = d) and one-point and multi-point distributions. *)
let gen_value =
  let open QCheck.Gen in
  let f = map (fun k -> float_of_int k /. 4.0) (int_range (-40) 40) in
  let trap a b c d = Value.Fuzzy (Fuzzy.Possibility.trap (Fuzzy.Trapezoid.make a b c d)) in
  let sorted4 a b c d =
    match List.sort Float.compare [ a; b; c; d ] with
    | [ a; b; c; d ] -> (a, b, c, d)
    | _ -> assert false
  in
  frequency
    [
      (2, map (fun i -> Value.Int i) (int_range (-1000) 1000));
      (1, map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 12)));
      (2, map Value.crisp_num (oneof [ f; return (-0.0); return 0.0 ]));
      (3, map (fun (a, b, c, d) -> let a, b, c, d = sorted4 a b c d in trap a b c d) (quad f f f f));
      ( 2,
        map
          (fun (a, b, c, k) ->
            let a, b, c, _ = sorted4 a b c c in
            match k with 0 -> trap a a b c | 1 -> trap a b b c | _ -> trap a b c c)
          (quad f f f (int_bound 2)) );
      ( 1,
        map
          (fun (v, d) -> Value.Fuzzy (Fuzzy.Possibility.discrete [ (v, d) ]))
          (pair f (oneofl [ 1.0; 0.5 ])) );
      ( 1,
        map
          (fun pts -> Value.Fuzzy (Fuzzy.Possibility.discrete pts))
          (list_size (int_range 2 4) (pair f (map (fun k -> float_of_int k /. 8.0) (int_range 1 8))))
      );
    ]

(* Rows of one arity, a pad and a second chunk for [Batch.carry]. *)
let arb_rows =
  let open QCheck.Gen in
  let rows arity n =
    array_size (return n)
      (map2
         (fun vs d -> Ftuple.make (Array.of_list vs) d)
         (list_size (return arity) gen_value)
         (oneof [ return 1.0; map (fun k -> float_of_int k /. 16.0) (int_range 1 16) ]))
  in
  QCheck.make
    ~print:(fun (a, b, pad) ->
      Printf.sprintf "pad %d\n%s" pad
        (String.concat "\n"
           (List.map (Format.asprintf "%a" Ftuple.pp) (Array.to_list (Array.append a b)))))
    (int_range 1 4 >>= fun arity ->
     triple (int_range 1 12 >>= rows arity) (int_range 0 12 >>= rows arity) (int_bound 40))

let enc_tuple t = Bytes.to_string (Codec.encode t)
let enc v = enc_tuple (Ftuple.make [| v |] 0.0)

(* Row [i] of [b] against [t], the decoded row it holds, field by field:
   each column as the batch built it from decoded values before it read
   record bytes ([ok] where the value has a trapezoid form, the support
   bounds, the abscissae where [ok]; [tb], [tc] 0 elsewhere), the degree
   bits, [Batch.value] and [Batch.row]. *)
let same_row b i (t : Ftuple.t) =
  let fail fmt = QCheck.Test.fail_reportf ("row %d %a: " ^^ fmt) i Ftuple.pp t in
  if bits (Batch.degrees b).(i) <> bits (Ftuple.degree t) then fail "degree";
  if enc_tuple (Batch.row b i) <> enc_tuple t then fail "row";
  Array.iteri
    (fun a v ->
      let c = Batch.col b a in
      let want_ok, (lo, hi), abscissae =
        match v with
        | Value.Int k ->
            let f = float_of_int k in
            (true, (f, f), (f, f, f, f))
        | Value.Fuzzy (Fuzzy.Possibility.Trap tr) ->
            let open Fuzzy.Trapezoid in
            (true, (tr.a, tr.d), (tr.a, tr.b, tr.c, tr.d))
        | Value.Fuzzy (Fuzzy.Possibility.Discrete _) | Value.Str _ ->
            let s = Value.support v in
            (false, (Fuzzy.Interval.lo s, Fuzzy.Interval.hi s), (0.0, 0.0, 0.0, 0.0))
      in
      let ta, tb, tc, td = abscissae in
      if Batch.ok c i <> want_ok then fail "attr %d: ok" a;
      if bits c.Batch.lo.(i) <> bits lo || bits c.Batch.hi.(i) <> bits hi then
        fail "attr %d: support" a;
      if want_ok then begin
        if
          bits c.Batch.ta.(i) <> bits ta || bits c.Batch.tb.(i) <> bits tb
          || bits c.Batch.tc.(i) <> bits tc || bits c.Batch.td.(i) <> bits td
        then fail "attr %d: abscissae" a
      end
      else if bits c.Batch.tb.(i) <> 0L || bits c.Batch.tc.(i) <> 0L then
        fail "attr %d: tb/tc of a value with no trapezoid form" a;
      if enc (Batch.value b i a) <> enc v then fail "attr %d: value" a)
    t.Ftuple.values;
  true

let reader_prop =
  QCheck.Test.make ~count:300
    ~name:"a batch read from encoded pages = one built from decoded rows, field by field"
    arb_rows (fun (rows, more, pad) ->
      (* the rows as the sweep saw them before: decoded from their records *)
      let decoded a = Array.map (fun t -> Codec.decode (Codec.encode t)) a in
      let b = Test_util.batch_of_tuples ~pad rows in
      (* Column 0 and row 0 exist before the carry, so the carried batch
         copies them and reads the other columns itself. *)
      ignore (Batch.col b 0);
      ignore (Batch.row b 0);
      let idx =
        Array.of_list (List.filter (fun i -> i mod 2 = 0) (List.init (Array.length rows) Fun.id))
      in
      let b' =
        Batch.carry b ~idx ~n:(Array.length idx) (Test_util.views_of_tuples ~pad more)
      in
      let kept = Array.append (Array.map (fun i -> rows.(i)) idx) more in
      Batch.length b' = Array.length kept
      && Array.for_all Fun.id (Array.mapi (same_row b') (decoded kept))
      && Array.for_all Fun.id (Array.mapi (same_row b) (decoded rows)))

(* A malformed value raises from a column read what decoding it raises. *)
let malformed_case =
  Alcotest.test_case "a malformed value raises decoding's error from a column read" `Quick
    (fun () ->
      (* one record: a value (tag, then its body) and degree 1 *)
      let record tag body =
        let b = Buffer.create 64 in
        Buffer.add_uint16_le b 1;
        Buffer.add_uint8 b tag;
        body b;
        Buffer.add_int64_le b (Int64.bits_of_float 1.0);
        Buffer.to_bytes b
      in
      let floats l b = List.iter (fun f -> Buffer.add_int64_le b (Int64.bits_of_float f)) l in
      let points l b =
        Buffer.add_uint16_le b (List.length l);
        List.iter (fun (v, d) -> floats [ v; d ] b) l
      in
      let outcome f = match f () with _ -> "ok" | exception Invalid_argument m -> m in
      List.iter
        (fun (name, r) ->
          let views =
            { Storage.External_sort.pages = [| r |]; offs = [| 0 |]; lens = [| Bytes.length r |] }
          in
          Alcotest.(check string) name
            (outcome (fun () -> ignore (Codec.decode r)))
            (outcome (fun () -> ignore (Batch.col (Batch.of_views views) 0))))
        [
          ("unordered trapezoid", record 3 (floats [ 5.; 4.; 3.; 1. ]));
          ("NaN trapezoid", record 3 (floats [ 0.; nan; 1.; 2. ]));
          ("NaN crisp", record 2 (floats [ nan ]));
          ("discrete, invalid degree", record 4 (points [ (1., 0.5); (2., 1.5) ]));
          ("discrete, NaN point", record 4 (points [ (nan, 0.5) ]));
          ("discrete, no positive degree", record 4 (points [ (1., 0.0) ]));
          ("bad tag", record 9 (floats [ 1. ]));
          ("ordered trapezoid", record 3 (floats [ 1.; 2.; 3.; 4. ]));
        ])

(* ---------- whole plans against the interpreter ---------- *)

(* Exact answers: printed values plus raw degree bits, as a sorted multiset
   (tie rows may come out of the sorts in either order). *)
let answer_bits rel =
  Relation.to_list rel
  |> List.map (fun t ->
         ( Array.to_list (Array.map Value.to_string t.Ftuple.values),
           Int64.bits_of_float (Ftuple.degree t) ))
  |> List.sort compare

let pp_bits ppf ans =
  List.iter
    (fun (vs, d) ->
      Format.fprintf ppf "(%s | %Lx)@ " (String.concat ", " vs) d)
    ans

(* [Planner.run] must reproduce the interpreter's answer bit for bit:
   min / max never round. *)
let check_oracle catalog sql =
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
  let naive = answer_bits (Unnest.Naive_eval.query q) in
  let got = answer_bits (Unnest.Planner.run ~mem_pages:8 q) in
  if got <> naive then
    QCheck.Test.fail_reportf "naive <> merge-join for %s@.naive: %a@.merge: %a"
      sql pp_bits naive pp_bits got;
  true

let check_shape kind spec =
  let rng = Random.State.make [| spec.Test_equivalence.seed + 29 |] in
  check_oracle (Test_equivalence.make_db spec)
    (Test_equivalence.template rng kind)

let shape_prop name kind ?discrete_ok () =
  QCheck.Test.make ~count:40 ~name
    (Test_equivalence.arb_spec ?discrete_ok ())
    (check_shape kind)

(* String join operands: the sweep windows them on their hashed point
   support and takes the boxed [Value.compare_degree] for every pair. *)
let string_db seed ~n_r ~n_s =
  let env = Test_util.fresh_env () in
  let catalog = Catalog.create env in
  let rng = Random.State.make [| seed |] in
  let names = [| "ann"; "bob"; "cy"; "dee"; "eve" |] in
  let rel name n (key, other) =
    let schema =
      Schema.make ~name
        [ ("ID", Schema.TNum); (key, Schema.TStr); (other, Schema.TNum) ]
    in
    Catalog.add catalog
      (Relation.of_list env schema
         (List.init n (fun i ->
              Test_util.tuple
                [
                  Value.Int i;
                  Value.Str (names.(Random.State.int rng (Array.length names)));
                  Test_equivalence.rand_value rng ~discrete_ok:true;
                ]
                (Test_equivalence.rand_degree rng))))
  in
  rel "R" n_r ("N", "U");
  rel "S" n_s ("N", "V");
  catalog

let string_prop =
  QCheck.Test.make ~count:40 ~name:"string join operands = naive bits"
    QCheck.(triple (int_bound 1_000_000) (int_bound 30) (int_bound 30))
    (fun (seed, n_r, n_s) ->
      let catalog = string_db seed ~n_r ~n_s in
      List.for_all (check_oracle catalog)
        [
          "SELECT R.ID FROM R WHERE R.N IN (SELECT S.N FROM S WHERE S.V <= \
           R.U)";
          "SELECT R.ID FROM R WHERE R.N NOT IN (SELECT S.N FROM S WHERE S.V \
           >= R.U)";
          "SELECT R.ID FROM R WHERE EXISTS (SELECT S.ID FROM S WHERE S.N = \
           R.N AND S.V <= R.U)";
        ])

(* Correlation terms the kernels cannot take: a string equality or a
   discrete operand (one-point [DIST] included) that is not the sweep's
   equality goes through the window fold's boxed [Value.compare_degree];
   so does a quantified comparison over discrete operands. *)
let boxed_term_prop =
  QCheck.Test.make ~count:40
    ~name:"string and DIST correlation operands: JALL, JSOME, EXISTS = naive bits"
    QCheck.(triple (int_bound 1_000_000) (int_bound 30) (int_bound 30))
    (fun (seed, n_r, n_s) ->
      let catalog = string_db seed ~n_r ~n_s in
      List.for_all (check_oracle catalog)
        [
          "SELECT R.ID FROM R WHERE R.U <= ALL (SELECT S.V FROM S WHERE S.N = \
           R.N)";
          "SELECT R.ID FROM R WHERE R.U < ALL (SELECT S.V FROM S WHERE S.V = \
           R.U AND S.N = R.N)";
          "SELECT R.ID FROM R WHERE R.U > SOME (SELECT S.V FROM S WHERE S.V = \
           R.U AND S.N = R.N)";
          "SELECT R.ID FROM R WHERE EXISTS (SELECT S.ID FROM S WHERE S.V = \
           R.U AND S.N = R.N)";
          "SELECT R.ID FROM R WHERE NOT EXISTS (SELECT S.ID FROM S WHERE S.N \
           = R.N AND S.V >= R.U)";
        ])

(* MIN and MAX over groups whose values tie on the core centre in
   different shapes: crisp numbers, trapezoids and discrete distributions
   centred on 5 or 10. The sweep keeps a running extreme, the interpreter
   folds the group's value set; [Aggregate.extreme]'s tie rule must make
   them agree to the bit. *)
let tied_db seed ~n_r ~n_s =
  let env = Test_util.fresh_env () in
  let catalog = Catalog.create env in
  let rng = Random.State.make [| seed |] in
  let trap a b c d = Value.Fuzzy (Fuzzy.Possibility.trap (Fuzzy.Trapezoid.make a b c d)) in
  let dist pts = Value.Fuzzy (Fuzzy.Possibility.discrete pts) in
  let tied =
    [|
      Value.crisp_num 5.0; trap 3. 4. 6. 7.; trap 1. 5. 5. 9.; trap 4. 4. 6. 6.;
      dist [ (4., 1.0); (6., 1.0) ]; dist [ (2., 1.0); (8., 1.0); (5., 0.5) ];
      Value.Int 10; trap 8. 9. 11. 12.; dist [ (9., 1.0); (11., 1.0) ];
    |]
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let rel name n (join, other) values =
    let schema =
      Schema.make ~name [ ("ID", Schema.TNum); (other, Schema.TNum); (join, Schema.TNum) ]
    in
    Catalog.add catalog
      (Relation.of_list env schema
         (List.init n (fun i ->
              Test_util.tuple
                [ Value.Int i; pick values; Value.Int (Random.State.int rng 3) ]
                (Test_equivalence.rand_degree rng))))
  in
  rel "R" n_r ("U", "Y") (Array.append tied [| Value.crisp_num 7.0; trap 0. 5. 6. 12. |]);
  rel "S" n_s ("V", "Z") tied;
  catalog

let tied_prop =
  QCheck.Test.make ~count:40 ~name:"MIN/MAX over tied core centres = naive bits"
    QCheck.(triple (int_bound 1_000_000) (int_bound 25) (int_bound 25))
    (fun (seed, n_r, n_s) ->
      let catalog = tied_db seed ~n_r ~n_s in
      List.for_all
        (fun (agg, op) ->
          check_oracle catalog
            (Printf.sprintf
               "SELECT R.ID FROM R WHERE R.Y %s (SELECT %s(S.Z) FROM S WHERE S.V = R.U)"
               op agg))
        [ ("MAX", "="); ("MAX", ">="); ("MAX", "<"); ("MIN", "="); ("MIN", "<=");
          ("MIN", ">") ])

let shape_props =
  [
    shape_prop "merge-join = naive bits: type N" `N ();
    shape_prop "merge-join = naive bits: type J" `J ();
    shape_prop "merge-join = naive bits: type JX" `JX ();
    shape_prop "merge-join = naive bits: type JALL" `JALL ();
    shape_prop "merge-join = naive bits: type JSOME" `JSOME ();
    shape_prop "merge-join = naive bits: type JA" `JA ~discrete_ok:false ();
    shape_prop "merge-join = naive bits: chain" `Chain ();
    shape_prop "merge-join = naive bits: EXISTS" `Exists ();
    shape_prop "merge-join = naive bits: uncorrelated 3-block chain"
      `Chain_uncorrelated ();
    shape_prop "merge-join = naive bits: 4-block chain, small middle"
      `Chain_mid ();
    string_prop;
    boxed_term_prop;
    tied_prop;
  ]

(* ---------- the sweep and the sort ---------- *)

let tc = Alcotest.test_case

let id t = Value.to_string (Ftuple.value t 0)

(* Every (r, s) pair with a positive equality degree, enumerated by a
   nested loop over the unsorted inputs: the windows the sweep emits must
   hold exactly these pairs with exactly these degree bits. *)
let positive_pairs r s ~attr =
  List.concat_map
    (fun rt ->
      List.filter_map
        (fun st ->
          let d =
            Value.compare_degree Fuzzy.Fuzzy_compare.Eq (Ftuple.value rt attr)
              (Ftuple.value st attr)
          in
          if d > 0.0 then Some (id rt, id st, bits d) else None)
        (Relation.to_list s))
    (Relation.to_list r)
  |> List.sort compare

let sweep_cases =
  [
    tc "sort_sweep windows hold exactly the overlapping pairs" `Quick
      (fun () ->
        let env = Test_util.fresh_env () in
        let spec = { Workload.Gen.default_spec with n = 500; groups = 70 } in
        let r, s = Workload.Gen.join_pair env ~seed:5 ~outer:spec ~inner:spec in
        let expect = positive_pairs r s ~attr:1 in
        let acc = ref [] and outers = ref 0 in
        Join_merge.sort_sweep ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8
          ~emit:(fun ob i ~inner ~idx ~n ~d_eq ->
            incr outers;
            for j = 0 to n - 1 do
              let d = d_eq.(j) in
              if d > 0.0 then
                acc :=
                  (id (Batch.row ob i), id (Batch.row inner idx.(j)), bits d)
                  :: !acc
            done)
          ();
        Alcotest.(check int) "one emission per outer tuple"
          (Relation.cardinality r) !outers;
        if List.sort compare !acc <> expect then
          Alcotest.fail "selection vectors: wrong pairs");
    tc "sort_sweep: Definition 3.1 order, same tuples"
      `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let spec = { Workload.Gen.default_spec with n = 700; groups = 50 } in
        let r = Workload.Gen.relation env ~seed:9 ~name:"R" spec in
        let s = Workload.Gen.relation env ~seed:10 ~name:"S" spec in
        let ids rel = List.sort compare (List.map id (Relation.to_list rel)) in
        (* Both sides in the order the sweep meets them: each outer row
           once, each inner row when it first enters a window. *)
        let outer = ref [] and inner = ref [] and seen = Hashtbl.create 64 in
        Join_merge.sort_sweep ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8
          ~emit:(fun ob i ~inner:ib ~idx ~n ~d_eq:_ ->
            outer := Batch.row ob i :: !outer;
            for j = 0 to n - 1 do
              let t = Batch.row ib idx.(j) in
              if not (Hashtbl.mem seen (id t)) then begin
                Hashtbl.add seen (id t) ();
                inner := t :: !inner
              end
            done)
          ();
        let ordered what rows =
          let rec go = function
            | a :: (b :: _ as rest) ->
                if Fuzzy.Interval.compare_lex a b > 0 then
                  Alcotest.failf "%s out of order: %a before %a" what
                    Fuzzy.Interval.pp a Fuzzy.Interval.pp b;
                go rest
            | _ -> ()
          in
          go (List.rev_map (fun t -> Value.support (Ftuple.value t 1)) rows)
        in
        Alcotest.(check (list string)) "same outer tuples" (ids r)
          (List.sort compare (List.map id !outer));
        ordered "outer" !outer;
        ordered "inner" !inner);
    tc "the engine composes with cancellation" `Quick (fun () ->
        let spec =
          {
            Test_equivalence.seed = 3;
            n_r = 15;
            n_s = 15;
            n_t = 5;
            discrete_ok = false;
          }
        in
        let catalog = Test_equivalence.make_db spec in
        let q =
          Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
            "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V \
             <= R.U)"
        in
        let cancel = Storage.Cancel.create () in
        Storage.Cancel.cancel cancel ~reason:"test";
        (match Unnest.Planner.run ~cancel q with
        | _ -> Alcotest.fail "expected Cancelled"
        | exception Storage.Cancel.Cancelled _ -> ());
        (* and a live token lets it complete with the exact answer *)
        let cancel = Storage.Cancel.create () in
        let a = answer_bits (Unnest.Planner.run ~cancel q) in
        if a <> answer_bits (Unnest.Naive_eval.query q) then
          Alcotest.fail "answer differs from the interpreter");
    tc "the final merge reads inner run pages only as far as the outer side reaches"
      `Quick (fun () ->
        (* 10 outer rows on X = 0..9 against 200 inner rows on X = 0..199,
           one row per page. With 32 pages of memory the inner side forms
           4 runs of 64 rows in input order, so rows 0..10 — row 10 ends
           the last outer row's window — all sit in the first run; the
           outer side, held in memory until the inner batch fills the
           budget, is written out as one 10-page run. Writing a run page
           costs no read (a fresh page starts as a zeroed frame). The
           final merges read the outer run, the pages of the inner rows the
           sweep pulls plus the next one (the merge holds each run's next
           row as its head), and the head page of every other inner run;
           the other 184 inner run pages are never read. *)
        let env = Test_util.fresh_env () in
        let schema name =
          Schema.make ~name [ ("ID", Schema.TNum); ("X", Schema.TNum) ]
        in
        let rel name n =
          Relation.of_list ~pad_to:4096 env (schema name)
            (List.init n (fun i ->
                 Test_util.tuple [ Value.Int i; Value.crisp_num (float_of_int i) ] 1.0))
        in
        let r = rel "R" 10 and s = rel "S" 200 in
        let stats = env.Storage.Env.stats in
        Storage.Buffer_pool.drop env.Storage.Env.pool;
        Storage.Iostats.reset stats;
        Join_merge.sort_sweep ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:32
          ~emit:(fun _ _ ~inner:_ ~idx:_ ~n:_ ~d_eq:_ -> ())
          ();
        let inputs = Relation.num_pages r + Relation.num_pages s in
        Alcotest.(check int) "one row per page" 210 inputs;
        Alcotest.(check int) "every row is written to a run" 210
          (Storage.Iostats.page_writes stats);
        (* The outer run, the pages of inner rows 0..11 in the first run,
           and the head page of each of the 3 other runs. *)
        Alcotest.(check int) "inputs + the run pages needed"
          (inputs + 10 + 12 + 3)
          (Storage.Iostats.page_reads stats));
    tc "the sweep keeps at most the window plus two chunks decoded" `Quick
      (fun () ->
        let env = Test_util.fresh_env () in
        let spec = { Workload.Gen.default_spec with n = 50_000; groups = 5_000 } in
        let r, s = Workload.Gen.join_pair env ~seed:7 ~outer:spec ~inner:spec in
        let max_window = ref 0 and max_inner = ref 0 and max_outer = ref 0 in
        let outers = ref 0 in
        Join_merge.sort_sweep ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8
          ~emit:(fun ob _ ~inner ~idx:_ ~n ~d_eq:_ ->
            incr outers;
            max_window := Int.max !max_window n;
            max_inner := Int.max !max_inner (Batch.length inner);
            max_outer := Int.max !max_outer (Batch.length ob))
          ();
        Alcotest.(check int) "every outer row swept" 50_000 !outers;
        Alcotest.(check bool)
          (Printf.sprintf "inner buffer %d <= window %d + 2 x %d" !max_inner
             !max_window Batch.batch_rows)
          true
          (!max_inner <= !max_window + (2 * Batch.batch_rows));
        Alcotest.(check bool)
          (Printf.sprintf "outer chunk %d <= %d" !max_outer Batch.batch_rows)
          true
          (!max_outer <= Batch.batch_rows));
  ]

(* ---------- chunk boundaries ---------- *)

(* The shape properties above draw at most 20 rows per relation, so every
   sweep fits in one outer chunk and one inner buffer. These draw R and S
   past [Batch.batch_rows]: the sweep cuts the outer side into several
   chunks and carries the inner buffer forward mid-window. [max_t] bounds
   T and Q: the interpreter evaluates a 4-block chain in time
   n_R x n_T x n_Q x n_S. *)
let arb_chunked_spec ?(discrete_ok = true) ?(max_t = 20) () =
  let n = QCheck.Gen.int_range (Batch.batch_rows + 1) ((2 * Batch.batch_rows) + 40) in
  QCheck.make ~print:Test_equivalence.pp_spec
    QCheck.Gen.(
      map3
        (fun seed (n_r, n_s) n_t ->
          { Test_equivalence.seed; n_r; n_s; n_t; discrete_ok })
        (int_bound 1_000_000) (pair n n) (int_bound max_t))

let chunked_prop name kind ?discrete_ok ?max_t () =
  QCheck.Test.make ~count:4 ~name (arb_chunked_spec ?discrete_ok ?max_t ())
    (check_shape kind)

(* One wide inner row sorts near the front and overlaps every outer row:
   it must stay in every window while the buffer slides hundreds of rows
   past it, and rows it pins in between must not leak into a window. *)
let wide_row_case =
  tc "a wide inner row stays in every window as the buffer slides" `Quick
    (fun () ->
      let env = Test_util.fresh_env () in
      let schema name =
        Schema.make ~name [ ("ID", Schema.TNum); ("X", Schema.TNum) ]
      in
      let crisp i = Value.crisp_num (float_of_int i) in
      let n_outer = 3 * Batch.batch_rows in
      let r =
        Relation.of_list env (schema "R")
          (List.init n_outer (fun i -> Test_util.tuple [ Value.Int i; crisp i ] 1.0))
      in
      let wide =
        Value.Fuzzy
          (Fuzzy.Possibility.trap
             (Fuzzy.Trapezoid.make (-1.0) 10.0 (float_of_int n_outer) 1e6))
      in
      let s =
        Relation.of_list env (schema "S")
          (Test_util.tuple [ Value.Int (-1); wide ] 1.0
          :: List.init (2 * n_outer) (fun i ->
                 Test_util.tuple [ Value.Int i; crisp (i / 2) ] 1.0))
      in
      let expect = positive_pairs r s ~attr:1 in
      let acc = ref [] and with_wide = ref 0 in
      Join_merge.sort_sweep ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
        ~mem_pages:8
        ~emit:(fun ob i ~inner ~idx ~n ~d_eq ->
          let rt = Batch.row ob i in
          for j = 0 to n - 1 do
            let st = Batch.row inner idx.(j) in
            if id st = "-1" then incr with_wide;
            if d_eq.(j) > 0.0 then acc := (id rt, id st, bits d_eq.(j)) :: !acc
          done)
        ();
      Alcotest.(check int) "wide row in every window" n_outer !with_wide;
      if List.sort compare !acc <> expect then
        Alcotest.fail "windows differ from the nested-loop pairs")

(* The two chain templates reach every kind of chain step the window
   fold distinguishes: a step where only the accumulated side carries
   attributes (swept as the outer), one where only the new block carries
   (the roles swap), a two-sided one, and a DP order that starts in the
   middle of the chain. *)
let chain_step_kinds_case =
  tc "the chain templates reach one-sided, swapped and mid-chain plans" `Quick
    (fun () ->
      let seen = Hashtbl.create 8 in
      let note k = Hashtbl.replace seen k () in
      for seed = 1 to 10 do
        let spec =
          { Test_equivalence.seed; n_r = 200; n_s = 200; n_t = 10; discrete_ok = true }
        in
        let catalog = Test_equivalence.make_db spec in
        List.iter
          (fun kind ->
            let sql =
              Test_equivalence.template (Random.State.make [| seed |]) kind
            in
            match
              Unnest.Classify.classify
                (Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql)
            with
            | Unnest.Classify.Chain_query c ->
                let order = Unnest.Chain_order.plan c in
                let k = List.length c.Unnest.Classify.blocks in
                let start = order.Unnest.Chain_order.start in
                if start > 0 && start < k - 1 then note "mid-chain start";
                List.iter
                  (fun (st : Unnest.Chain_order.step) ->
                    let acc, added =
                      List.partition
                        (fun (b, _) -> b <> st.Unnest.Chain_order.block)
                        st.Unnest.Chain_order.carried
                    in
                    note
                      (match (acc, added) with
                      | [], _ :: _ -> "new block outer"
                      | _, [] -> "accumulated side outer"
                      | _ -> "two-sided"))
                  (Unnest.Chain_order.cascade c order)
            | _ -> Alcotest.failf "%s is not a chain" sql)
          [ `Chain_uncorrelated; `Chain_mid ]
      done;
      List.iter
        (fun k -> Alcotest.(check bool) k true (Hashtbl.mem seen k))
        [ "mid-chain start"; "new block outer"; "accumulated side outer"; "two-sided" ])

let chunk_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      chunked_prop "chunk boundaries: type N = naive bits" `N ();
      chunked_prop "chunk boundaries: type J = naive bits" `J ();
      chunked_prop "chunk boundaries: type JX = naive bits" `JX ();
      chunked_prop "chunk boundaries: type JA = naive bits" `JA ~discrete_ok:false ();
      chunked_prop "chunk boundaries: type JALL = naive bits" `JALL ();
      chunked_prop "chunk boundaries: chain = naive bits" `Chain ();
      chunked_prop "chunk boundaries: uncorrelated 3-block chain = naive bits"
        `Chain_uncorrelated ();
      chunked_prop "chunk boundaries: 4-block chain, small middle = naive bits"
        `Chain_mid ~max_t:4 ();
    ]
  @ [ wide_row_case; chain_step_kinds_case ]

(* ---------- answer order, shared budget, abort safety ---------- *)

(* The answer relation in its own row order: the max-fold writes it in
   [Ftuple.compare_values] order, which [LIMIT] without [ORDER BY] and the
   wire's row order expose, so the merge-join must match the interpreter
   row for row, not just as a set. The answer leads with R.Y so the order
   depends on fuzzy values, not only on integer ids. *)
let ordered_bits rel =
  Relation.to_list rel
  |> List.map (fun t ->
         ( Array.to_list (Array.map Value.to_string t.Ftuple.values),
           Int64.bits_of_float (Ftuple.degree t) ))

let check_order catalog sql =
  let bind sql =
    Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql
  in
  let naive = ordered_bits (Unnest.Naive_eval.query (bind sql)) in
  let got = ordered_bits (Unnest.Planner.run ~mem_pages:8 (bind sql)) in
  if got <> naive then
    QCheck.Test.fail_reportf "row order differs for %s@.naive: %a@.merge: %a"
      sql pp_bits naive pp_bits got;
  let k = 3 in
  let limited = ordered_bits (Unnest.Planner.run ~mem_pages:8 (bind (sql ^ " LIMIT 3"))) in
  if limited <> List.filteri (fun i _ -> i < k) naive then
    QCheck.Test.fail_reportf "LIMIT %d is not the naive prefix for %s" k sql;
  true

let order_prop ?(count = 25) ?arb name kind =
  let arb = Option.value arb ~default:(Test_equivalence.arb_spec ()) in
  QCheck.Test.make ~count ~name arb
    (fun spec ->
      let rng = Random.State.make [| spec.Test_equivalence.seed + 31 |] in
      let sql = Test_equivalence.template rng kind in
      let prefix = "SELECT R.ID FROM R WHERE" in
      let n = String.length prefix in
      assert (String.sub sql 0 n = prefix);
      let sql = "SELECT R.Y, R.ID FROM R WHERE" ^ String.sub sql n (String.length sql - n) in
      check_order (Test_equivalence.make_db spec) sql)

let order_props =
  List.map QCheck_alcotest.to_alcotest
    [
      order_prop "answer order = naive order: type N" `N;
      order_prop "answer order = naive order: type J" `J;
      order_prop "answer order = naive order: type JX" `JX;
      order_prop "answer order = naive order: type JA" `JA
        ~arb:(Test_equivalence.arb_spec ~discrete_ok:false ());
      order_prop "answer order = naive order: type JALL" `JALL;
      order_prop "answer order = naive order: EXISTS" `Exists;
      order_prop "answer order = naive order: chain" `Chain;
      (* past [Batch.batch_rows], as the chunk-boundary properties *)
      order_prop ~count:4 ~arb:(arb_chunked_spec ())
        "answer order = naive order: uncorrelated 3-block chain"
        `Chain_uncorrelated;
      order_prop ~count:4 ~arb:(arb_chunked_spec ~max_t:4 ())
        "answer order = naive order: 4-block chain, small middle" `Chain_mid;
    ]

(* A type J query over two relations of 1000 x 128 B tuples: with 3 pages
   of memory each side forms several runs, more than the 3 cursor pages
   both final merges share, so the sort runs intermediate passes. *)
let budget_db () =
  let env = Test_util.fresh_env () in
  let spec =
    { Workload.Gen.default_spec with n = 1000; tuple_bytes = 128; groups = 140 }
  in
  let r, s = Workload.Gen.join_pair env ~seed:3 ~outer:spec ~inner:spec in
  let catalog = Catalog.create env in
  Catalog.add catalog r;
  Catalog.add catalog s;
  (env, catalog)

let type_j_sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.W <= R.W)"

let budget_cases =
  [
    tc "k_R + k_S > mem_pages: intermediate passes give the naive bits" `Quick
      (fun () ->
        let _env, catalog = budget_db () in
        let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper type_j_sql in
        let trace = Storage.Trace.create () in
        let got = ordered_bits (Unnest.Planner.run ~trace ~mem_pages:3 q) in
        let merges = ref 0 in
        Storage.Trace.iter_spans trace (fun sp ->
            if Storage.Trace.span_name sp = "k-way-merge" then incr merges);
        (* one per final merge, plus at least one intermediate pass *)
        Alcotest.(check bool) "intermediate passes ran" true (!merges > 2);
        if got <> ordered_bits (Unnest.Naive_eval.query q) then
          Alcotest.fail "answer differs from the interpreter");
  ]

(* An abort while the final merges stream into the sweep frees every run
   page: the token is cancelled, or a read fault armed, from inside the
   sweep's first emission, so the next poll or run-page read raises. *)
let abort_mid_merge arm =
  let env, catalog = budget_db () in
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper type_j_sql in
  let r = Option.get (Catalog.find catalog "R")
  and s = Option.get (Catalog.find catalog "S") in
  let live () = Storage.Disk.live_pages env.Storage.Env.disk in
  let baseline = live () in
  let cancel = Storage.Cancel.create () in
  let armed = ref false in
  let raised =
    match
      Join_merge.sort_sweep ~cancel ~outer:r ~inner:s ~outer_attr:1
        ~inner_attr:1 ~mem_pages:8
        ~emit:(fun _ _ ~inner:_ ~idx:_ ~n:_ ~d_eq:_ ->
          if not !armed then begin
            armed := true;
            Alcotest.(check bool) "runs are live mid-merge" true (live () > baseline);
            arm env cancel
          end)
        ()
    with
    | () -> None
    | exception e -> Some e
  in
  Storage.Env.set_fault env None;
  Alcotest.(check int) "live pages back at baseline" baseline (live ());
  (* and the engine still answers exactly afterwards *)
  if
    ordered_bits (Unnest.Planner.run ~mem_pages:8 q)
    <> ordered_bits (Unnest.Naive_eval.query q)
  then Alcotest.fail "answer differs after the abort";
  raised

let abort_cases =
  [
    tc "Cancel during the streamed final merge frees every run" `Quick
      (fun () ->
        match
          abort_mid_merge (fun _ cancel ->
              Storage.Cancel.cancel cancel ~reason:"test")
        with
        | Some (Storage.Cancel.Cancelled _) -> ()
        | _ -> Alcotest.fail "expected Cancelled");
    tc "a read fault during the streamed final merge frees every run" `Quick
      (fun () ->
        match
          abort_mid_merge (fun env _ ->
              match Storage.Fault.parse_spec "read:nth=1" with
              | Ok spec -> Storage.Env.set_fault env (Some (Storage.Fault.create spec))
              | Error m -> Alcotest.fail m)
        with
        | Some (Storage.Fault.Injected _) -> ()
        | Some e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)
        | None -> Alcotest.fail "expected an injected fault");
  ]

let suites =
  [
    ( "batch.kernels",
      List.map QCheck_alcotest.to_alcotest
        [ kernel_cmp_prop; kernel_mirror_prop; kernel_crisp_prop ] );
    ("batch.readers", List.map QCheck_alcotest.to_alcotest [ reader_prop ] @ [ malformed_case ]);
    ("batch.engines", List.map QCheck_alcotest.to_alcotest shape_props);
    ("batch.regressions", sweep_cases);
    ("batch.chunks", chunk_cases);
    ("batch.pipeline", order_props @ budget_cases @ abort_cases);
  ]

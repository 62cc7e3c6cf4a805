(** Unit and property tests of the fuzzy kernel: intervals, trapezoids,
    satisfaction degrees, fuzzy arithmetic, defuzzification, and the
    Definition 3.1 order. *)

open Frepro.Fuzzy

let tc = Alcotest.test_case

(* ---------- Interval ---------- *)

let interval_tests =
  [
    tc "make validates bounds" `Quick (fun () ->
        Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo > hi")
          (fun () -> ignore (Interval.make 2.0 1.0)));
    tc "point is degenerate" `Quick (fun () ->
        let i = Interval.point 3.0 in
        Alcotest.(check bool) "is_point" true (Interval.is_point i);
        Alcotest.(check (float 0.0)) "width" 0.0 (Interval.width i));
    tc "overlaps / intersect" `Quick (fun () ->
        let a = Interval.make 0.0 5.0 and b = Interval.make 5.0 9.0 in
        Alcotest.(check bool) "touching intervals overlap" true
          (Interval.overlaps a b);
        let c = Interval.make 6.0 7.0 in
        Alcotest.(check bool) "disjoint" false (Interval.overlaps a c);
        Alcotest.(check bool) "intersect none" true (Interval.intersect a c = None));
    tc "hull" `Quick (fun () ->
        let h = Interval.hull (Interval.make 1.0 2.0) (Interval.make 5.0 6.0) in
        Test_util.(Alcotest.check interval) "hull" (Interval.make 1.0 6.0) h);
    tc "compare_lex is Definition 3.1" `Quick (fun () ->
        (* Example 3.1 of the paper: [20,28] < [20,35] < [30,35]. *)
        let i1 = Interval.make 30.0 35.0
        and i2 = Interval.make 20.0 28.0
        and i3 = Interval.make 20.0 35.0 in
        Alcotest.(check bool) "r2 < r3" true (Interval.compare_lex i2 i3 < 0);
        Alcotest.(check bool) "r3 < r1" true (Interval.compare_lex i3 i1 < 0));
  ]

(* ---------- Trapezoid basics ---------- *)

let mem_cases =
  tc "membership function shape" `Quick (fun () ->
      (* medium young = trap(20,25,30,35), Fig. 1 *)
      let my = Trapezoid.make 20. 25. 30. 35. in
      List.iter
        (fun (x, expected) ->
          Test_util.check_degree (Printf.sprintf "mu(%g)" x) expected
            (Trapezoid.mem my x))
        [
          (19.0, 0.0); (20.0, 0.0); (23.0, 0.6); (24.0, 0.8); (25.0, 1.0);
          (27.5, 1.0); (30.0, 1.0); (32.0, 0.6); (35.0, 0.0); (36.0, 0.0);
        ])

let crisp_cases =
  tc "crisp trapezoid" `Quick (fun () ->
      let c = Trapezoid.crisp 5.0 in
      Alcotest.(check bool) "is_crisp" true (Trapezoid.is_crisp c);
      Test_util.check_degree "mu(5)" 1.0 (Trapezoid.mem c 5.0);
      Test_util.check_degree "mu(5.1)" 0.0 (Trapezoid.mem c 5.1))

let alpha_cut_cases =
  tc "alpha cuts" `Quick (fun () ->
      let t = Trapezoid.make 0. 10. 20. 40. in
      let cut a = Option.get (Trapezoid.alpha_cut t a) in
      Test_util.(Alcotest.check interval) "0-cut = support" (Interval.make 0. 40.) (cut 0.0);
      Test_util.(Alcotest.check interval) "1-cut = core" (Interval.make 10. 20.) (cut 1.0);
      Test_util.(Alcotest.check interval) "0.5-cut" (Interval.make 5. 30.) (cut 0.5);
      Alcotest.(check bool) "above 1" true (Trapezoid.alpha_cut t 1.5 = None))

let eq_height_cases =
  tc "eq_height hand cases" `Quick (fun () ->
      let my = Trapezoid.make 20. 25. 30. 35. in
      let a35 = Trapezoid.triangle 30. 35. 40. in
      (* Fig. 1: the intersection of "medium young" and "about 35" is 0.5. *)
      Test_util.check_degree "my = about35" 0.5 (Trapezoid.eq_height my a35);
      Test_util.check_degree "symmetric" 0.5 (Trapezoid.eq_height a35 my);
      Test_util.check_degree "core overlap -> 1" 1.0
        (Trapezoid.eq_height my (Trapezoid.make 28. 29. 50. 60.));
      Test_util.check_degree "disjoint supports -> 0" 0.0
        (Trapezoid.eq_height my (Trapezoid.triangle 40. 45. 50.));
      Test_util.check_degree "touching supports -> 0" 0.0
        (Trapezoid.eq_height my (Trapezoid.triangle 35. 45. 50.));
      (* crisp against fuzzy: mu at the point *)
      Test_util.check_degree "crisp 24 vs my" 0.8
        (Trapezoid.eq_height (Trapezoid.crisp 24.0) my);
      (* vertical edge case *)
      let vert = Trapezoid.make 10. 10. 10. 10. in
      Test_util.check_degree "two equal crisp" 1.0
        (Trapezoid.eq_height vert (Trapezoid.crisp 10.0)))

let ge_height_cases =
  tc "ge/gt/le/lt heights" `Quick (fun () ->
      let u = Trapezoid.triangle 0. 5. 10. and v = Trapezoid.triangle 8. 13. 18. in
      (* Poss(u >= v): u's falling edge [5,10] vs v's rising edge [8,13]:
         crossing height = (10 - 8) / ((10-5) + (13-8)) = 0.2. *)
      Test_util.check_degree "u >= v" 0.2 (Trapezoid.ge_height u v);
      Test_util.check_degree "v >= u" 1.0 (Trapezoid.ge_height v u);
      Test_util.check_degree "u <= v" 1.0 (Trapezoid.le_height u v);
      (* crisp strictness *)
      let c5 = Trapezoid.crisp 5.0 in
      Test_util.check_degree "5 > 5" 0.0 (Trapezoid.gt_height c5 (Trapezoid.crisp 5.0));
      Test_util.check_degree "5 >= 5" 1.0 (Trapezoid.ge_height c5 (Trapezoid.crisp 5.0));
      Test_util.check_degree "5 > 4" 1.0 (Trapezoid.gt_height c5 (Trapezoid.crisp 4.0));
      (* ne *)
      Test_util.check_degree "5 <> 5" 0.0 (Trapezoid.ne_height c5 (Trapezoid.crisp 5.0));
      Test_util.check_degree "fuzzy <> fuzzy" 1.0 (Trapezoid.ne_height u v))

let arith_cases =
  tc "fuzzy arithmetic on cuts" `Quick (fun () ->
      let x = Trapezoid.make 1. 2. 3. 4. and y = Trapezoid.make 10. 20. 30. 40. in
      let s = Trapezoid.add x y in
      Alcotest.(check bool) "add" true (Trapezoid.equal s (Trapezoid.make 11. 22. 33. 44.));
      let d = Trapezoid.sub y x in
      Alcotest.(check bool) "sub" true (Trapezoid.equal d (Trapezoid.make 6. 17. 28. 39.));
      let m = Trapezoid.mul x y in
      Alcotest.(check bool) "mul" true (Trapezoid.equal m (Trapezoid.make 10. 40. 90. 160.));
      (match Trapezoid.div y x with
      | Some q ->
          (* Expected cuts: 0-cut [10,40]*[1/4,1] = [2.5,40], 1-cut
             [20,30]*[1/3,1/2] = [20/3,15]; compare up to rounding. *)
          let close a b = Float.abs (a -. b) <= 1e-12 in
          let sup = Trapezoid.support q and core = Trapezoid.core q in
          Alcotest.(check bool) "div cuts" true
            (close (Interval.lo sup) 2.5 && close (Interval.hi sup) 40.
            && close (Interval.lo core) (20. /. 3.)
            && close (Interval.hi core) 15.)
      | None -> Alcotest.fail "div should be defined");
      Alcotest.(check bool) "div by zero-spanning" true
        (Trapezoid.div y (Trapezoid.make (-1.) 0. 0. 1.) = None);
      let n = Trapezoid.scale x (-2.0) in
      Alcotest.(check bool) "negative scale mirrors" true
        (Trapezoid.equal n (Trapezoid.make (-8.) (-6.) (-4.) (-2.))))

let make_validation_cases =
  tc "make rejects unordered and NaN breakpoints" `Quick (fun () ->
      let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
      Alcotest.(check bool) "a > b" true (bad (fun () -> Trapezoid.make 2. 1. 3. 4.));
      Alcotest.(check bool) "b > c" true (bad (fun () -> Trapezoid.make 1. 3. 2. 4.));
      Alcotest.(check bool) "c > d" true (bad (fun () -> Trapezoid.make 1. 2. 4. 3.));
      Alcotest.(check bool) "NaN" true (bad (fun () -> Trapezoid.make 1. Float.nan 3. 4.));
      Alcotest.(check bool) "negative spread" true
        (bad (fun () -> Trapezoid.about 5. ~spread:(-1.)));
      Alcotest.(check bool) "all equal is a crisp value" true
        (Trapezoid.is_crisp (Trapezoid.make 3. 3. 3. 3.)))

(* ---------- property tests: analytic vs oracle ---------- *)

let trap_gen =
  QCheck.Gen.(
    let pt = float_bound_inclusive 100.0 in
    map
      (fun (a, b, c, d) ->
        match List.sort Float.compare [ a; b; c; d ] with
        | [ a; b; c; d ] -> Trapezoid.make a b c d
        | _ -> assert false)
      (quad pt pt pt pt))

let arb_trap = QCheck.make ~print:(Format.asprintf "%a" Trapezoid.pp) trap_gen

let close a b = Float.abs (a -. b) <= 1e-9

let prop_eq_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"analytic eq = breakpoint oracle"
    (QCheck.pair arb_trap arb_trap) (fun (u, v) ->
      let pu = Possibility.trap u and pv = Possibility.trap v in
      close
        (Fuzzy_compare.degree Fuzzy_compare.Eq pu pv)
        (Fuzzy_compare.Oracle.degree Fuzzy_compare.Eq pu pv))

let prop_ge_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"analytic ge = breakpoint oracle"
    (QCheck.pair arb_trap arb_trap) (fun (u, v) ->
      let pu = Possibility.trap u and pv = Possibility.trap v in
      close
        (Fuzzy_compare.degree Fuzzy_compare.Ge pu pv)
        (Fuzzy_compare.Oracle.degree Fuzzy_compare.Ge pu pv))

let prop_eq_symmetric =
  QCheck.Test.make ~count:500 ~name:"eq is symmetric"
    (QCheck.pair arb_trap arb_trap) (fun (u, v) ->
      close (Trapezoid.eq_height u v) (Trapezoid.eq_height v u))

let prop_ge_le_dual =
  QCheck.Test.make ~count:500 ~name:"ge(u,v) = le(v,u)"
    (QCheck.pair arb_trap arb_trap) (fun (u, v) ->
      close (Trapezoid.ge_height u v) (Trapezoid.le_height v u))

let prop_total_order_covers =
  QCheck.Test.make ~count:500 ~name:"max(ge(u,v), ge(v,u)) = 1"
    (QCheck.pair arb_trap arb_trap) (fun (u, v) ->
      (* For any two normal convex distributions, one direction of the
         comparison is fully possible. *)
      close 1.0 (Float.max (Trapezoid.ge_height u v) (Trapezoid.ge_height v u)))

let prop_eq_le_min_ge =
  QCheck.Test.make ~count:500 ~name:"eq <= min(ge, le)"
    (QCheck.pair arb_trap arb_trap) (fun (u, v) ->
      Trapezoid.eq_height u v
      <= Float.min (Trapezoid.ge_height u v) (Trapezoid.le_height u v) +. 1e-9)

let prop_add_support =
  QCheck.Test.make ~count:300 ~name:"support(add) = support sums"
    (QCheck.pair arb_trap arb_trap) (fun (u, v) ->
      let s = Trapezoid.add u v in
      close
        (Interval.lo (Trapezoid.support s))
        (Interval.lo (Trapezoid.support u) +. Interval.lo (Trapezoid.support v))
      && close
           (Interval.hi (Trapezoid.support s))
           (Interval.hi (Trapezoid.support u) +. Interval.hi (Trapezoid.support v)))

(* Membership read off the breakpoints (a,0) (b,1) (c,1) (d,0) by linear
   interpolation; a vertical edge takes the larger of its two ends. *)
let interpolated t x =
  let s = Trapezoid.support t and k = Trapezoid.core t in
  let pts =
    [ (Interval.lo s, 0.0); (Interval.lo k, 1.0); (Interval.hi k, 1.0);
      (Interval.hi s, 0.0) ]
  in
  let rec go acc = function
    | (x1, y1) :: ((x2, y2) :: _ as rest) ->
        let y =
          if x < x1 || x > x2 then 0.0
          else if y1 = y2 || x1 = x2 then Float.max y1 y2
          else ((y1 *. (x2 -. x)) +. (y2 *. (x -. x1))) /. (x2 -. x1)
        in
        go (Float.max acc y) rest
    | _ -> acc
  in
  go 0.0 pts

(* Points on the breakpoints as well as between them. *)
let arb_trap_point =
  QCheck.make
    ~print:(fun (t, x) -> Format.asprintf "%a at %g" Trapezoid.pp t x)
    QCheck.Gen.(
      trap_gen >>= fun t ->
      let s = Trapezoid.support t and k = Trapezoid.core t in
      map (fun x -> (t, x))
        (oneof
           [ float_bound_inclusive 100.0;
             oneofl [ Interval.lo s; Interval.lo k; Interval.hi k; Interval.hi s ] ]))

let prop_mem_interpolates =
  QCheck.Test.make ~count:500 ~name:"mem = linear interpolation of the breakpoints"
    arb_trap_point (fun (t, x) -> close (Trapezoid.mem t x) (interpolated t x))

(* Integer breakpoints, points, offsets and factors keep shift and scale
   exact, so membership moves with the axis bit for bit. *)
let prop_shift_scale =
  QCheck.Test.make ~count:300 ~name:"shift and scale move membership with the axis"
    QCheck.(
      quad
        (quad (int_bound 50) (int_bound 50) (int_bound 50) (int_bound 50))
        (int_range (-10) 110) (int_range (-20) 20) (int_range (-4) 4))
    (fun ((a, b, c, d), x, off, k) ->
      let t =
        match List.sort compare [ a; b; c; d ] with
        | [ a; b; c; d ] ->
            Trapezoid.make (float a) (float b) (float c) (float d)
        | _ -> assert false
      in
      let x = float x /. 2.0 and off = float off in
      let k = float (if k = 0 then 1 else k) in
      Trapezoid.mem (Trapezoid.shift t off) (x +. off) = Trapezoid.mem t x
      && Trapezoid.mem (Trapezoid.scale t k) (x *. k) = Trapezoid.mem t x)

let prop_hedges_bracket =
  QCheck.Test.make ~count:300 ~name:"very concentrates and somewhat dilates"
    arb_trap_point (fun (t, x) ->
      let p = Possibility.trap t in
      let mu h = Possibility.mem (Hedge.apply h p) x in
      mu Hedge.Very <= Trapezoid.mem t x +. 1e-9
      && Trapezoid.mem t x <= mu Hedge.Somewhat +. 1e-9)

(* ---------- degrees: the min / max / 1 - d connectives ---------- *)

let arb_degree = QCheck.float_bound_inclusive 1.0

let prop_degree_lattice =
  QCheck.Test.make ~count:500
    ~name:"conj / disj: commutative, associative, idempotent, units"
    (QCheck.triple arb_degree arb_degree arb_degree) (fun (a, b, c) ->
      let open Degree in
      conj a b = conj b a
      && disj a b = disj b a
      && conj a (conj b c) = conj (conj a b) c
      && disj a (disj b c) = disj (disj a b) c
      && conj a a = a && disj a a = a
      && conj a one = a && disj a zero = a
      && conj a zero = zero && disj a one = one
      && conj_list [ a; b; c ] = conj a (conj b c)
      && disj_list [ a; b; c ] = disj a (disj b c))

let prop_degree_negation =
  QCheck.Test.make ~count:500 ~name:"neg: involution and De Morgan"
    (QCheck.pair arb_degree arb_degree) (fun (a, b) ->
      let open Degree in
      equal (neg (neg a)) a
      && is_valid (neg a)
      && neg (conj a b) = disj (neg a) (neg b)
      && neg (disj a b) = conj (neg a) (neg b))

let prop_alpha_cut_nested =
  QCheck.Test.make ~count:300 ~name:"alpha cuts are nested"
    (QCheck.pair arb_trap (QCheck.float_bound_inclusive 1.0)) (fun (t, a) ->
      let lower = Option.get (Trapezoid.alpha_cut t (a /. 2.0)) in
      let higher = Option.get (Trapezoid.alpha_cut t a) in
      Interval.lo lower <= Interval.lo higher +. 1e-9
      && Interval.hi higher <= Interval.hi lower +. 1e-9)

(* ---------- discrete distributions ---------- *)

let discrete_cases =
  tc "discrete distributions" `Quick (fun () ->
      (* The Appendix example: 1/y1 + 0.8/y2. *)
      let s = Possibility.discrete [ (1.0, 1.0); (2.0, 0.8) ] in
      Test_util.check_degree "mem y1" 1.0 (Possibility.mem s 1.0);
      Test_util.check_degree "mem y2" 0.8 (Possibility.mem s 2.0);
      Test_util.check_degree "mem other" 0.0 (Possibility.mem s 1.5);
      let y1 = Possibility.crisp 1.0 and y2 = Possibility.crisp 2.0 in
      Test_util.check_degree "d(y1 = S)" 1.0 (Fuzzy_compare.degree Fuzzy_compare.Eq y1 s);
      Test_util.check_degree "d(y2 = S)" 0.8 (Fuzzy_compare.degree Fuzzy_compare.Eq y2 s);
      (* order comparisons *)
      Test_util.check_degree "d(S >= 2)" 0.8 (Fuzzy_compare.degree Fuzzy_compare.Ge s y2);
      Test_util.check_degree "d(S >= 1)" 1.0 (Fuzzy_compare.degree Fuzzy_compare.Ge s y1);
      Test_util.check_degree "d(S > 2)" 0.0 (Fuzzy_compare.degree Fuzzy_compare.Gt s y2);
      (* mixed with a trapezoid *)
      let t = Possibility.trap (Trapezoid.make 0.0 1.5 1.5 3.0) in
      Test_util.check_degree "d(S = T)" (2.0 /. 3.0)
        (Fuzzy_compare.degree Fuzzy_compare.Eq s t);
      Test_util.check_degree "d(T >= S)" 1.0 (Fuzzy_compare.degree Fuzzy_compare.Ge t s);
      (* normalisation: duplicate values merge with max *)
      match Possibility.discrete [ (1.0, 0.3); (1.0, 0.6) ] with
      | Possibility.Discrete [ (1.0, 0.6) ] -> ()
      | p -> Alcotest.failf "bad normalisation: %a" Possibility.pp p)

let discrete_invalid =
  tc "discrete rejects empty and invalid" `Quick (fun () ->
      Alcotest.(check bool) "raises on empty" true
        (try ignore (Possibility.discrete [ (1.0, 0.0) ]); false
         with Invalid_argument _ -> true))

let subnormal_cases =
  tc "subnormal multi-modal discrete distribution" `Quick (fun () ->
      let p =
        Possibility.discrete [ (3.0, 0.8); (0.0, 0.3); (1.0, 0.8); (2.0, 0.1) ]
      in
      Test_util.check_degree "height" 0.8 (Possibility.height p);
      Test_util.(Alcotest.check interval) "support" (Interval.make 0. 3.)
        (Possibility.support p);
      Alcotest.(check (float 1e-9)) "core start" 1.0 (Possibility.core_start p);
      Alcotest.(check (float 1e-9)) "core center" 2.0 (Defuzz.core_center p);
      Test_util.check_degree "between points" 0.0 (Possibility.mem p 1.5);
      match Hedge.apply Hedge.Very p with
      | Possibility.Discrete pts ->
          Alcotest.(check (list (pair (float 0.0) (float 1e-12))))
            "very squares each degree"
            [ (0.0, 0.09); (1.0, 0.64); (2.0, 0.01); (3.0, 0.64) ]
            pts
      | q -> Alcotest.failf "very changed the shape: %a" Possibility.pp q)

(* ---------- similarity relations ---------- *)

let similarity_cases =
  tc "similarity relation comparator" `Quick (fun () ->
      (* A tolerance relation: fully similar within 1, fading to 0 at 3. *)
      let near x y =
        let d = Float.abs (x -. y) in
        if d <= 1.0 then 1.0 else Float.max 0.0 ((3.0 -. d) /. 2.0)
      in
      let a = Possibility.crisp 10.0 and b = Possibility.crisp 12.0 in
      Test_util.check_degree "crisp near" 0.5 (Fuzzy_compare.similarity near a b);
      let c = Possibility.discrete [ (10.0, 1.0); (11.5, 0.4) ] in
      Test_util.check_degree "discrete near" 0.5
        (Fuzzy_compare.similarity near c b))

(* ---------- defuzzification ---------- *)

let defuzz_cases =
  tc "defuzzification" `Quick (fun () ->
      let t = Possibility.trap (Trapezoid.make 0. 10. 20. 30.) in
      Alcotest.(check (float 1e-9)) "core center" 15.0 (Defuzz.core_center t);
      Alcotest.(check (float 1e-9)) "symmetric centroid" 15.0 (Defuzz.centroid t);
      let skew = Possibility.trap (Trapezoid.make 0. 0. 0. 30.) in
      Alcotest.(check (float 1e-9)) "skewed centroid" 10.0 (Defuzz.centroid skew);
      let disc = Possibility.discrete [ (0.0, 1.0); (10.0, 1.0); (5.0, 0.2) ] in
      Alcotest.(check (float 1e-9)) "discrete core center" 5.0 (Defuzz.core_center disc);
      Alcotest.(check (float 1e-9)) "crisp centroid" 7.0
        (Defuzz.centroid (Possibility.crisp 7.0)))

(* ---------- fuzzy arithmetic on possibilities ---------- *)

let poss_arith_cases =
  tc "possibility arithmetic" `Quick (fun () ->
      let d1 = Possibility.discrete [ (1.0, 1.0); (2.0, 0.5) ] in
      let d2 = Possibility.discrete [ (10.0, 0.8) ] in
      (match Fuzzy_arith.add d1 d2 with
      | Possibility.Discrete [ (11.0, 0.8); (12.0, 0.5) ] -> ()
      | p -> Alcotest.failf "bad discrete add: %a" Possibility.pp p);
      (* crisp trapezoid mixes with discrete *)
      (match Fuzzy_arith.add (Possibility.crisp 1.0) d2 with
      | Possibility.Discrete [ (11.0, 0.8) ] -> ()
      | p -> Alcotest.failf "bad mixed add: %a" Possibility.pp p);
      (* non-crisp trapezoid with discrete is unsupported *)
      Alcotest.(check bool) "unsupported mix" true
        (try
           ignore (Fuzzy_arith.add (Possibility.triangle 0. 1. 2.) d2);
           false
         with Fuzzy_arith.Unsupported _ -> true);
      (* sum / avg *)
      (match Fuzzy_arith.avg [ Possibility.crisp 10.0; Possibility.crisp 20.0 ] with
      | Some p ->
          Alcotest.(check (float 1e-9)) "avg" 15.0 (Defuzz.core_center p)
      | None -> Alcotest.fail "avg of nonempty");
      Alcotest.(check bool) "sum of empty is NULL" true (Fuzzy_arith.sum [] = None))

(* ---------- terms & plotting ---------- *)

let term_cases =
  tc "paper term dictionary reproduces every printed degree" `Quick (fun () ->
      let g n = Option.get (Term.lookup Term.paper n) in
      let d op a b = Fuzzy_compare.degree op a b in
      let eq = Fuzzy_compare.Eq in
      Test_util.check_degree "about35 = medium young" 0.5 (d eq (g "about 35") (g "medium young"));
      Test_util.check_degree "middle age = medium young" 0.7 (d eq (g "middle age") (g "medium young"));
      Test_util.check_degree "about50 = middle age" 0.4 (d eq (g "about 50") (g "middle age"));
      Test_util.check_degree "about29 = middle age" 0.0 (d eq (g "about 29") (g "middle age"));
      Test_util.check_degree "24 = middle age" 0.0 (d eq (Possibility.crisp 24.) (g "middle age"));
      Test_util.check_degree "24 = medium young" 0.8 (d eq (Possibility.crisp 24.) (g "medium young"));
      Test_util.check_degree "about60K = high" 0.3 (d eq (g "about 60K") (g "high"));
      Test_util.check_degree "about60K = about40K" 0.0 (d eq (g "about 60K") (g "about 40K"));
      Test_util.check_degree "medium high = high" 0.7 (d eq (g "medium high") (g "high"));
      Test_util.check_degree "medium high = about40K" 0.0 (d eq (g "medium high") (g "about 40K"));
      Test_util.check_degree "about50 = medium young" 0.0 (d eq (g "about 50") (g "medium young")))

let term_lookup_cases =
  tc "term lookup is case/space insensitive; registration shadows" `Quick
    (fun () ->
      Alcotest.(check bool) "case" true (Term.lookup Term.paper "Medium Young" <> None);
      Alcotest.(check bool) "trim" true (Term.lookup Term.paper "  high " <> None);
      Alcotest.(check bool) "missing" true (Term.lookup Term.paper "ancient" = None);
      let t = Term.register Term.paper "high" (Possibility.crisp 1.0) in
      match Term.lookup t "high" with
      | Some p -> Alcotest.(check bool) "shadowed" true (Possibility.is_crisp p)
      | None -> Alcotest.fail "lookup after register")

let plot_cases =
  tc "ASCII plot renders" `Quick (fun () ->
      let g n = Option.get (Term.lookup Term.paper n) in
      let s = Term.plot [ ("medium young", g "medium young"); ("about 35", g "about 35") ] in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "mentions label" true (contains s "medium young");
      Alcotest.(check bool) "has axis" true (contains s "0.5 |"))

(* [Degree.conj] / [disj] skip [Float.min] / [max]'s sign-bit test where
   the operands differ; on any floats (signed zeros, infinities, NaNs of
   either sign included) the bits must still be theirs. *)
let prop_conj_disj_bits =
  let specials = [ 0.0; -0.0; 1.0; -1.0; 0.5; infinity; neg_infinity; nan; -.nan; 1e-310 ] in
  QCheck.Test.make ~count:1000 ~name:"Degree.conj / disj = Float.min / max bits"
    QCheck.(pair
              (make Gen.(oneof [ oneofl specials; float ]))
              (make Gen.(oneof [ oneofl specials; float ])))
    (fun (x, y) ->
      let bits = Int64.bits_of_float in
      bits (Degree.conj x y) = bits (Float.min x y)
      && bits (Degree.disj x y) = bits (Float.max x y))

let suites =
  [
    ("fuzzy.interval", interval_tests);
    ( "fuzzy.trapezoid",
      [ mem_cases; crisp_cases; alpha_cut_cases; eq_height_cases;
        ge_height_cases; arith_cases; make_validation_cases ] );
    ( "fuzzy.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_eq_matches_oracle; prop_ge_matches_oracle; prop_eq_symmetric;
          prop_ge_le_dual; prop_total_order_covers; prop_eq_le_min_ge;
          prop_add_support; prop_alpha_cut_nested; prop_mem_interpolates;
          prop_shift_scale; prop_hedges_bracket; prop_degree_lattice;
          prop_degree_negation; prop_conj_disj_bits;
        ] );
    ( "fuzzy.distributions",
      [ discrete_cases; discrete_invalid; subnormal_cases; similarity_cases;
        defuzz_cases; poss_arith_cases ] );
    ("fuzzy.terms", [ term_cases; term_lookup_cases; plot_cases ]);
  ]

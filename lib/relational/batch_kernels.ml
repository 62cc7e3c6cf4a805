open Fuzzy

(* Scalar-parameter replicas of the [Trapezoid] height arithmetic: same
   expressions, same branch structure, same IEEE-754 operations — only the
   record indirection is gone, so the window sweep stays allocation-free.
   Bit-identity with the boxed path is enforced by the qcheck suite. *)

let[@inline] mem_s a b c d x =
  if x < a || x > d then 0.0
  else if b <= x && x <= c then 1.0
  else if x < b then (x -. a) /. (b -. a)
  else (d -. x) /. (d -. c)

(* [Degree.of_float] without the NaN check: the callers below divide by a
   provably positive denominator, exactly like [Trapezoid.cross_height]. *)
let[@inline] clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let[@inline] cross_s ua ub uc ud va vb vc vd =
  if ud <= va then 0.0
  else if uc = ud then mem_s va vb vc vd ud
  else if va = vb then mem_s ua ub uc ud va
  else
    let p = ud -. uc and q = vb -. va in
    clamp01 ((ud -. va) /. (p +. q))

let[@inline] eq_s ua ub uc ud va vb vc vd =
  if ub <= vc && vb <= uc then 1.0
  else if uc < vb then cross_s ua ub uc ud va vb vc vd
  else cross_s va vb vc vd ua ub uc ud

let[@inline] ge_s ua ub uc ud va vb vc vd =
  if uc >= vb then 1.0 else cross_s ua ub uc ud va vb vc vd

let[@inline] gt_s ua ub uc ud va vb vc vd =
  if ua = ud && va = vd then (if ua > va then 1.0 else 0.0)
  else ge_s ua ub uc ud va vb vc vd

(* [ne_height]: only crisp-vs-crisp can defeat "somewhere different". *)
let[@inline] ne_s ua _ub _uc ud va _vb _vc vd =
  if ua = ud && va = vd then (if ua = va then 0.0 else 1.0) else 1.0

let[@inline] cmp op ua ub uc ud va vb vc vd =
  match (op : Fuzzy_compare.op) with
  | Fuzzy_compare.Eq -> eq_s ua ub uc ud va vb vc vd
  | Fuzzy_compare.Ne -> ne_s ua ub uc ud va vb vc vd
  | Fuzzy_compare.Ge -> ge_s ua ub uc ud va vb vc vd
  | Fuzzy_compare.Le -> ge_s va vb vc vd ua ub uc ud
  | Fuzzy_compare.Gt -> gt_s ua ub uc ud va vb vc vd
  | Fuzzy_compare.Lt -> gt_s va vb vc vd ua ub uc ud

(* Indices come from the sweep's selection vectors, which are in bounds by
   construction; the unchecked loads matter at ~1 call per window pair. *)
let[@inline] cmp_at op (u : Batch.col) i (v : Batch.col) j =
  cmp op
    (Array.unsafe_get u.Batch.ta i)
    (Array.unsafe_get u.Batch.tb i)
    (Array.unsafe_get u.Batch.tc i)
    (Array.unsafe_get u.Batch.td i)
    (Array.unsafe_get v.Batch.ta j)
    (Array.unsafe_get v.Batch.tb j)
    (Array.unsafe_get v.Batch.tc j)
    (Array.unsafe_get v.Batch.td j)

type t = { a : float; b : float; c : float; d : float }

(* Out of line, so [make] stays small enough to inline and its bounds
   need no boxing on the valid path. *)
let unordered a b c d =
  invalid_arg
    (Printf.sprintf "Trapezoid.make: need a <= b <= c <= d, got (%g,%g,%g,%g)"
       a b c d)

let[@inline] make a b c d =
  if Float.is_nan a || Float.is_nan b || Float.is_nan c || Float.is_nan d then
    invalid_arg "Trapezoid.make: NaN bound";
  if not (a <= b && b <= c && c <= d) then unordered a b c d;
  { a; b; c; d }

let triangle a peak d = make a peak peak d

let about v ~spread =
  if spread < 0.0 then invalid_arg "Trapezoid.about: negative spread";
  triangle (v -. spread) v (v +. spread)

let[@inline] crisp v = make v v v v
let is_crisp t = t.a = t.d
let support t = Interval.make t.a t.d
let core t = Interval.make t.b t.c

let alpha_cut t alpha =
  if alpha > 1.0 then None
  else if alpha <= 0.0 then Some (support t)
  else
    (* Left bound: where the rising edge reaches [alpha]; right bound: where
       the falling edge drops to [alpha]. *)
    let lo = t.a +. (alpha *. (t.b -. t.a)) in
    let hi = t.d -. (alpha *. (t.d -. t.c)) in
    Some (Interval.make lo hi)

let mem t x =
  if x < t.a || x > t.d then 0.0
  else if t.b <= x && x <= t.c then 1.0
  else if x < t.b then (x -. t.a) /. (t.b -. t.a)
  else (t.d -. x) /. (t.d -. t.c)

(* Height of the crossing between [u]'s falling edge (over [u.c, u.d]) and
   [v]'s rising edge (over [v.a, v.b]). Precondition: [u.c < v.b], i.e. the
   cores are disjoint with [u] strictly to the left. *)
let cross_height u v =
  if u.d <= v.a then 0.0
  else if u.c = u.d then mem v u.d (* u falls vertically at its core end *)
  else if v.a = v.b then mem u v.a (* v rises vertically at its core start *)
  else
    let p = u.d -. u.c and q = v.b -. v.a in
    Degree.of_float ((u.d -. v.a) /. (p +. q))

let eq_height u v =
  (* cores [u.b, u.c] and [v.b, v.c] overlap *)
  if u.b <= v.c && v.b <= u.c then 1.0
  else if u.c < v.b then cross_height u v
  else cross_height v u

let ge_height u v = if u.c >= v.b then 1.0 else cross_height u v
let le_height u v = ge_height v u

let gt_height u v =
  if is_crisp u && is_crisp v then if u.a > v.a then 1.0 else 0.0
  else ge_height u v

let lt_height u v = gt_height v u

let ne_height u v =
  if is_crisp u && is_crisp v then if u.a = v.a then 0.0 else 1.0 else 1.0

let shift t x = make (t.a +. x) (t.b +. x) (t.c +. x) (t.d +. x)

let scale t k =
  if k >= 0.0 then make (t.a *. k) (t.b *. k) (t.c *. k) (t.d *. k)
  else make (t.d *. k) (t.c *. k) (t.b *. k) (t.a *. k)

let add u v = make (u.a +. v.a) (u.b +. v.b) (u.c +. v.c) (u.d +. v.d)
let sub u v = make (u.a -. v.d) (u.b -. v.c) (u.c -. v.b) (u.d -. v.a)

let interval_mul (lo1, hi1) (lo2, hi2) =
  let p1 = lo1 *. lo2 and p2 = lo1 *. hi2 and p3 = hi1 *. lo2
  and p4 = hi1 *. hi2 in
  ( Float.min (Float.min p1 p2) (Float.min p3 p4),
    Float.max (Float.max p1 p2) (Float.max p3 p4) )

let mul u v =
  let a, d = interval_mul (u.a, u.d) (v.a, v.d) in
  let b, c = interval_mul (u.b, u.c) (v.b, v.c) in
  make a b c d

let div u v =
  if v.a <= 0.0 && v.d >= 0.0 then None
  else
    let inv = make (1.0 /. v.d) (1.0 /. v.c) (1.0 /. v.b) (1.0 /. v.a) in
    Some (mul u inv)

let equal u v = u.a = v.a && u.b = v.b && u.c = v.c && u.d = v.d

let compare_structural u v =
  match Float.compare u.a v.a with
  | 0 -> (
      match Float.compare u.b v.b with
      | 0 -> (
          match Float.compare u.c v.c with
          | 0 -> Float.compare u.d v.d
          | c -> c)
      | c -> c)
  | c -> c

let pp ppf t =
  if is_crisp t then Format.fprintf ppf "%g" t.a
  else Format.fprintf ppf "trap(%g,%g,%g,%g)" t.a t.b t.c t.d

type t = float

let zero = 0.0
let one = 1.0

let of_float d =
  if Float.is_nan d then invalid_arg "Degree.of_float: NaN";
  Float.max 0.0 (Float.min 1.0 d)

let is_valid d = (not (Float.is_nan d)) && 0.0 <= d && d <= 1.0
(* [Float.min] and [Float.max], bit for bit, without their [sign_bit] C
   call where the operands differ: only equal zeros and NaNs need it. *)
let[@inline] conj x y =
  if y > x then x
  else if x > y then y
  else if x = y && x <> 0.0 then x
  else Float.min x y

let[@inline] disj x y =
  if y > x then y
  else if x > y then x
  else if x = y && x <> 0.0 then x
  else Float.max x y
let[@inline] neg d = 1.0 -. d
let conj_list l = List.fold_left conj one l
let disj_list l = List.fold_left disj zero l
let meets_threshold ~threshold d = d >= threshold
let[@inline] positive d = d > 0.0
let equal ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps
let compare = Float.compare
let pp ppf d = Format.fprintf ppf "%.4g" d

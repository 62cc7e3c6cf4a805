(** Order statistics over samples (seconds, bytes, counts). *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [q] of the
   samples at or below it. [nan] on no samples. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs

(* [tail cap xs]: the [cap] percentile when at least ten samples lie
   beyond it, otherwise the highest percentile (not below the median)
   that still leaves ten beyond it. *)
let tail cap xs =
  let n = float_of_int (List.length xs) in
  percentile (Float.max 0.5 (Float.min cap (1.0 -. (10.0 /. n)))) xs

let sum xs = List.fold_left ( +. ) 0.0 xs

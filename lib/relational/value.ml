open Fuzzy

type t = Int of int | Str of string | Fuzzy of Possibility.t

let crisp_num x = Fuzzy (Possibility.crisp x)
let of_trapezoid tr = Fuzzy (Possibility.trap tr)

let to_possibility = function
  | Int i -> Some (Possibility.crisp (float_of_int i))
  | Fuzzy p -> Some p
  | Str _ -> None

let crisp_bool b = if b then Degree.one else Degree.zero

let compare_degree op v1 v2 =
  match (v1, v2) with
  | Str s1, Str s2 ->
      let c = String.compare s1 s2 in
      crisp_bool
        (match op with
        | Fuzzy_compare.Eq -> c = 0
        | Ne -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0)
  | Str _, (Int _ | Fuzzy _) | (Int _ | Fuzzy _), Str _ -> Degree.zero
  | Fuzzy p1, Fuzzy p2 -> Fuzzy_compare.degree op p1 p2
  | Int i, Fuzzy p2 ->
      Fuzzy_compare.degree op (Possibility.crisp (float_of_int i)) p2
  | Fuzzy p1, Int j ->
      Fuzzy_compare.degree op p1 (Possibility.crisp (float_of_int j))
  | Int i, Int j ->
      let c = Int.compare i j in
      crisp_bool
        (match op with
        | Fuzzy_compare.Eq -> c = 0
        | Ne -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0)

(* The number view of [equal] and [compare_structural]: an [Int] and a
   one-point distribution at degree 1 are the crisp number they hold. *)
let numeric = function
  | Int i -> Possibility.crisp (float_of_int i)
  | Fuzzy (Possibility.Discrete [ (v, 1.0) ]) -> Possibility.crisp v
  | Fuzzy p -> p
  | Str _ -> invalid_arg "Value.numeric: a string"

let rank = function Str _ -> 0 | Int _ | Fuzzy _ -> 1

let equal a b =
  match (a, b) with
  | Int i, Int j -> i = j
  | Str s, Str t -> String.equal s t
  | Str _, _ | _, Str _ -> false
  | _ -> Possibility.equal (numeric a) (numeric b)

let compare_structural a b =
  match (a, b) with
  | Int i, Int j -> Int.compare i j
  | Str s, Str t -> String.compare s t
  | Str _, _ | _, Str _ -> Int.compare (rank a) (rank b)
  | _ -> Possibility.compare_structural (numeric a) (numeric b)

let support = function
  | Int i -> Interval.point (float_of_int i)
  | Fuzzy p -> Possibility.support p
  | Str s -> Interval.point (float_of_int (Hashtbl.hash s))

let pp ppf = function
  | Int i -> Format.fprintf ppf "%d" i
  | Str s -> Format.fprintf ppf "%S" s
  | Fuzzy p -> Possibility.pp ppf p

let to_string v = Format.asprintf "%a" pp v

type t = Trap of Trapezoid.t | Discrete of (float * Degree.t) list

let trap tr = Trap tr
let[@inline] crisp v = Trap (Trapezoid.crisp v)
let triangle a peak d = Trap (Trapezoid.triangle a peak d)
let about v ~spread = Trap (Trapezoid.about v ~spread)

let discrete points =
  let valid =
    List.filter
      (fun (v, d) ->
        if Float.is_nan v || not (Degree.is_valid d) then
          invalid_arg "Possibility.discrete: invalid point";
        Degree.positive d)
      points
  in
  if valid = [] then
    invalid_arg "Possibility.discrete: no point with positive degree";
  let sorted = List.sort (fun (v1, _) (v2, _) -> Float.compare v1 v2) valid in
  let rec merge = function
    | (v1, d1) :: (v2, d2) :: rest when v1 = v2 ->
        merge ((v1, Degree.disj d1 d2) :: rest)
    | p :: rest -> p :: merge rest
    | [] -> []
  in
  Discrete (merge sorted)

let is_crisp = function
  | Trap tr -> Trapezoid.is_crisp tr
  | Discrete [ (_, d) ] -> d = 1.0
  | Discrete _ -> false

let crisp_value = function
  | Trap tr when Trapezoid.is_crisp tr -> Some (Interval.lo (Trapezoid.support tr))
  | Discrete [ (v, 1.0) ] -> Some v
  | Trap _ | Discrete _ -> None

let support = function
  | Trap tr -> Trapezoid.support tr
  | Discrete pts ->
      let vs = List.map fst pts in
      Interval.make (List.fold_left Float.min infinity vs)
        (List.fold_left Float.max neg_infinity vs)

let height = function
  | Trap _ -> 1.0
  | Discrete pts -> Degree.disj_list (List.map snd pts)

let core_start = function
  | Trap tr -> Interval.lo (Trapezoid.core tr)
  | Discrete pts ->
      let h = Degree.disj_list (List.map snd pts) in
      fst (List.find (fun (_, d) -> d = h) pts)

let mem t x =
  match t with
  | Trap tr -> Trapezoid.mem tr x
  | Discrete pts -> (
      match List.assoc_opt x pts with Some d -> d | None -> 0.0)

let is_continuous = function Trap _ -> true | Discrete _ -> false

let equal t1 t2 =
  match (t1, t2) with
  | Trap a, Trap b -> Trapezoid.equal a b
  | Discrete a, Discrete b ->
      List.length a = List.length b
      && List.for_all2 (fun (v1, d1) (v2, d2) -> v1 = v2 && d1 = d2) a b
  | Trap _, Discrete _ | Discrete _, Trap _ -> false

let compare_structural t1 t2 =
  match (t1, t2) with
  | Trap a, Trap b -> Trapezoid.compare_structural a b
  | Discrete a, Discrete b -> Stdlib.compare a b
  | Trap _, Discrete _ -> -1
  | Discrete _, Trap _ -> 1

let hash = Hashtbl.hash

let pp ppf = function
  | Trap tr -> Trapezoid.pp ppf tr
  | Discrete pts ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
           (fun ppf (v, d) -> Format.fprintf ppf "%g/%g" d v))
        pts

open Fuzzy

type t = Count | Sum | Avg | Min | Max

let of_string s =
  match String.uppercase_ascii s with
  | "COUNT" -> Some Count
  | "SUM" -> Some Sum
  | "AVG" -> Some Avg
  | "MIN" -> Some Min
  | "MAX" -> Some Max
  | _ -> None

let to_string = function
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let numeric agg v =
  match Value.to_possibility v with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "Aggregate.%s: non-numeric value %s" (to_string agg)
           (Value.to_string v))

(* MIN / MAX keep the extreme value by [Defuzz.compare_by_core_center];
   where that ties, the value that sorts last under
   [Value.compare_structural] wins, and a value equal to [best] under it
   leaves [best] in place. *)
let extreme agg best v =
  match Value.compare_structural v best with
  | 0 -> best
  | s ->
      let c = Defuzz.compare_by_core_center (numeric agg v) (numeric agg best) in
      let c = match agg with Min -> -c | Count | Sum | Avg | Max -> c in
      if c > 0 || (c = 0 && s > 0) then v else best

let apply agg values =
  match (agg, values) with
  | Count, vs -> Some (Value.Int (List.length vs))
  | _, [] -> None
  | Sum, vs -> Option.map (fun p -> Value.Fuzzy p) (Fuzzy_arith.sum (List.map (numeric Sum) vs))
  | Avg, vs -> Option.map (fun p -> Value.Fuzzy p) (Fuzzy_arith.avg (List.map (numeric Avg) vs))
  | (Min | Max), first :: rest -> Some (List.fold_left (extreme agg) first rest)

type degree_strategy = Always_one | Average_membership | Weighted_membership

let result_degree ?(strategy = Always_one) degrees =
  match (strategy, degrees) with
  | Always_one, _ | _, [] -> Degree.one
  | Average_membership, ds ->
      List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)
  | Weighted_membership, ds ->
      (* Weight each degree by itself: emphasises strong members. *)
      let num = List.fold_left (fun acc d -> acc +. (d *. d)) 0.0 ds in
      let den = List.fold_left ( +. ) 0.0 ds in
      if den = 0.0 then Degree.zero else Degree.of_float (num /. den)

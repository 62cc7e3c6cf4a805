open Fuzzy

let select ?name r ~pred =
  let schema =
    match name with
    | Some n -> Schema.with_name (Relation.schema r) n
    | None -> Relation.schema r
  in
  let out = Relation.create (Relation.env r) schema in
  (* [pred] may raise (a cancellation poll): free the partial copy. *)
  match
    Relation.iter r (fun tup ->
        let d = Degree.conj (Ftuple.degree tup) (pred tup) in
        if Degree.positive d then Relation.insert out (Ftuple.with_degree tup d))
  with
  | () -> out
  | exception e ->
      Relation.destroy out;
      raise e

module Tuple_map = Map.Make (struct
  type t = Ftuple.t

  let compare = Ftuple.compare_values
end)

(* Max-degree dedup by value vector, folded straight off the relation:
   no intermediate tuple list. *)
let add_max m tup =
  Tuple_map.update tup
    (function
      | None -> Some tup
      | Some prev ->
          Some
            (Ftuple.with_degree prev
               (Degree.disj (Ftuple.degree prev) (Ftuple.degree tup))))
    m

let dedup_into_map r = Relation.fold r ~init:Tuple_map.empty ~f:add_max

let of_map ?name env schema m =
  let schema =
    match name with Some n -> Schema.with_name schema n | None -> schema
  in
  let out = Relation.create env schema in
  Tuple_map.iter (fun _ tup -> Relation.insert out tup) m;
  out

let dedup_max ?name r =
  of_map ?name (Relation.env r) (Relation.schema r) (dedup_into_map r)

let project_positions ?name r positions =
  let schema = Relation.schema r in
  let attrs = List.map (fun i -> Schema.attrs schema |> fun a -> a.(i)) positions in
  let out_schema =
    Schema.make ~name:(Option.value name ~default:(Schema.name schema)) attrs
  in
  let m =
    Relation.fold r ~init:Tuple_map.empty ~f:(fun m tup ->
        add_max m (Ftuple.project tup positions))
  in
  of_map (Relation.env r) out_schema m

let project ?name r ~attrs =
  let schema = Relation.schema r in
  let positions =
    List.map
      (fun a ->
        match Schema.index_of schema a with
        | Some i -> i
        | None ->
            invalid_arg
              (Printf.sprintf "Algebra.project: unknown attribute %s in %s" a
                 (Schema.name schema)))
      attrs
  in
  project_positions ?name r positions

let union_max ?name r s =
  if Schema.arity (Relation.schema r) <> Schema.arity (Relation.schema s) then
    invalid_arg "Algebra.union_max: arity mismatch";
  of_map ?name (Relation.env r) (Relation.schema r)
    (Relation.fold s ~init:(dedup_into_map r) ~f:add_max)

let check_same_arity op r s =
  if Schema.arity (Relation.schema r) <> Schema.arity (Relation.schema s) then
    invalid_arg (Printf.sprintf "Algebra.%s: arity mismatch" op)

let intersect_min ?name r s =
  check_same_arity "intersect_min" r s;
  let s_map = dedup_into_map s in
  let m =
    Tuple_map.filter_map
      (fun key tup ->
        match Tuple_map.find_opt key s_map with
        | Some other ->
            let d = Degree.conj (Ftuple.degree tup) (Ftuple.degree other) in
            if Degree.positive d then Some (Ftuple.with_degree tup d) else None
        | None -> None)
      (dedup_into_map r)
  in
  of_map ?name (Relation.env r) (Relation.schema r) m

let difference ?name r s =
  check_same_arity "difference" r s;
  let s_map = dedup_into_map s in
  let m =
    Tuple_map.filter_map
      (fun key tup ->
        let d_s =
          match Tuple_map.find_opt key s_map with
          | Some other -> Ftuple.degree other
          | None -> Degree.zero
        in
        let d = Degree.conj (Ftuple.degree tup) (Degree.neg d_s) in
        if Degree.positive d then Some (Ftuple.with_degree tup d) else None)
      (dedup_into_map r)
  in
  of_map ?name (Relation.env r) (Relation.schema r) m

let threshold ?name r z =
  select ?name r ~pred:(fun tup ->
      if Degree.meets_threshold ~threshold:z (Ftuple.degree tup) then Degree.one
      else Degree.zero)

let product ?name r s =
  let out_schema =
    Schema.concat
      ~name:(Option.value name ~default:"product")
      (Relation.schema r) (Relation.schema s)
  in
  let out = Relation.create (Relation.env r) out_schema in
  Relation.iter r (fun rt ->
      Relation.iter s (fun st ->
          let d = Degree.conj (Ftuple.degree rt) (Ftuple.degree st) in
          if Degree.positive d then Relation.insert out (Ftuple.concat rt st d)));
  out

module Key_map = Map.Make (struct
  type t = Value.t array

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Int.compare la lb
    else
      let rec go i =
        if i >= la then 0
        else
          match Value.compare_structural a.(i) b.(i) with 0 -> go (i + 1) | c -> c
      in
      go 0
end)

let group r ~key =
  let m =
    Relation.fold r ~init:Key_map.empty ~f:(fun m tup ->
        let k = Array.of_list (List.map (Ftuple.value tup) key) in
        Key_map.update k
          (function None -> Some [ tup ] | Some l -> Some (tup :: l))
          m)
  in
  Key_map.fold (fun k tuples acc -> (k, List.rev tuples) :: acc) m []
  |> List.rev

let rename r name = Relation.with_name r name

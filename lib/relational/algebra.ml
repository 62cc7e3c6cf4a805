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

(* The max-fold: tuples equal under [Ftuple.compare_values] collapse into
   the first one added, carrying the max degree. Tuples are kept encoded
   ({!Codec.encode_into}), back to back in one byte buffer, with their
   degrees in an unboxed column. So a query's answer occupies a few large
   blocks rather than tens of thousands of small ones promoted among the
   sweep's short-lived garbage, which would keep that garbage's heap pages
   resident (join-large's peak RSS was 4.5 MB higher with decoded tuples
   kept here).

   Added tuples form an unsorted tail after a sorted, distinct prefix.
   Once the tail reaches the prefix's size, both are decoded, the tail is
   stably sorted and merged after the prefix (the prefix wins ties, so the
   earliest tuple leads each run of equals), and each run is folded into
   its leader in a fresh buffer: the buffer holds at most about twice the
   distinct tuples. *)
module Max_fold = struct
  type t = {
    enc : Buffer.t;  (** reused to encode each added tuple *)
    mutable blob : bytes;
    mutable used : int;  (** bytes of [blob] in use *)
    mutable off : int array;  (** entry [i] is encoded at [blob.(off.(i))] *)
    mutable deg : float array;  (** its folded degree *)
    mutable n : int;
    mutable sorted : int;  (** entries [0 .. sorted-1] are sorted, distinct *)
  }

  let create () =
    {
      enc = Buffer.create 64;
      blob = Bytes.empty;
      used = 0;
      off = [||];
      deg = [||];
      n = 0;
      sorted = 0;
    }

  (* Entries are contiguous in [blob], in entry order. *)
  let length t i = (if i + 1 < t.n then t.off.(i + 1) else t.used) - t.off.(i)
  let decode t i = Codec.decode_at t.blob t.off.(i)

  let compact t =
    if t.n > t.sorted then begin
      let np = t.sorted and nt = t.n - t.sorted in
      let tail = Array.init nt (fun k -> decode t (np + k)) in
      let order = Array.init nt Fun.id in
      Array.stable_sort
        (fun a b -> Ftuple.compare_values tail.(a) tail.(b))
        order;
      let blob = Bytes.create t.used in
      let off = Array.make t.n 0 and deg = Array.make t.n 0.0 in
      let k = ref 0 and used = ref 0 and last = ref (Ftuple.make [||] 0.0) in
      let put i x =
        if !k > 0 && Ftuple.compare_values !last x = 0 then
          deg.(!k - 1) <- Degree.disj deg.(!k - 1) t.deg.(i)
        else begin
          let len = length t i in
          Bytes.blit t.blob t.off.(i) blob !used len;
          off.(!k) <- !used;
          deg.(!k) <- t.deg.(i);
          used := !used + len;
          incr k;
          last := x
        end
      in
      (* The prefix is decoded one entry at a time as the merge reaches
         it, so its decoded tuples die young. *)
      let i = ref 0 and j = ref 0 in
      let head = ref (if np > 0 then decode t 0 else !last) in
      while !i < np || !j < nt do
        if
          !j >= nt
          || (!i < np && Ftuple.compare_values !head tail.(order.(!j)) <= 0)
        then begin
          put !i !head;
          incr i;
          if !i < np then head := decode t !i
        end
        else begin
          put (np + order.(!j)) tail.(order.(!j));
          incr j
        end
      done;
      t.blob <- blob;
      t.used <- !used;
      t.off <- off;
      t.deg <- deg;
      t.n <- !k;
      t.sorted <- !k
    end

  let add t tup =
    if t.n = Array.length t.off then begin
      let cap = Int.max 16 (2 * t.n) in
      let off = Array.make cap 0 and deg = Array.make cap 0.0 in
      Array.blit t.off 0 off 0 t.n;
      Array.blit t.deg 0 deg 0 t.n;
      t.off <- off;
      t.deg <- deg
    end;
    Buffer.clear t.enc;
    Codec.encode_into t.enc tup;
    let len = Buffer.length t.enc in
    if t.used + len > Bytes.length t.blob then begin
      let blob = Bytes.create (Int.max 1024 (2 * (t.used + len))) in
      Bytes.blit t.blob 0 blob 0 t.used;
      t.blob <- blob
    end;
    Buffer.blit t.enc 0 t.blob t.used len;
    t.off.(t.n) <- t.used;
    t.deg.(t.n) <- Ftuple.degree tup;
    t.used <- t.used + len;
    t.n <- t.n + 1;
    if t.n - t.sorted >= Int.max 1024 t.sorted then compact t

  (* The distinct tuples in [compare_values] order. *)
  let contents t =
    compact t;
    Array.init t.n (fun i -> Ftuple.with_degree (decode t i) t.deg.(i))

  let to_relation ?name t env schema =
    let schema =
      match name with Some n -> Schema.with_name schema n | None -> schema
    in
    let out = Relation.create env schema in
    compact t;
    (* Each encoding is written as it is, its degree field set to the
       folded degree: no re-encode. *)
    for i = 0 to t.n - 1 do
      let len = length t i in
      let b = Bytes.sub t.blob t.off.(i) len in
      Bytes.set_int64_le b (len - 8) (Int64.bits_of_float t.deg.(i));
      Storage.Heap_file.append (Relation.file out) b
    done;
    out
end

let fold_relation ?(f = Fun.id) acc r = Relation.iter r (fun tup -> Max_fold.add acc (f tup))

let dedup_max ?name r =
  let acc = Max_fold.create () in
  fold_relation acc r;
  Max_fold.to_relation ?name acc (Relation.env r) (Relation.schema r)

let project_positions ?name r positions =
  let schema = Relation.schema r in
  let attrs = List.map (fun i -> (Schema.attrs schema).(i)) positions in
  let out_schema =
    Schema.make ~name:(Option.value name ~default:(Schema.name schema)) attrs
  in
  let acc = Max_fold.create () in
  fold_relation ~f:(fun tup -> Ftuple.project tup positions) acc r;
  Max_fold.to_relation acc (Relation.env r) out_schema

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

let check_same_arity op r s =
  if Schema.arity (Relation.schema r) <> Schema.arity (Relation.schema s) then
    invalid_arg (Printf.sprintf "Algebra.%s: arity mismatch" op)

let union_max ?name r s =
  check_same_arity "union_max" r s;
  let acc = Max_fold.create () in
  fold_relation acc r;
  fold_relation acc s;
  Max_fold.to_relation ?name acc (Relation.env r) (Relation.schema r)

(* The distinct tuples of [r] against those of [s], both in
   [compare_values] order: [f tup other] for each tuple of [r], with its
   equal in [s] if any; the kept tuples are written in that order. *)
let merge_with ?name op r s ~f =
  check_same_arity op r s;
  let distinct rel =
    let acc = Max_fold.create () in
    fold_relation acc rel;
    Max_fold.contents acc
  in
  let a = distinct r and b = distinct s in
  let out =
    Relation.create (Relation.env r)
      (match name with
      | Some n -> Schema.with_name (Relation.schema r) n
      | None -> Relation.schema r)
  in
  let j = ref 0 in
  Array.iter
    (fun tup ->
      while !j < Array.length b && Ftuple.compare_values b.(!j) tup < 0 do
        incr j
      done;
      let other =
        if !j < Array.length b && Ftuple.compare_values b.(!j) tup = 0 then
          Some b.(!j)
        else None
      in
      match f tup other with Some t -> Relation.insert out t | None -> ())
    a;
  out

let intersect_min ?name r s =
  merge_with ?name "intersect_min" r s ~f:(fun tup -> function
    | Some other ->
        let d = Degree.conj (Ftuple.degree tup) (Ftuple.degree other) in
        if Degree.positive d then Some (Ftuple.with_degree tup d) else None
    | None -> None)

let difference ?name r s =
  merge_with ?name "difference" r s ~f:(fun tup other ->
      let d_s =
        match other with Some o -> Ftuple.degree o | None -> Degree.zero
      in
      let d = Degree.conj (Ftuple.degree tup) (Degree.neg d_s) in
      if Degree.positive d then Some (Ftuple.with_degree tup d) else None)

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

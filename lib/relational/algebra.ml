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
   degrees, hashes and order keys in unboxed columns. So a query's answer
   occupies a few large blocks rather than tens of thousands of small ones
   promoted among the sweep's short-lived garbage, which would keep that
   garbage's heap pages resident (join-large's peak RSS was 4.5 MB higher
   with decoded tuples kept here).

   Every tuple arrives as an encoding: [add] encodes a decoded tuple,
   [add_record] copies the projected values' bytes out of a record in
   place on its page, and both go through [insert]. So an answer the
   sweep produces is never decoded, and there is one hashing path.

   An added tuple finds its class through an open-addressed hash index
   (linear probing, at most half full) keyed by {!Codec.values_hash},
   which agrees with [compare_values]. A probe whose hash matches is
   settled by the encodings when they are equal byte for byte (degrees
   aside), and by decoding both and calling [compare_values] otherwise.

   All tuples of one accumulator have one arity, so [compare_values]
   never decides by arity. The distinct entries are sorted only when the
   answer is read out ([to_relation], [contents]): by
   {!Codec.order_key}, which [compare_values] never contradicts, and
   within a run of equal keys by [compare_values] on the decoded
   entries. So the order is exactly [compare_values] order. *)
module Max_fold = struct
  type t = {
    enc : Buffer.t;  (** encodes a decoded tuple before it is staged *)
    mutable blob : bytes;
    mutable used : int;  (** bytes of [blob] in use; a tuple is staged past them *)
    mutable off : int array;  (** entry [i] is encoded at [blob.(off.(i))] *)
    mutable deg : float array;  (** its folded degree *)
    mutable key : float array;  (** its {!Codec.order_key} *)
    mutable n : int;
    mutable arity : int;  (** of every entry *)
    mutable slots : int array;
        (** the index, a power of two of slots, more than twice [n]: 0 for
            a free slot, else an entry + 1 in the low 31 bits and the low
            31 bits of its hash above them, so a probe reads one word *)
  }

  let create () =
    {
      enc = Buffer.create 64;
      blob = Bytes.empty;
      used = 0;
      off = [||];
      deg = [||];
      key = [||];
      n = 0;
      arity = 0;
      slots = Array.make 16 0;
    }

  (* Entries are contiguous in [blob], in entry order. *)
  let length t i = (if i + 1 < t.n then t.off.(i + 1) else t.used) - t.off.(i)
  let decode t i = Codec.decode_at t.blob t.off.(i)

  (* Room for [len] more bytes past the used ones. *)
  let reserve t len =
    if t.used + len > Bytes.length t.blob then begin
      let blob = Bytes.create (Int.max 1024 (2 * (t.used + len))) in
      Bytes.blit t.blob 0 blob 0 t.used;
      t.blob <- blob
    end

  (* Whether the [len] bytes staged at [blob.(used)] encode the values of
     entry [i]: the encodings agree except for the trailing 8-byte degree,
     or they differ but decode to [compare_values]-equal tuples. *)
  let same_values t i len =
    let o = t.off.(i) and pos = t.used in
    let k = ref 0 in
    if length t i = len then
      while !k < len - 8 && Bytes.get t.blob (o + !k) = Bytes.get t.blob (pos + !k) do
        incr k
      done;
    (length t i = len && !k >= len - 8)
    || Ftuple.compare_values (decode t i) (Codec.decode_at t.blob pos) = 0

  let grow_entries t =
    let cap = Int.max 16 (2 * t.n) in
    let extend a z =
      let b = Array.make cap z in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.off <- extend t.off 0;
    t.deg <- extend t.deg 0.0;
    t.key <- extend t.key 0.0

  let low31 = 0x7FFF_FFFF

  let grow_index t =
    let slots = Array.make (2 * Array.length t.slots) 0 in
    let mask = Array.length slots - 1 in
    Array.iter
      (fun v ->
        if v <> 0 then begin
          let s = ref ((v lsr 31) land mask) in
          while slots.(!s) <> 0 do
            s := (!s + 1) land mask
          done;
          slots.(!s) <- v
        end)
      t.slots;
    t.slots <- slots

  (* Fold the [len]-byte encoding staged at [blob.(used)]. *)
  let insert t len =
    let pos = t.used in
    let arity = Bytes.get_uint16_le t.blob pos in
    if t.n = 0 then t.arity <- arity
    else if arity <> t.arity then invalid_arg "Algebra.Max_fold.add: arity differs";
    let d = Int64.float_of_bits (Bytes.get_int64_le t.blob (pos + len - 8)) in
    let h = Codec.values_hash t.blob ~pos land low31 in
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let s = ref (h land mask) and found = ref (-1) in
    while !found < 0 && slots.(!s) <> 0 do
      let v = slots.(!s) in
      if v lsr 31 = h && same_values t ((v land low31) - 1) len then
        found := (v land low31) - 1
      else s := (!s + 1) land mask
    done;
    if !found >= 0 then t.deg.(!found) <- Degree.disj t.deg.(!found) d
    else begin
      if t.n = Array.length t.off then grow_entries t;
      let i = t.n in
      t.off.(i) <- pos;
      t.deg.(i) <- d;
      t.key.(i) <- Codec.order_key t.blob ~pos;
      t.used <- pos + len;
      t.n <- i + 1;
      slots.(!s) <- (h lsl 31) lor (i + 1);
      if 2 * t.n >= Array.length slots then grow_index t
    end

  let add t tup =
    Buffer.clear t.enc;
    Codec.encode_into t.enc tup;
    let len = Buffer.length t.enc in
    reserve t len;
    Buffer.blit t.enc 0 t.blob t.used len;
    insert t len

  let add_record t buf ~pos select d =
    let len = Codec.projected_size buf ~pos select in
    reserve t len;
    Codec.project_at buf ~pos select d t.blob t.used;
    insert t len

  (* The entries [0 .. n-1] stably sorted by [key], as a least
     significant digit radix sort, a byte per pass, over each key's bits
     mapped so that unsigned order is float order (-0.0 is read as 0.0,
     which it equals). A pass whose byte is the same for every key is
     skipped: small integers as floats differ only in their high bytes.
     Answers arrive in sweep order, not key order, so a comparison sort
     here mispredicts about every other comparison. *)
  let sort_by_key key n =
    let bits = Bytes.create (8 * n) in
    for e = 0 to n - 1 do
      let b = Int64.bits_of_float (key.(e) +. 0.0) in
      Bytes.set_int64_le bits (8 * e)
        (if Int64.compare b 0L < 0 then Int64.lognot b else Int64.logxor b Int64.min_int)
    done;
    let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
    let count = Array.make 257 0 in
    for byte = 0 to 7 do
      Array.fill count 0 257 0;
      for e = 0 to n - 1 do
        let d = Bytes.get_uint8 bits ((8 * e) + byte) + 1 in
        count.(d) <- count.(d) + 1
      done;
      if not (Array.exists (fun c -> c = n) count) then begin
        for d = 1 to 256 do
          count.(d) <- count.(d) + count.(d - 1)
        done;
        let s = !src and t = !dst in
        for i = 0 to n - 1 do
          let e = s.(i) in
          let d = Bytes.get_uint8 bits ((8 * e) + byte) in
          t.(count.(d)) <- e;
          count.(d) <- count.(d) + 1
        done;
        src := t;
        dst := s
      end
    done;
    !src

  let order t =
    let n = t.n and key = t.key in
    let perm = sort_by_key key n in
    let k = ref 0 in
    while !k < n do
      let first = !k in
      incr k;
      while !k < n && key.(perm.(!k)) = key.(perm.(first)) do
        incr k
      done;
      if !k - first > 1 then begin
        let run =
          Array.init (!k - first) (fun j ->
              let e = perm.(first + j) in
              (e, decode t e))
        in
        Array.stable_sort (fun (_, x) (_, y) -> Ftuple.compare_values x y) run;
        Array.iteri (fun j (e, _) -> perm.(first + j) <- e) run
      end
    done;
    perm

  let contents t =
    Array.map (fun i -> Ftuple.with_degree (decode t i) t.deg.(i)) (order t)

  let to_relation ?name t env schema =
    let schema =
      match name with Some n -> Schema.with_name schema n | None -> schema
    in
    let out = Relation.create env schema in
    let perm = order t in
    (* Each encoding is written as it is, its degree field set to the
       folded degree first: no re-encode, and a page per pool write. *)
    let offs = Array.make t.n 0 and lens = Array.make t.n 0 in
    for k = 0 to t.n - 1 do
      let i = perm.(k) in
      let off = t.off.(i) and len = length t i in
      Bytes.set_int64_le t.blob (off + len - 8) (Int64.bits_of_float t.deg.(i));
      offs.(k) <- off;
      lens.(k) <- len
    done;
    Storage.Heap_file.append_many (Relation.file out)
      (Array.make t.n t.blob) offs lens t.n;
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

open Fuzzy

(* Tuple encoding:
     u16 value-count
     values: tag u8 followed by
       0: int          (i64 LE)
       1: string       (u16 length + bytes)
       2: crisp float  (f64)
       3: trapezoid    (4 x f64)
       4: discrete     (u16 n + n x (f64 value, f64 degree))
     f64 degree
     padding (zeros), implicit: decode stops after the degree field. *)

let buf_add_u16 b v =
  Buffer.add_uint8 b (v land 0xff);
  Buffer.add_uint8 b ((v lsr 8) land 0xff)

let buf_add_f64 b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let add_value b = function
  | Value.Int i ->
      Buffer.add_uint8 b 0;
      Buffer.add_int64_le b (Int64.of_int i)
  | Value.Str s ->
      Buffer.add_uint8 b 1;
      buf_add_u16 b (String.length s);
      Buffer.add_string b s
  | Value.Fuzzy p -> (
      match p with
      | Possibility.Trap tr when Trapezoid.is_crisp tr ->
          Buffer.add_uint8 b 2;
          buf_add_f64 b (Interval.lo (Trapezoid.support tr))
      | Possibility.Trap tr ->
          Buffer.add_uint8 b 3;
          buf_add_f64 b (Interval.lo (Trapezoid.support tr));
          buf_add_f64 b (Interval.lo (Trapezoid.core tr));
          buf_add_f64 b (Interval.hi (Trapezoid.core tr));
          buf_add_f64 b (Interval.hi (Trapezoid.support tr))
      | Possibility.Discrete pts ->
          Buffer.add_uint8 b 4;
          buf_add_u16 b (List.length pts);
          List.iter
            (fun (v, d) ->
              buf_add_f64 b v;
              buf_add_f64 b d)
            pts)

let encode_into b t =
  buf_add_u16 b (Array.length t.Ftuple.values);
  Array.iter (add_value b) t.Ftuple.values;
  buf_add_f64 b t.Ftuple.degree

let encode ?pad_to t =
  let b = Buffer.create 64 in
  encode_into b t;
  let natural = Buffer.length b in
  (match pad_to with
  | Some target when target < natural ->
      invalid_arg
        (Printf.sprintf "Codec.encode: tuple needs %d bytes, pad_to=%d" natural
           target)
  | Some target -> Buffer.add_string b (String.make (target - natural) '\000')
  | None -> ());
  Buffer.to_bytes b

let encoded_size t = Bytes.length (encode t)

let get_u16 buf off = Bytes.get_uint16_le buf off
let get_f64 buf off = Int64.float_of_bits (Bytes.get_int64_le buf off)
let bad_tag t = invalid_arg (Printf.sprintf "Codec.decode: bad tag %d" t)

(* The encoded size of a value by tag where it is fixed (0 for the
   variable-size tags 1 and 4): a table read rather than a branch on the
   tag, which mixed crisp and trapezoid columns would mispredict. *)
let fixed_size = "\009\000\009\033\000"

(* Offset just past the value whose tag is at [off]. *)
let skip_value buf off =
  let t = Bytes.get_uint8 buf off in
  if t > 4 then bad_tag t;
  let s = Char.code (String.unsafe_get fixed_size t) in
  if s > 0 then off + s
  else if t = 1 then off + 3 + get_u16 buf (off + 1)
  else off + 3 + (16 * get_u16 buf (off + 1))

let value_at buf off =
  match Bytes.get_uint8 buf off with
  | 0 -> Value.Int (Int64.to_int (Bytes.get_int64_le buf (off + 1)))
  | 1 -> Value.Str (Bytes.sub_string buf (off + 3) (get_u16 buf (off + 1)))
  | 2 -> Value.Fuzzy (Possibility.crisp (get_f64 buf (off + 1)))
  | 3 ->
      Value.Fuzzy
        (Possibility.trap
           (Trapezoid.make (get_f64 buf (off + 1)) (get_f64 buf (off + 9))
              (get_f64 buf (off + 17)) (get_f64 buf (off + 25))))
  | 4 ->
      let rec pts k acc =
        if k < 0 then acc
        else
          let p = off + 3 + (16 * k) in
          pts (k - 1) ((get_f64 buf p, get_f64 buf (p + 8)) :: acc)
      in
      Value.Fuzzy (Possibility.discrete (pts (get_u16 buf (off + 1) - 1) []))
  | t -> bad_tag t

(* The cursor is a local ref no closure captures, so it stays in a
   register: a decode allocates the tuple and nothing else. *)
let decode_at buf pos =
  let n = get_u16 buf pos in
  let values = Array.make n (Value.Int 0) in
  let off = ref (pos + 2) in
  for i = 0 to n - 1 do
    values.(i) <- value_at buf !off;
    off := skip_value buf !off
  done;
  Ftuple.make values (get_f64 buf !off)

let decode buf = decode_at buf 0

(* Offset of the tag of value [attr] (in range) of the record at [pos]:
   the values before it are skipped by their tags and lengths. *)
let offset_of buf pos attr =
  let off = ref (pos + 2) in
  for _ = 1 to attr do
    off := skip_value buf !off
  done;
  !off

let value_offset buf ~pos attr =
  if attr < 0 || attr >= get_u16 buf pos then
    invalid_arg "Codec.value_offset: attribute out of range";
  offset_of buf pos attr

let degree_into buf ~pos deg i =
  deg.(i) <- get_f64 buf (offset_of buf pos (get_u16 buf pos))

(* For a crisp number (tag 2) or a trapezoid (tag 3), the distance
   between the encoded abscissae: 0 for a crisp number, whose one float
   is all four, and 8 for a trapezoid. Either reads a at [off + 1] and d
   at [off + 1 + 3 * stride] with no branch on the tag. *)
let[@inline] stride t = (t - 2) lsl 3

(* [Interval.make]'s checks, with the bounds stored into columns. *)
let[@inline] set_support lo hi i a b =
  if Float.is_nan a || Float.is_nan b then invalid_arg "Interval.make: NaN bound";
  if a > b then invalid_arg "Interval.make: lo > hi";
  Array.unsafe_set lo i a;
  Array.unsafe_set hi i b

(* The support of the discrete value whose tag is at [off], as
   [Possibility.discrete] then [Possibility.support] compute it; with
   [~check], raising where [Possibility.discrete] would. *)
let discrete_support ~check buf off lo hi i =
  let l = ref infinity and h = ref neg_infinity in
  for k = 0 to get_u16 buf (off + 1) - 1 do
    let p = off + 3 + (16 * k) in
    let v = get_f64 buf p and d = get_f64 buf (p + 8) in
    if check && (Float.is_nan v || not (Degree.is_valid d)) then
      invalid_arg "Possibility.discrete: invalid point";
    (* [Possibility.discrete] keeps only the positive-degree points. *)
    if d > 0.0 then begin
      l := Float.min !l v;
      h := Float.max !h v
    end
  done;
  if check && !l > !h then
    invalid_arg "Possibility.discrete: no point with positive degree";
  set_support lo hi i !l !h

(* The support of value [attr], read in place: the bounds go straight
   into the caller's columns (no interval is built). Each branch computes
   exactly what [decode] followed by [Value.support] computes for records
   [encode] wrote. *)
let support_into buf ~pos attr ~lo ~hi i =
  if attr < 0 || attr >= get_u16 buf pos || i < 0 || i >= Array.length lo
     || i >= Array.length hi
  then invalid_arg "Codec.support_into: attribute or row out of range";
  let off = offset_of buf pos attr in
  match Bytes.get_uint8 buf off with
  | (2 | 3) as t ->
      let s = stride t in
      set_support lo hi i (get_f64 buf (off + 1)) (get_f64 buf (off + 1 + (3 * s)))
  | 0 ->
      let v = float_of_int (Int64.to_int (Bytes.get_int64_le buf (off + 1))) in
      set_support lo hi i v v
  | 1 ->
      let s = Bytes.sub_string buf (off + 3) (get_u16 buf (off + 1)) in
      let v = float_of_int (Hashtbl.hash s) in
      set_support lo hi i v v
  | 4 -> discrete_support ~check:false buf off lo hi i
  | t -> invalid_arg (Printf.sprintf "Codec.support_into: bad tag %d" t)

(* [Trapezoid.make]'s checks (a NaN fails the order test too, and
   [Trapezoid.make] then raises its own error), with the abscissae stored
   into columns. *)
let[@inline] set_trap ~lo ~hi ~ta ~tb ~tc ~td i a b c d =
  if not (a <= b && b <= c && c <= d) then ignore (Trapezoid.make a b c d);
  Array.unsafe_set lo i a;
  Array.unsafe_set hi i d;
  Array.unsafe_set ta i a;
  Array.unsafe_set tb i b;
  Array.unsafe_set tc i c;
  Array.unsafe_set td i d

let trapezoid_into buf off ~lo ~hi ~ta ~tb ~tc ~td i =
  if i < 0 || i >= Array.length lo || i >= Array.length hi || i >= Array.length ta
     || i >= Array.length tb || i >= Array.length tc || i >= Array.length td
  then invalid_arg "Codec.trapezoid_into: row out of range";
  match Bytes.get_uint8 buf off with
  | (2 | 3) as t ->
      let s = stride t and p = off + 1 in
      set_trap ~lo ~hi ~ta ~tb ~tc ~td i (get_f64 buf p) (get_f64 buf (p + s))
        (get_f64 buf (p + (2 * s))) (get_f64 buf (p + (3 * s)));
      true
  | 0 ->
      let v = float_of_int (Int64.to_int (Bytes.get_int64_le buf (off + 1))) in
      set_trap ~lo ~hi ~ta ~tb ~tc ~td i v v v v;
      true
  | 1 ->
      let s = Bytes.sub_string buf (off + 3) (get_u16 buf (off + 1)) in
      let v = float_of_int (Hashtbl.hash s) in
      set_support lo hi i v v;
      false
  | 4 ->
      discrete_support ~check:true buf off lo hi i;
      false
  | t -> bad_tag t

(* Hashing and ordering encodings as [Ftuple.compare_values] compares the
   values they hold. A number hashes by its float value, so [Int 3], a
   crisp [3.0] and a one-point [DIST(3:1)] collide, and -0.0 hashes as
   0.0. *)

let[@inline] mix h =
  let h = (h lxor (h lsr 31)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let[@inline] float_hash (x : float) =
  mix (if x = 0.0 then 0 else Int64.to_int (Int64.bits_of_float x))

let string_hash buf off len =
  let h = ref len in
  for k = off to off + len - 1 do
    h := (31 * !h) + Bytes.get_uint8 buf k
  done;
  mix !h

(* Whether the discrete value whose tag is at [off] is one point at
   degree 1: the crisp number [Value.compare_structural] reads it as. *)
let[@inline] one_point buf off =
  get_u16 buf (off + 1) = 1 && get_f64 buf (off + 11) = 1.0

let value_hash buf off =
  match Bytes.get_uint8 buf off with
  | 0 -> float_hash (float_of_int (Int64.to_int (Bytes.get_int64_le buf (off + 1))))
  | 1 -> string_hash buf (off + 3) (get_u16 buf (off + 1))
  | 2 -> float_hash (get_f64 buf (off + 1))
  | 3 ->
      let a = get_f64 buf (off + 1) and d = get_f64 buf (off + 25) in
      if a = d then float_hash a
      else
        mix
          (float_hash a
          + (3 * float_hash (get_f64 buf (off + 9)))
          + (5 * float_hash (get_f64 buf (off + 17)))
          + (7 * float_hash d))
  | 4 when one_point buf off -> float_hash (get_f64 buf (off + 3))
  | 4 ->
      let h = ref 1 in
      for k = 0 to get_u16 buf (off + 1) - 1 do
        let p = off + 3 + (16 * k) in
        h := mix (!h + float_hash (get_f64 buf p) + (3 * float_hash (get_f64 buf (p + 8))))
      done;
      !h
  | t -> bad_tag t

let values_hash buf ~pos =
  let n = get_u16 buf pos in
  let h = ref n and off = ref (pos + 2) in
  for _ = 1 to n do
    h := mix (!h + value_hash buf !off);
    off := skip_value buf !off
  done;
  !h

let order_key buf ~pos =
  if get_u16 buf pos = 0 then 0.0
  else
    let off = pos + 2 in
    match Bytes.get_uint8 buf off with
    | 0 -> float_of_int (Int64.to_int (Bytes.get_int64_le buf (off + 1)))
    | 1 -> neg_infinity
    | 2 | 3 -> get_f64 buf (off + 1)
    | 4 when one_point buf off -> get_f64 buf (off + 3)
    | 4 -> infinity
    | t -> bad_tag t

let projected_size buf ~pos select =
  let size = ref 10 in
  for k = 0 to Array.length select - 1 do
    let off = value_offset buf ~pos select.(k) in
    size := !size + (skip_value buf off - off)
  done;
  !size

let project_at buf ~pos select d dst at =
  Bytes.set_uint16_le dst at (Array.length select);
  let o = ref (at + 2) in
  for k = 0 to Array.length select - 1 do
    let off = value_offset buf ~pos select.(k) in
    let len = skip_value buf off - off in
    Bytes.blit buf off dst !o len;
    o := !o + len
  done;
  Bytes.set_int64_le dst !o (Int64.bits_of_float d)

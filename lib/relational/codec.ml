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

let get_u16 buf off = Bytes.get_uint8 buf off lor (Bytes.get_uint8 buf (off + 1) lsl 8)
let get_f64 buf off = Int64.float_of_bits (Bytes.get_int64_le buf off)

(* Offset just past the value whose tag is at [off]. *)
let skip_value buf off =
  match Bytes.get_uint8 buf off with
  | 0 | 2 -> off + 9
  | 1 -> off + 3 + get_u16 buf (off + 1)
  | 3 -> off + 33
  | 4 -> off + 3 + (16 * get_u16 buf (off + 1))
  | t -> invalid_arg (Printf.sprintf "Codec.decode: bad tag %d" t)

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
  | t -> invalid_arg (Printf.sprintf "Codec.decode: bad tag %d" t)

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

(* [Interval.make]'s checks, with the bounds stored into columns. *)
let[@inline] set_support lo hi i a b =
  if Float.is_nan a || Float.is_nan b then invalid_arg "Interval.make: NaN bound";
  if a > b then invalid_arg "Interval.make: lo > hi";
  Array.unsafe_set lo i a;
  Array.unsafe_set hi i b

(* The support of value [attr], read in place: the values before it are
   skipped by their tags and lengths, and the bounds go straight into the
   caller's columns (no interval is built). Each branch computes exactly
   what [decode] followed by [Value.support] computes for records
   [encode] wrote. *)
let support_into buf ~pos attr ~lo ~hi i =
  if attr < 0 || attr >= get_u16 buf pos || i < 0 || i >= Array.length lo
     || i >= Array.length hi
  then invalid_arg "Codec.support_into: attribute or row out of range";
  let off = ref (pos + 2) in
  for _ = 1 to attr do
    off := skip_value buf !off
  done;
  let off = !off in
  match Bytes.get_uint8 buf off with
  | 0 ->
      let v = float_of_int (Int64.to_int (Bytes.get_int64_le buf (off + 1))) in
      set_support lo hi i v v
  | 1 ->
      let s = Bytes.sub_string buf (off + 3) (get_u16 buf (off + 1)) in
      let v = float_of_int (Hashtbl.hash s) in
      set_support lo hi i v v
  | 2 ->
      let v = get_f64 buf (off + 1) in
      set_support lo hi i v v
  | 3 -> set_support lo hi i (get_f64 buf (off + 1)) (get_f64 buf (off + 25))
  | 4 ->
      (* [Possibility.discrete] keeps only the positive-degree points. *)
      let l = ref infinity and h = ref neg_infinity in
      for k = 0 to get_u16 buf (off + 1) - 1 do
        let p = off + 3 + (16 * k) in
        if get_f64 buf (p + 8) > 0.0 then begin
          let v = get_f64 buf p in
          l := Float.min !l v;
          h := Float.max !h v
        end
      done;
      set_support lo hi i !l !h
  | t -> invalid_arg (Printf.sprintf "Codec.support_into: bad tag %d" t)

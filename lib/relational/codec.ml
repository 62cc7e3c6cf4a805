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

let decode_at buf pos =
  let off = ref pos in
  let u16 () =
    let v = get_u16 buf !off in
    off := !off + 2;
    v
  in
  let f64 () =
    let v = get_f64 buf !off in
    off := !off + 8;
    v
  in
  let value () =
    let tag = Bytes.get_uint8 buf !off in
    incr off;
    match tag with
    | 0 ->
        let v = Bytes.get_int64_le buf !off in
        off := !off + 8;
        Value.Int (Int64.to_int v)
    | 1 ->
        let len = u16 () in
        let s = Bytes.sub_string buf !off len in
        off := !off + len;
        Value.Str s
    | 2 -> Value.Fuzzy (Possibility.crisp (f64 ()))
    | 3 ->
        let a = f64 () in
        let b = f64 () in
        let c = f64 () in
        let d = f64 () in
        Value.Fuzzy (Possibility.trap (Trapezoid.make a b c d))
    | 4 ->
        let n = u16 () in
        let rec pts i acc =
          if i >= n then List.rev acc
          else
            let v = f64 () in
            let d = f64 () in
            pts (i + 1) ((v, d) :: acc)
        in
        Value.Fuzzy (Possibility.discrete (pts 0 []))
    | t -> invalid_arg (Printf.sprintf "Codec.decode: bad tag %d" t)
  in
  let n = u16 () in
  let values = Array.make n (Value.Int 0) in
  for i = 0 to n - 1 do
    values.(i) <- value ()
  done;
  let degree = f64 () in
  Ftuple.make values degree

let decode buf = decode_at buf 0

(* The support of value [attr], read in place: the values before it are
   skipped by their tags and lengths, and nothing but the interval is
   built. Each branch computes exactly what [decode] followed by
   [Value.support] computes for records [encode] wrote. *)
let support_at_pos buf ~pos attr =
  let rec skip off i =
    if i = 0 then off
    else
      let off' =
        match Bytes.get_uint8 buf off with
        | 0 -> off + 9
        | 1 -> off + 3 + get_u16 buf (off + 1)
        | 2 -> off + 9
        | 3 -> off + 33
        | 4 -> off + 3 + (16 * get_u16 buf (off + 1))
        | t -> invalid_arg (Printf.sprintf "Codec.support_at: bad tag %d" t)
      in
      skip off' (i - 1)
  in
  if attr < 0 || attr >= get_u16 buf pos then
    invalid_arg "Codec.support_at: attribute out of range";
  let off = skip (pos + 2) attr in
  match Bytes.get_uint8 buf off with
  | 0 ->
      Interval.point
        (float_of_int (Int64.to_int (Bytes.get_int64_le buf (off + 1))))
  | 1 ->
      let s = Bytes.sub_string buf (off + 3) (get_u16 buf (off + 1)) in
      Interval.point (float_of_int (Hashtbl.hash s))
  | 2 -> Interval.point (get_f64 buf (off + 1))
  | 3 -> Interval.make (get_f64 buf (off + 1)) (get_f64 buf (off + 25))
  | 4 ->
      (* [Possibility.discrete] keeps only the positive-degree points. *)
      let lo = ref infinity and hi = ref neg_infinity in
      for k = 0 to get_u16 buf (off + 1) - 1 do
        let p = off + 3 + (16 * k) in
        if get_f64 buf (p + 8) > 0.0 then begin
          let v = get_f64 buf p in
          lo := Float.min !lo v;
          hi := Float.max !hi v
        end
      done;
      Interval.make !lo !hi
  | t -> invalid_arg (Printf.sprintf "Codec.support_at: bad tag %d" t)

let support_at buf attr = support_at_pos buf ~pos:0 attr

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8
   (Kounavis & Berry, ISCC 2005). Guards every persisted page trailer and
   WAL record; any single-byte corruption of a protected region changes
   the digest.

   [table] holds eight 256-entry slices in one array: slice 0 is the
   classic bytewise table, and slice [k] maps a byte to its CRC after [k]
   more zero bytes, so one step folds 8 input bytes with 8 lookups. The
   running CRC is a native int in [0, 2^32); the digests are the bytewise
   definition's, bit for bit. *)

let poly = 0xEDB88320

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let word buf i = Int32.to_int (Bytes.get_int32_le buf i) land 0xffff_ffff

let update crc buf ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Crc32.update";
  let c = ref (lnot (Int32.to_int crc) land 0xffff_ffff) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = word buf !i lxor !c and hi = word buf (!i + 4) in
    c :=
      table.((7 * 256) + (lo land 0xff))
      lxor table.((6 * 256) + ((lo lsr 8) land 0xff))
      lxor table.((5 * 256) + ((lo lsr 16) land 0xff))
      lxor table.((4 * 256) + (lo lsr 24))
      lxor table.((3 * 256) + (hi land 0xff))
      lxor table.((2 * 256) + ((hi lsr 8) land 0xff))
      lxor table.(256 + ((hi lsr 16) land 0xff))
      lxor table.(hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := table.((!c lxor Bytes.get_uint8 buf j) land 0xff) lxor (!c lsr 8)
  done;
  Int32.of_int (lnot !c land 0xffff_ffff)

let digest buf ~pos ~len = update 0l buf ~pos ~len
let bytes buf = digest buf ~pos:0 ~len:(Bytes.length buf)
let string s = bytes (Bytes.unsafe_of_string s)

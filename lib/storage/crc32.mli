(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320]).

    Used for the page trailers of {!Real_disk} and the record checksums of
    {!Wal}. Any single-byte corruption of the protected region changes the
    digest, which is what the corruption-detection qcheck property relies
    on.

    The kernel is slicing-by-8 (Kounavis and Berry, ISCC 2005) over native
    ints: eight 256-entry tables, slice [k] giving a byte's CRC after [k]
    further zero bytes, so each step loads two little-endian 32-bit words
    and folds 8 bytes with 8 lookups; a bytewise loop takes the last
    [len mod 8] bytes. Every digest equals the bytewise definition's (one
    lookup per byte in slice 0), bit for bit, so data-file trailers and WAL
    frames are unchanged; [storage.crc32] checks it against that definition
    kept as a test oracle. *)

val update : int32 -> bytes -> pos:int -> len:int -> int32
(** Fold more bytes into a running digest (start from [0l]). Raises
    [Invalid_argument] if the slice is out of bounds. *)

val digest : bytes -> pos:int -> len:int -> int32
val bytes : bytes -> int32
val string : string -> int32

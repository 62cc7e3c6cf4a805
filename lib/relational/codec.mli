(** Binary serialization of fuzzy tuples for heap-file storage.

    Ill-known data needs more storage than crisp data (a motivation the paper
    gives for why I/O matters more in fuzzy databases): a trapezoid costs
    four doubles where a crisp number costs one. [pad_to] reproduces the
    fixed tuple sizes (128-2048 bytes) of the experiments by padding the
    encoding with zero bytes. *)

val encode : ?pad_to:int -> Ftuple.t -> bytes
(** Raises [Invalid_argument] if the natural encoding exceeds [pad_to]. *)

val decode : bytes -> Ftuple.t

val encode_into : Buffer.t -> Ftuple.t -> unit
(** Append the unpadded encoding ([encode ?pad_to:None]); its last 8
    bytes are the degree. *)

val decode_at : bytes -> int -> Ftuple.t
(** [decode_at buf pos] decodes the tuple encoded at offset [pos]. *)

val encoded_size : Ftuple.t -> int
(** Size of [encode ?pad_to:None]. *)

val support_into :
  bytes -> pos:int -> int -> lo:float array -> hi:float array -> int -> unit
(** [support_into buf ~pos attr ~lo ~hi i] stores the support of value
    [attr] of the record encoded at offset [pos] of [buf] (a record in
    place on its page) into [lo.(i)] and [hi.(i)]: the bounds of
    [Value.support (Ftuple.value (decode_at buf pos) attr)], bit for bit,
    for every record {!encode} produces. The values before [attr] are
    skipped and nothing is allocated for a numeric value. The merge-join's
    sort reads its key with it. Raises [Invalid_argument] if [attr] or [i]
    is out of range, or where [Interval.make] would. *)

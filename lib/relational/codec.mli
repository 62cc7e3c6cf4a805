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

val projected_size : bytes -> pos:int -> int array -> int
(** [projected_size buf ~pos select]: the size of {!project_at}'s
    encoding. *)

val project_at : bytes -> pos:int -> int array -> float -> bytes -> int -> unit
(** [project_at buf ~pos select d dst at] writes at [dst.(at)]
    {!encode_into}'s encoding of the record at [pos] of [buf] projected
    onto the positions [select] (in that order), with degree [d], in
    [projected_size buf ~pos select] bytes: each kept value's bytes are
    copied as they are, none is decoded. Raises [Invalid_argument] if a
    position is out of range or [dst] is too short. *)

val decode_at : bytes -> int -> Ftuple.t
(** [decode_at buf pos] decodes the tuple encoded at offset [pos]. *)

val encoded_size : Ftuple.t -> int
(** Size of [encode ?pad_to:None]. *)

val value_offset : bytes -> pos:int -> int -> int
(** [value_offset buf ~pos attr]: the offset of the tag of value [attr] of
    the record encoded at [pos] of [buf], found by skipping the values
    before it by their tags and lengths. Raises [Invalid_argument] if
    [attr] is out of range. *)

val value_at : bytes -> int -> Value.t
(** [value_at buf off] decodes the value whose tag is at [off]:
    [Ftuple.value (decode_at buf pos) attr] for
    [off = value_offset buf ~pos attr]. *)

val degree_into : bytes -> pos:int -> float array -> int -> unit
(** [degree_into buf ~pos deg i] stores the degree of the record encoded
    at [pos], read past its values, into [deg.(i)] (no float is boxed).
    Raises [Invalid_argument] if [i] is out of range. *)

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

val trapezoid_into :
  bytes -> int -> lo:float array -> hi:float array -> ta:float array ->
  tb:float array -> tc:float array -> td:float array -> int -> bool
(** [trapezoid_into buf off ~lo ~hi ~ta ~tb ~tc ~td i] reads the value
    whose tag is at [off] into row [i] of the columns, with no value
    built: [lo]/[hi] get its support as {!Value.support} gives it, and
    for a value with a trapezoid form (an [Int] as a crisp point, a crisp
    number or a trapezoid) [ta]..[td] get its abscissae and the result is
    [true]. A string or a discrete distribution leaves [ta]..[td] alone
    and returns [false]. Raises [Invalid_argument] if [i] is out of range,
    or with [Trapezoid.make]'s or [Possibility.discrete]'s error where
    decoding the value would. *)

val values_hash : bytes -> pos:int -> int
(** A hash of the values of the record encoded at [pos] (its degree
    aside) that agrees with {!Ftuple.compare_values}: records whose
    values compare equal hash alike. A number hashes by its float value,
    so [Int 3], a crisp [3.0] and a one-point [DIST(3:1)] collide, and
    -0.0 hashes as 0.0. *)

val order_key : bytes -> pos:int -> float
(** A float key of the record's first value that {!Ftuple.compare_values}
    never contradicts among records of one arity: strings first
    ([neg_infinity]), numbers by their lowest support point (a one-point
    distribution at degree 1 by the number it holds), other discrete
    distributions last ([infinity]); 0 for an empty record. *)

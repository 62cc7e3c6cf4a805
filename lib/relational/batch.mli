(** Columnar batches for the merge-join engine.

    A batch is a run of records left encoded where they sit on their pages
    ({!Storage.External_sort.views}: page, offset), with their membership
    degrees in an unboxed [float array] and, per referenced attribute, a
    lazily-extracted {e column}: the support bounds [lo, hi] that drive the
    ⪯-ordered window sweep and the four trapezoid abscissae [(a, b, c, d)],
    all as unboxed float arrays, plus an [ok] mask flagging the rows whose
    value is representable as a trapezoid ([Int] as a crisp point, crisp
    numbers and trapezoids verbatim). Rows with [ok] unset (strings,
    discrete distributions) keep their support bounds — so windowing is
    the same for every value kind — and fall back to the boxed
    {!Value.compare_degree} for degree arithmetic.

    Nothing is decoded to build a batch: the degrees and each column are
    read straight from the record bytes ({!Codec.degree_at},
    {!Codec.trapezoid_into}), with the checks decoding would make, so a
    malformed value in a column raises [Trapezoid.make]'s or
    [Possibility.discrete]'s error as decoding it would. A value is
    decoded only when a consumer asks for it ({!value}), and a whole row
    at most once per batch ({!row}).

    Columns are extracted once per (batch, attribute) and memoized; the
    kernels in {!Batch_kernels} then run branch-light array passes over
    them. A batch's rows never change once it is built: the sweep's sliding
    inner buffer makes a fresh batch per refill ({!carry}), so a handler
    may key a cache on a batch's physical identity. Batches are
    single-domain values. *)

val batch_rows : int
(** Processing granularity of the sweep (128): the most rows an outer
    chunk or an inner read-ahead holds; cancellation is polled and trace
    spans are attributed once per outer chunk. Small enough that a chunk's
    columns are minor-heap allocations. *)

type col = {
  ok : Bytes.t;  (** ['\001'] where the trapezoid columns are valid *)
  lo : float array;  (** support start [b(v)] — Section 3's sort key *)
  hi : float array;  (** support end [e(v)] *)
  ta : float array;
  tb : float array;
  tc : float array;
  td : float array;
      (** trapezoid abscissae, valid where [ok]; [ta] is [lo] and [td] is
          [hi] (one array each), and [tb], [tc] are 0 where not [ok] *)
}

type t

val of_views : Storage.External_sort.views -> t
(** The records of a chunk, in order; reads their degrees. *)

val empty : unit -> t
(** A fresh batch of no rows. *)

val carry : t -> idx:int array -> n:int -> Storage.External_sort.views -> t
(** [carry t ~idx ~n v] is a new batch holding rows [idx.(0 .. n-1)] of
    [t], in that order, followed by the records of [v]. Every column
    already extracted on [t] is carried over (kept entries copied, new
    rows read), as are the kept rows' degrees and decoded rows. The
    sweep's inner buffer uses it to drop the rows its window has evicted
    when it reads ahead. *)

val length : t -> int

val page : t -> int -> bytes
val pos : t -> int -> int
(** Row [i] is the record encoded at [pos t i] of [page t i]. *)

val degrees : t -> float array
(** The membership-degree column; aliases the batch's storage. *)

val value : t -> int -> int -> Value.t
(** [value t i attr]: row [i]'s value of [attr], decoded on demand
    ([Ftuple.value (row t i) attr], without decoding the rest of the
    row). *)

val row : t -> int -> Ftuple.t
(** Row [i] decoded; decoded once per batch, then kept. *)

val col : t -> int -> col
(** [col t attr]: the memoized column of attribute [attr]. *)

val ok : col -> int -> bool
(** Whether row [i]'s value has valid trapezoid columns. *)

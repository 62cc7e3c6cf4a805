(** Columnar batches for the merge-join engine.

    A batch holds a run of decoded tuples together with their membership
    degrees in an unboxed [float array] and, per referenced attribute, a
    lazily-extracted {e column}: the support bounds [lo, hi] that drive the
    ⪯-ordered window sweep and the four trapezoid abscissae [(a, b, c, d)],
    all as unboxed float arrays, plus an [ok] mask flagging the rows whose
    value is representable as a trapezoid ([Int] as a crisp point,
    [Fuzzy (Trap _)] verbatim). Rows with [ok] unset (strings, discrete
    distributions) keep their support bounds — so windowing is the same for
    every value kind — and fall back to the boxed {!Value.compare_degree}
    for degree arithmetic.

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
    columns are minor-heap allocations and few of its decoded rows are
    still live when a minor collection promotes them. *)

type col = {
  ok : Bytes.t;  (** ['\001'] where the trapezoid columns are valid *)
  lo : float array;  (** support start [b(v)] — Section 3's sort key *)
  hi : float array;  (** support end [e(v)] *)
  ta : float array;
  tb : float array;
  tc : float array;
  td : float array;  (** trapezoid abscissae where [ok], else 0 *)
}

type t

val of_rows : Ftuple.t array -> t
(** Wrap already-decoded rows. *)

val carry : t -> idx:int array -> n:int -> Ftuple.t array -> t
(** [carry t ~idx ~n rows] is a new batch holding rows [idx.(0 .. n-1)] of
    [t], in that order, followed by [rows]. Every column already extracted
    on [t] is carried over (kept entries copied, new rows extracted). The
    sweep's inner buffer uses it to drop the rows its window has evicted
    when it reads ahead. *)

val length : t -> int
val row : t -> int -> Ftuple.t
(** The decoded row (no re-decode: rows are kept alongside the columns for
    boxed fallbacks and handler output). *)

val degrees : t -> float array
(** The membership-degree column; aliases the batch's storage. *)

val col : t -> int -> col
(** [col t attr]: the memoized column of attribute [attr]. *)

val ok : col -> int -> bool
(** Whether row [i]'s value has valid trapezoid columns. *)

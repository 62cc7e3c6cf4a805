(** LRU buffer pool over a storage backend.

    The paper gives both methods a 2 MB buffer (256 pages of 8 KB). Reads go
    through the pool: a hit costs no I/O, a miss reads the page from disk and
    evicts the least-recently-used frame (writing it back if dirty).

    On a durable backend the pool also enforces the WAL rule: each frame
    carries the LSN of the last log record that touched it (stamped via
    {!with_write}'s [?lsn]), and a dirty logged frame is written back only
    after {!Wal.ensure_committed} has made a covering commit point durable.
    Combined with redo-to-last-commit recovery, the data file never holds
    effects from beyond a commit point. *)

type t

val create : ?wal:Wal.t -> Disk.t -> capacity:int -> t
(** [capacity] in pages; must be >= 1 ([Invalid_argument] otherwise).
    Pass [?wal] on durable environments so write-backs obey the WAL
    rule; without it, [?lsn] stamps are kept but nothing is forced. *)

val capacity : t -> int
val disk : t -> Disk.t
val wal : t -> Wal.t option

val read : t -> int -> bytes
(** The cached frame (do not mutate; use {!with_write} to modify).
    Reads and write-backs through the pool propagate {!Fault.Injected}
    from the underlying disk; a failed load leaves the pool unchanged
    (the frame is only inserted after a successful disk read). *)

val install_fresh : t -> int -> unit
(** [install_fresh t page] caches a zeroed, clean frame for a page that
    {!Disk.alloc} has just returned (so it is zeroes on disk too),
    without reading it: the first write to a new page costs no I/O. A
    frame already cached under that id — the previous owner's, if the id
    was freed and reallocated — is zeroed in place and marked clean, so
    its old bytes are never written back. Otherwise it may evict like a
    miss. *)

val with_write : ?lsn:int -> t -> int -> (bytes -> unit) -> unit
(** Mutate the page through the pool and mark the frame dirty. [?lsn]
    is the WAL position of the record describing this mutation; the
    frame's page-LSN becomes the max of all stamps and rides along on
    write-back (into the durable page trailer). *)

val flush : t -> unit
(** Write back all dirty frames (each obeying the WAL rule). *)

val reset_lsns : t -> unit
(** Zero the page-LSN of every clean frame. Called after a checkpoint,
    whose log rewrite invalidates old LSNs; the pool must be
    {!flush}ed first. *)

val drop : t -> unit
(** Discard all frames, {e flushing dirty ones first} — dropping never
    loses writes; used between experiment runs so each starts cold.
    (To observe drop-without-flush semantics there is deliberately no
    entry point: write-back is the pool's invariant.) *)

val hits : t -> int
val misses : t -> int
(** Cumulative lookup counters since creation. {!Trace.with_span} snapshots
    these around an operator span (pass the scoped cursor pool as [?pool])
    to report per-operator cache hit rates in EXPLAIN ANALYZE and traces. *)

val counters : t -> int * int
(** [(hits, misses)], one call. *)

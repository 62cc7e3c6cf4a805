(** Crash recovery: redo-only restart in the ARIES mould.

    One log scan finds the last valid commit point (analysis), the torn
    or uncommitted tail behind it is truncated, and the committed
    records are replayed into fresh page images that overwrite the data
    file (redo). Every replayed page starts from zeroes ([Alloc]) or a
    logged full image ([Page_image]) — recovery never reads a
    possibly-torn page from the data file. There is no undo pass:
    {!Wal.ensure_committed} guarantees the data file holds no effects
    from beyond a commit point, so the restart state is exactly the last
    committed state. Recovery ends with a checkpoint (data fsync, then
    the log rewritten as a manifest snapshot), so replay work is bounded
    and a crash loop cannot grow the log.

    Used by {!Env.open_durable}; exposed separately so the recovery
    bench can time it against log length. *)

exception Corrupt of string
(** Unrecoverable inconsistency: unreadable WAL header, a data file with
    no WAL, or a manifest referencing impossible pages. *)

type report = {
  clean : bool;  (** log ended at a commit point with no torn tail *)
  wal_records : int;  (** valid records found in the log *)
  replayed : int;  (** committed records redone *)
  truncated_bytes : int;  (** torn / uncommitted tail removed *)
  pages_redone : int;  (** distinct pages rebuilt from the log *)
  duration_s : float;
}

val pp_report : Format.formatter -> report -> unit

val redo_record :
  psize:int -> image:(int -> bytes) -> Wal.record -> (int * bytes) option
(** [redo_record ~psize ~image r] is [Some (page, img)], the image of
    [page] after [r], or [None] if [r] touches no page. [Alloc] gives
    zeroes and [Page_image] the logged image padded to [psize];
    [Heap_append] writes its bytes and record count into [image page],
    the page's current image, in place. {!Corrupt} if the append falls
    outside the page. Recovery's redo and the replica's apply both
    redo through this one function. *)

val wal_path_of : string -> string
(** The WAL's path inside a data directory ([<dir>/wal.fsql]). *)

val recover :
  ?page_size:int ->
  ?mode:Wal.sync_mode ->
  ?checkpoint:bool ->
  dir:string ->
  Iostats.t ->
  Real_disk.t * Wal.t * report
(** Open (creating if absent) the durable environment under [dir],
    truncating any torn/uncommitted WAL tail and replaying the
    committed records. Redo always runs — even over a clean log — since
    the data file may lag the log arbitrarily (pages reach the device
    only on eviction or flush); replay is idempotent. Returns
    writable handles with the free list rebuilt from the manifest and
    the catalog verified ({!Corrupt} on inconsistency). [page_size] and
    [mode] apply to fresh directories / the reopened log; an existing
    data file's page size always wins. [checkpoint] (default [true])
    controls the final log-snapshot rewrite — replica catch-up passes
    [false] so the local log stays a byte-prefix of the primary's (the
    data file is still synced). *)

val verify_pages : Wal.t -> Real_disk.t -> (int * int32 * int32) list
(** Run every manifest-live page through trailer validation; returns
    [(page, stored_crc, computed_crc)] for each failure. The chaos
    harness asserts this is empty after recovery. *)

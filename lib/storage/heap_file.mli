(** Heap files: unordered sequences of variable-length byte records stored in
    pages of a storage backend.

    Page layout: a 2-byte record count followed by [u16 length][payload]
    records. Records never span pages, so a record must fit in
    [page_size - 4] bytes. All reads go through the buffer pool, so scans
    cost one logical page read per page plus pool hits.

    By default a heap file is {e temporary}: its pages live on the
    environment's temp disk and are unlogged (sort runs, materialised
    intermediates — "temp pages stay unlogged"). In a simulated
    environment the temp disk {e is} the main disk, so this distinction
    only exists on durable environments. Pass [~durable:true] to place
    the file on the durable backend: every allocation and append is then
    WAL-logged first, appends stamp the page's frame with their record's
    LSN, and the file survives restart via the manifest. *)

type t

val create : ?durable:bool -> Env.t -> t
(** Default [~durable:false]. [~durable:true] registers a fresh file id
    with the environment's WAL; raises [Invalid_argument] on a
    simulated environment. *)

val open_durable : Env.t -> fid:int -> pages:int array -> t
(** Reattach a durable file from a manifest entry ({!Env.manifest}),
    rebuilding record counts and the append point by reading the
    pages. *)

val env : t -> Env.t

val disk : t -> Disk.t
(** The backend this file's pages live on — scoped pools for scanning
    this file must be created over {e this} disk, not the
    environment's main one. *)

val pool : t -> Buffer_pool.t
(** The file's home pool (the env's main or temp pool). *)

val fid : t -> int option
(** The WAL file id; [None] for temporary files. *)

val is_durable : t -> bool

val set_meta : t -> bytes -> unit
(** Record the file's catalog metadata blob in the WAL ([Define]);
    no-op on temporary files. {!Relational.Relation} stores its schema
    here. *)

val append : t -> bytes -> unit
(** Raises [Invalid_argument] if the record cannot fit in a page. On
    durable files the append is logged before the page is touched. *)

val append_sub : t -> bytes -> int -> int -> unit
(** [append_sub t buf pos len] appends the record [buf.(pos .. pos+len-1)]
    as {!append} would. *)

val append_many : t -> bytes array -> int array -> int array -> int -> unit
(** [append_many t bufs offs lens n] appends records [0 .. n-1] in order,
    record [k] being [bufs.(k)] from [offs.(k)], [lens.(k)] bytes long,
    as [n] {!append_sub} calls would, and lays them out in the same
    pages, but fills each page under one buffer-pool write (one lookup
    per page, not per record). Temporary files only: [Invalid_argument]
    on a durable file, whose appends each need a WAL record. A record
    that cannot fit in a page raises [Invalid_argument] with every
    earlier record appended. *)

val num_records : t -> int
val num_pages : t -> int

val destroy : t -> unit
(** Return the file's pages to its disk's free list; logs the file's
    destruction first when durable. *)

(** The one reader of the page format: a scan that copies no record,
    each record being a slice of the page it sits on, as the pool holds
    it. Every scan reads records this way (relation scans, the blocked
    nested loop, the external sort, histograms), so a record costs no
    allocation until it is decoded. The page must not be mutated, and
    the file must not be appended to while the scan runs. *)
module Slices : sig
  type file = t
  type t

  val of_file : ?pool:Buffer_pool.t -> file -> t
  (** Positioned before the first record; reads through [pool] when given
      (default: the file's home pool). *)

  val advance : t -> bool
  (** Move to the next record; [false] at the end of the file. *)

  val page : t -> bytes
  (** The current record's page. It stays valid after the scan moves on. *)

  val off : t -> int
  val len : t -> int
  (** The current record is [page t] from [off t], [len t] bytes long. *)

  val buffered : t -> int
  (** Records left on the current page after the current one: that many
      more {!advance} calls cost no page read. *)
end

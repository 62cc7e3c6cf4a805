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

val num_records : t -> int
val num_pages : t -> int

val iter : t -> (bytes -> unit) -> unit
val fold : t -> init:'a -> f:('a -> bytes -> 'a) -> 'a

val page_records : t -> int -> bytes list
(** Records of the [i]-th page (0-based); one pool read. *)

val page_records_via : Buffer_pool.t -> t -> int -> bytes list
(** Same, but reading through a caller-supplied pool — used by operators that
    manage their own buffer allocation (e.g. "one page for the inner
    relation" in the paper's nested-loop join). The pool must sit over
    {!disk}. *)

val pin_page : t -> int -> unit
val unpin_page : t -> int -> unit

val destroy : t -> unit
(** Return the file's pages to its disk's free list; logs the file's
    destruction first when durable. *)

module Cursor : sig
  type file = t
  type t

  val of_file : ?pool:Buffer_pool.t -> file -> t
  (** Cursor positioned at the first record; reads through [pool] when given
      (default: the file's home pool). *)

  val peek : t -> bytes option
  (** Current record, or [None] at end of file. *)

  val next : t -> bytes option
  (** Current record, advancing the cursor past it. *)

  val pos : t -> int
  (** Zero-based index of the current record. *)

  val buffered : t -> int
  (** Records left on the page the cursor last read: that many more
      {!next} calls cost no page read. *)

  val seek : t -> int -> unit
  (** Reposition to the given record index (clamped to [0, num_records]). *)

  val page_index : t -> int option
  (** Page holding the current record. *)
end

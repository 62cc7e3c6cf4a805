(** Write-ahead log: append-only redo log with LSN-stamped, CRC-32
    checksummed records, group-commit batching, and the durable catalog
    ("manifest") embedded in checkpoint records.

    {2 LSNs}

    An LSN is a byte offset: a record's LSN is the file offset just past
    its last byte, so "flushed up to LSN [l]" means exactly "the first
    [l] bytes of the log are durable". {!Buffer_pool} stamps each dirty
    frame with the LSN of the last record that touched it and calls
    {!ensure_committed} before writing the frame back — the WAL rule: no
    page reaches the data file before its log records.

    {2 Commit points}

    [Commit] (and [Checkpoint]) records mark durability points.
    {!Recovery} replays only up to the last valid commit point, and
    because {!ensure_committed} forces a commit before any logged page
    is written back, the data file never holds effects from beyond a
    commit point: the restart state is {e exactly} the last committed
    state — redo-only, no undo pass needed.

    {2 Torn-page defence}

    The first post-checkpoint touch of a page that already existed at
    checkpoint time logs a full [Page_image] before the delta, so redo
    reconstructs every touched page from the log alone and never reads a
    possibly-torn page from the data file. Pages allocated after the
    checkpoint start from zeroes ({!Sim_disk.alloc}'s contract).

    {2 Sync modes}

    [Always] fsyncs on every commit; [Group] batches concurrent
    committers behind one leader fsync (the {!commits}/{!fsyncs}
    counters let [bench wal] report the batching factor); [Never] hands
    records to the kernel without fsync (crash durability is then up to
    the OS — still torn-proof, but recent commits may be lost). *)

val header_size : int
(** Bytes of file magic before the first record; the LSN of an empty
    log. *)

type sync_mode = Always | Group | Never

val sync_mode_name : sync_mode -> string
val sync_mode_of_string : string -> sync_mode option

type record =
  | Alloc of { fid : int; page : int }
      (** durable file [fid] allocated [page] (zeroed) *)
  | Page_image of { page : int; data : bytes }
      (** full before-use image; first post-checkpoint touch *)
  | Heap_append of { page : int; off : int; count : int; data : bytes }
      (** record bytes [data] at [off]; page record count becomes [count] *)
  | Free of { fid : int }  (** durable file destroyed; pages reusable *)
  | Define of { fid : int; meta : bytes }
      (** catalog entry: opaque metadata blob (schema) for [fid] *)
  | Commit  (** durability point *)
  | Checkpoint of {
      next_fid : int;
      files : (int * bytes * int array) list;
      epoch : int;
    }
      (** manifest snapshot: (fid, meta, pages) per durable file, plus
          the replication epoch in force (0 on pre-replication logs) *)
  | Epoch of { epoch : int }
      (** replication epoch bump — appended at promotion so a restarted
          node (and any tailing replica) learns the new epoch without
          waiting for a checkpoint *)

type t

exception Read_only of string
(** Mutation attempted through a read-only handle. *)

exception Needs_recovery of string
(** {!open_existing} found a torn tail or an uncommitted suffix — run
    {!Recovery.recover} first. *)

val create : path:string -> mode:sync_mode -> t
(** Create (or truncate) the log at [path]; writes and fsyncs the header. *)

val open_existing : path:string -> mode:sync_mode -> readonly:bool -> t
(** Open a {e clean} log — every record valid and the last one a commit
    point — rebuilding the manifest from its records. Raises
    {!Needs_recovery} otherwise. *)

val close : t -> unit
(** Flush buffered records (writable handles) and close the fd. *)

val crash : t -> unit
(** Close, {e discarding} buffered unwritten records — the in-process
    crash simulation used by recovery tests and benches. *)

(** {2 Appending} *)

val append : t -> record -> int
(** Append one record (buffered; not yet on disk) and return its LSN.
    Updates the in-memory manifest. Raises {!Read_only}. *)

val commit : t -> unit
(** Append a [Commit] (if anything is uncommitted) and make it durable
    per the sync mode. Safe from multiple threads; in [Group] mode
    concurrent callers share fsyncs. *)

val ensure_committed : t -> int -> unit
(** [ensure_committed t lsn] — the WAL-rule hook: guarantee a commit
    point at or past [lsn] exists durably before the caller writes the
    page stamped [lsn] to the data file. Forces a commit if needed. *)

(** {2 Logged operations} (called by {!Heap_file}) *)

val new_file : t -> int
(** Reserve a fresh durable-file id. *)

val log_alloc : t -> fid:int -> page:int -> int
val log_define : t -> fid:int -> meta:bytes -> unit
val log_free : t -> fid:int -> unit

val log_heap_append :
  t -> page:int -> off:int -> count:int -> data:bytes -> image:(unit -> bytes) -> int
(** Log one heap-page append; calls [image] to capture and log the full
    page before-image first when this is the page's first
    post-checkpoint touch. Returns the delta record's LSN (the page's
    new page-LSN). *)

val checkpoint : t -> unit
(** Rewrite the log as a single manifest-snapshot record. The caller
    must already have flushed and fsynced the data file — afterwards
    replay length is zero. Resets the fresh-page set, so subsequent
    first touches log new page images. *)

(** {2 Manifest} *)

val manifest : t -> (int * bytes * int array) list
(** Durable files as [(fid, meta, pages)], sorted by fid. [meta] is the
    opaque blob from the last [Define] (empty if none). *)

(** {2 Scanning} (recovery) *)

type scan = {
  scan_records : (int * record) list;  (** (end-LSN, record), log order *)
  scan_valid_end : int;  (** offset just past the last valid record *)
  scan_file_len : int;
  scan_bad_header : bool;  (** missing file or unrecognisable header *)
}

val scan : string -> scan
(** Parse the log at a path, stopping at the first invalid frame (bad
    CRC, wrong offset stamp, short tail). Never raises on torn input. *)

type stream_status =
  | Stream_ok  (** stopped at an incomplete trailing frame — feed more *)
  | Stream_bad
      (** stopped at a fully-present but invalid frame (bad CRC, wrong
          offset stamp, undecodable body) — the stream is corrupt *)

val parse_stream :
  ?off:int ->
  ?len:int ->
  bytes ->
  base:int ->
  (int * record) list * int * stream_status
(** [parse_stream data ~base] decodes consecutive frames from
    [data.[off .. off+len)], whose first byte lives at file offset
    [base]; returns [(end-LSN, record)] pairs in order, the bytes
    consumed, and why parsing stopped. The incremental parser behind the
    replication tail ({!Wal_stream.Tail}); {!scan} is the whole-file
    special case. *)

(** {2 Introspection} *)

val path : t -> string
val mode : t -> sync_mode
val readonly : t -> bool

val size : t -> int
(** End LSN — total log bytes including buffered records. *)

val committed_end : t -> int
(** LSN of the last commit point. *)

val durable_lsn : t -> int
val commits : t -> int
val fsyncs : t -> int
val appended : t -> int

val is_fresh_page : t -> int -> bool
(** Whether [page] was allocated or imaged since the last checkpoint
    (no before-image needed on next touch). *)

(** {2 Replication} *)

val epoch : t -> int
(** Replication epoch in force — the maximum over every [Epoch] and
    [Checkpoint] record seen (0 when the log predates replication). *)

val shippable_end : t -> int
(** The last commit boundary whose bytes have been handed to the kernel,
    so an independent fd reads them. {!committed_end} runs ahead of it
    while a group-commit follower's records wait in the buffer for the
    next leader's write-out. The WAL sender ships up to here. *)

val shipped : t -> Eventcount.t
(** Notified whenever {!shippable_end} moves: a commit's write-out, or
    the log rotation of a {!checkpoint}. The WAL sender's idle tail waits
    on it instead of polling. *)

val log_epoch : t -> int -> unit
(** Append an [Epoch] record (promotion). The caller should {!commit}
    right after so the log stays clean-ended. *)

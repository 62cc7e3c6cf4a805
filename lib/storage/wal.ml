(* Append-only redo log with LSN-stamped, CRC-checksummed records.

   LSNs are byte offsets: a record's LSN is the file offset just past its
   last byte, so [flush up to LSN l] means [the first l bytes of the log
   are on disk]. The log also carries the durable catalog ("manifest"):
   which page belongs to which durable file and each file's opaque
   metadata blob, snapshotted into every checkpoint record so recovery
   never needs a separate catalog file.

   Redo is physical within a page: [Heap_append] records are byte-range
   overwrites, and the first post-checkpoint touch of a page that already
   existed at checkpoint time logs a full [Page_image] first (the
   torn-page defence: recovery rebuilds every touched page from its image
   plus deltas and never reads a possibly-torn page from the data file).
   Pages allocated after the checkpoint start from zeroes, like
   [Sim_disk.alloc]'s contract.

   Commit records mark durability points. Recovery replays the log only
   up to the last valid commit/checkpoint record, and the buffer pool
   forces a commit before any dirty logged page reaches the data file
   (see [ensure_committed]), so the data file never contains bytes from
   beyond a commit point: restart state is exactly the last committed
   state. *)

type sync_mode = Always | Group | Never

(* A set of page ids as a bitset indexed by page id: one bit per page of
   the data file, grown on demand. *)
module Page_set = struct
  type t = { mutable bits : Bytes.t }

  let create () = { bits = Bytes.make 64 '\000' }

  let mem t page =
    let i = page lsr 3 in
    i < Bytes.length t.bits && Bytes.get_uint8 t.bits i land (1 lsl (page land 7)) <> 0

  let add t page =
    if page < 0 then invalid_arg "Wal.Page_set.add: negative page";
    let i = page lsr 3 in
    let n = Bytes.length t.bits in
    if i >= n then begin
      let b = Bytes.make (max (i + 1) (2 * n)) '\000' in
      Bytes.blit t.bits 0 b 0 n;
      t.bits <- b
    end;
    Bytes.set_uint8 t.bits i (Bytes.get_uint8 t.bits i lor (1 lsl (page land 7)))

  let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'
end

let sync_mode_name = function
  | Always -> "always"
  | Group -> "group"
  | Never -> "never"

let sync_mode_of_string = function
  | "always" -> Some Always
  | "group" -> Some Group
  | "never" -> Some Never
  | _ -> None

type record =
  | Alloc of { fid : int; page : int }
  | Page_image of { page : int; data : bytes }
  | Heap_append of { page : int; off : int; count : int; data : bytes }
  | Free of { fid : int }
  | Define of { fid : int; meta : bytes }
  | Commit
  | Checkpoint of {
      next_fid : int;
      files : (int * bytes * int array) list;
      epoch : int;
    }
  | Epoch of { epoch : int }

exception Read_only of string

let () =
  Printexc.register_printer (function
    | Read_only op -> Some (Printf.sprintf "Wal.Read_only(%s)" op)
    | _ -> None)

let magic = "FSQLWAL1"
let header_size = String.length magic

type t = {
  path : string;
  mutable fd : Unix.file_descr option;
  readonly : bool;
  mode : sync_mode;
  lock : Mutex.t;
  cond : Condition.t;
  buf : Buffer.t;  (** appended records not yet written to [fd] *)
  mutable next_lsn : int;  (** end offset of the last appended record *)
  mutable written_lsn : int;  (** bytes handed to the kernel *)
  mutable durable_lsn : int;  (** bytes known fsynced *)
  mutable committed_end : int;  (** LSN of the last commit/checkpoint *)
  mutable shippable : int;
      (** the last commit boundary handed to the kernel: readable through
          an independent fd *)
  shipped : Eventcount.t;  (** notified when [shippable] moves *)
  mutable syncing : bool;  (** a group-commit leader is in fsync *)
  (* counters for the wal bench and tests *)
  mutable commits : int;
  mutable fsyncs : int;
  mutable appended : int;
  (* manifest: the durable catalog, maintained on every append and
     rebuilt from the log on open *)
  mutable next_fid : int;
  files : (int, int list ref) Hashtbl.t;  (** fid -> pages, reversed *)
  metas : (int, bytes) Hashtbl.t;
  epoch_fresh : Page_set.t;
      (** pages allocated or imaged since the last checkpoint: no
          full-page image needed before their next delta *)
  mutable epoch : int;
      (** replication epoch — monotone, bumped at promotion, persisted
          in every checkpoint record and by explicit [Epoch] records *)
}

(* ------------------------------------------------------------------ *)
(* Little-endian scratch encoding *)

let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let get_u32 s off = Int32.to_int (Bytes.get_int32_le s off) land 0xffff_ffff

(* ------------------------------------------------------------------ *)
(* Record frames: [u32 body_len][u8 tag][u64 start_off][body][u32 crc],
   crc over tag+start_off+body. [start_off] pins the record to its file
   position, so a record blitted to the wrong offset fails validation. *)

let tag_of = function
  | Alloc _ -> 1
  | Page_image _ -> 2
  | Heap_append _ -> 3
  | Free _ -> 4
  | Define _ -> 5
  | Commit -> 6
  | Checkpoint _ -> 7
  | Epoch _ -> 8

let encode_body b = function
  | Alloc { fid; page } ->
      add_u32 b fid;
      add_u32 b page
  | Page_image { page; data } ->
      add_u32 b page;
      Buffer.add_bytes b data
  | Heap_append { page; off; count; data } ->
      add_u32 b page;
      Buffer.add_uint16_le b off;
      Buffer.add_uint16_le b count;
      Buffer.add_bytes b data
  | Free { fid } -> add_u32 b fid
  | Define { fid; meta } ->
      add_u32 b fid;
      Buffer.add_bytes b meta
  | Commit -> ()
  | Checkpoint { next_fid; files; epoch } ->
      add_u32 b next_fid;
      add_u32 b (List.length files);
      List.iter
        (fun (fid, meta, pages) ->
          add_u32 b fid;
          add_u32 b (Bytes.length meta);
          Buffer.add_bytes b meta;
          add_u32 b (Array.length pages);
          Array.iter (add_u32 b) pages)
        files;
      (* The replication epoch trails the file list so pre-epoch logs
         (whose bodies end exactly at the list) still decode. *)
      add_u32 b epoch
  | Epoch { epoch } -> add_u32 b epoch

let decode_body tag body =
  let len = Bytes.length body in
  match tag with
  | 1 when len = 8 -> Some (Alloc { fid = get_u32 body 0; page = get_u32 body 4 })
  | 2 when len >= 4 ->
      Some (Page_image { page = get_u32 body 0; data = Bytes.sub body 4 (len - 4) })
  | 3 when len >= 8 ->
      Some
        (Heap_append
           {
             page = get_u32 body 0;
             off = Bytes.get_uint16_le body 4;
             count = Bytes.get_uint16_le body 6;
             data = Bytes.sub body 8 (len - 8);
           })
  | 4 when len = 4 -> Some (Free { fid = get_u32 body 0 })
  | 5 when len >= 4 ->
      Some (Define { fid = get_u32 body 0; meta = Bytes.sub body 4 (len - 4) })
  | 6 when len = 0 -> Some Commit
  | 7 when len >= 8 -> (
      try
        let next_fid = get_u32 body 0 in
        let nfiles = get_u32 body 4 in
        let pos = ref 8 in
        let files =
          List.init nfiles (fun _ ->
              let fid = get_u32 body !pos in
              let mlen = get_u32 body (!pos + 4) in
              let meta = Bytes.sub body (!pos + 8) mlen in
              pos := !pos + 8 + mlen;
              let npages = get_u32 body !pos in
              pos := !pos + 4;
              (* A count the body cannot hold would size the array
                 before any page number is read. *)
              if npages > (len - !pos) / 4 then invalid_arg "Wal.decode_body: page count";
              let pages =
                Array.init npages (fun i -> get_u32 body (!pos + (4 * i)))
              in
              pos := !pos + (4 * npages);
              (fid, meta, pages))
        in
        if !pos = len then Some (Checkpoint { next_fid; files; epoch = 0 })
        else if !pos + 4 = len then
          Some (Checkpoint { next_fid; files; epoch = get_u32 body !pos })
        else None
      with Invalid_argument _ -> None)
  | 8 when len = 4 -> Some (Epoch { epoch = get_u32 body 0 })
  | _ -> None

(* Frame a record destined for offset [start] into [out]. *)
let add_frame out ~start record =
  let body = Buffer.create 64 in
  encode_body body record;
  let body = Buffer.to_bytes body in
  let protected = Buffer.create (Bytes.length body + 16) in
  Buffer.add_uint8 protected (tag_of record);
  Buffer.add_int64_le protected (Int64.of_int start);
  Buffer.add_bytes protected body;
  let protected = Buffer.to_bytes protected in
  let crc = Crc32.bytes protected in
  add_u32 out (Bytes.length body);
  Buffer.add_bytes out protected;
  Buffer.add_int32_le out crc;
  4 + Bytes.length protected + 4

(* ------------------------------------------------------------------ *)
(* Scanning (recovery + open) *)

type scan = {
  scan_records : (int * record) list;  (** (end-LSN, record), log order *)
  scan_valid_end : int;  (** offset just past the last valid record *)
  scan_file_len : int;
  scan_bad_header : bool;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = Bytes.create len in
      really_input ic buf 0 len;
      buf)

type stream_status = Stream_ok | Stream_bad

(* Parse frames from [data.[off .. off+len)] whose first byte lives at
   file offset [base]. Returns the decoded records (with end-LSNs), the
   bytes consumed, and whether parsing stopped at an incomplete trailing
   frame ([Stream_ok] — feed more bytes) or at a frame that is fully
   present yet invalid ([Stream_bad] — bad CRC, wrong offset stamp, or
   undecodable body). This is the replication tail's incremental parser;
   {!scan} is the whole-file special case. *)
let parse_stream ?(off = 0) ?len data ~base =
  let avail = match len with Some l -> l | None -> Bytes.length data - off in
  let records = ref [] in
  let pos = ref 0 in
  let status = ref Stream_ok in
  let stop = ref false in
  while not !stop do
    if !pos + 17 > avail then stop := true
    else begin
      let body_len = get_u32 data (off + !pos) in
      let frame_len = 17 + body_len in
      if !pos + frame_len > avail then stop := true
      else begin
        let protected = Bytes.sub data (off + !pos + 4) (9 + body_len) in
        let crc = Bytes.get_int32_le data (off + !pos + 13 + body_len) in
        if not (Int32.equal (Crc32.bytes protected) crc) then begin
          status := Stream_bad;
          stop := true
        end
        else begin
          let tag = Bytes.get_uint8 protected 0 in
          let start = Int64.to_int (Bytes.get_int64_le protected 1) in
          if start <> base + !pos then begin
            status := Stream_bad;
            stop := true
          end
          else
            match decode_body tag (Bytes.sub protected 9 body_len) with
            | None ->
                status := Stream_bad;
                stop := true
            | Some r ->
                pos := !pos + frame_len;
                records := (base + !pos, r) :: !records
        end
      end
    end
  done;
  (List.rev !records, !pos, !status)

let scan path =
  if not (Sys.file_exists path) then
    { scan_records = []; scan_valid_end = 0; scan_file_len = 0; scan_bad_header = true }
  else begin
    let data = read_file path in
    let len = Bytes.length data in
    if len < header_size || Bytes.sub_string data 0 header_size <> magic then
      { scan_records = []; scan_valid_end = 0; scan_file_len = len; scan_bad_header = true }
    else begin
      let records, consumed, _status =
        parse_stream data ~off:header_size ~base:header_size
      in
      {
        scan_records = records;
        scan_valid_end = header_size + consumed;
        scan_file_len = len;
        scan_bad_header = false;
      }
    end
  end

(* ------------------------------------------------------------------ *)
(* Manifest maintenance *)

let file_pages t fid =
  match Hashtbl.find_opt t.files fid with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.files fid l;
      l

let apply_manifest t = function
  | Alloc { fid; page } ->
      let l = file_pages t fid in
      l := page :: !l;
      if fid >= t.next_fid then t.next_fid <- fid + 1;
      Page_set.add t.epoch_fresh page
  | Page_image { page; _ } -> Page_set.add t.epoch_fresh page
  | Heap_append _ | Commit -> ()
  | Free { fid } ->
      Hashtbl.remove t.files fid;
      Hashtbl.remove t.metas fid
  | Define { fid; meta } ->
      ignore (file_pages t fid);
      Hashtbl.replace t.metas fid meta;
      if fid >= t.next_fid then t.next_fid <- fid + 1
  | Checkpoint { next_fid; files; epoch } ->
      Hashtbl.reset t.files;
      Hashtbl.reset t.metas;
      Page_set.clear t.epoch_fresh;
      t.next_fid <- next_fid;
      if epoch > t.epoch then t.epoch <- epoch;
      List.iter
        (fun (fid, meta, pages) ->
          Hashtbl.replace t.files fid (ref (List.rev (Array.to_list pages)));
          if Bytes.length meta > 0 then Hashtbl.replace t.metas fid meta)
        files
  | Epoch { epoch } -> if epoch > t.epoch then t.epoch <- epoch

let manifest t =
  Mutex.lock t.lock;
  let out =
    Hashtbl.fold
      (fun fid pages acc ->
        let meta =
          Option.value (Hashtbl.find_opt t.metas fid) ~default:Bytes.empty
        in
        (fid, meta, Array.of_list (List.rev !pages)) :: acc)
      t.files []
  in
  Mutex.unlock t.lock;
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) out

let manifest_snapshot_locked t =
  let files =
    Hashtbl.fold
      (fun fid pages acc ->
        let meta =
          Option.value (Hashtbl.find_opt t.metas fid) ~default:Bytes.empty
        in
        (fid, meta, Array.of_list (List.rev !pages)) :: acc)
      t.files []
  in
  let files = List.sort (fun (a, _, _) (b, _, _) -> compare a b) files in
  Checkpoint { next_fid = t.next_fid; files; epoch = t.epoch }

(* ------------------------------------------------------------------ *)
(* File I/O *)

let fd_exn t op =
  match t.fd with
  | Some fd -> fd
  | None -> invalid_arg ("Wal." ^ op ^ ": closed")

let set_shippable_locked t lsn =
  if t.shippable <> lsn then begin
    t.shippable <- lsn;
    Eventcount.notify t.shipped
  end

(* Hand the buffered tail to the kernel (no fsync). Caller holds the lock.
   Afterwards everything appended is written, so the last commit boundary
   is shippable. *)
let write_out_locked t =
  if Buffer.length t.buf > 0 then begin
    if t.readonly then raise (Read_only "write");
    let data = Buffer.to_bytes t.buf in
    Fd_io.write_all (fd_exn t "write") data 0 (Bytes.length data);
    Buffer.clear t.buf;
    t.written_lsn <- t.next_lsn
  end;
  set_shippable_locked t t.committed_end

let fsync_fd t =
  Unix.fsync (fd_exn t "fsync");
  t.fsyncs <- t.fsyncs + 1

(* ------------------------------------------------------------------ *)
(* Appending *)

let append_locked t record =
  if t.readonly then raise (Read_only "append");
  let start = t.next_lsn in
  ignore (add_frame t.buf ~start record);
  t.next_lsn <- t.written_lsn + Buffer.length t.buf;
  t.appended <- t.appended + 1;
  apply_manifest t record;
  (match record with
  | Commit | Checkpoint _ -> t.committed_end <- t.next_lsn
  | _ -> ());
  t.next_lsn

let append t record =
  Mutex.lock t.lock;
  let lsn =
    try append_locked t record
    with e ->
      Mutex.unlock t.lock;
      raise e
  in
  Mutex.unlock t.lock;
  lsn

(* Make everything up to [target] durable, per sync mode. Caller holds
   the lock; may release and retake it (group mode). *)
let rec sync_to_locked t target =
  match t.mode with
  | Never -> write_out_locked t
  | Always ->
      write_out_locked t;
      if t.durable_lsn < target then begin
        fsync_fd t;
        t.durable_lsn <- t.written_lsn
      end
  | Group ->
      if t.durable_lsn < target then
        if t.syncing then begin
          (* A leader is fsyncing: wait for it, then re-check — our
             records may have missed its write-out batch. *)
          Condition.wait t.cond t.lock;
          sync_to_locked t target
        end
        else begin
          t.syncing <- true;
          write_out_locked t;
          let upto = t.written_lsn in
          Mutex.unlock t.lock;
          (* fsync outside the lock: committers arriving now append to
             the buffer and are batched into the next leader's fsync. *)
          (try Unix.fsync (fd_exn t "fsync")
           with e ->
             Mutex.lock t.lock;
             t.syncing <- false;
             Condition.broadcast t.cond;
             Mutex.unlock t.lock;
             raise e);
          Mutex.lock t.lock;
          t.fsyncs <- t.fsyncs + 1;
          if upto > t.durable_lsn then t.durable_lsn <- upto;
          t.syncing <- false;
          Condition.broadcast t.cond;
          sync_to_locked t target
        end

let sync_committed_locked t = sync_to_locked t t.committed_end

let commit t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if t.next_lsn > t.committed_end then begin
        ignore (append_locked t Commit);
        t.commits <- t.commits + 1
      end;
      sync_committed_locked t)

let ensure_committed t lsn =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if t.committed_end < lsn then begin
        ignore (append_locked t Commit);
        t.commits <- t.commits + 1
      end;
      sync_to_locked t lsn)

(* ------------------------------------------------------------------ *)
(* Logged operations (called by Heap_file) *)

let new_file t =
  Mutex.lock t.lock;
  let fid = t.next_fid in
  t.next_fid <- fid + 1;
  Hashtbl.replace t.files fid (ref []);
  Mutex.unlock t.lock;
  fid

let log_alloc t ~fid ~page = append t (Alloc { fid; page })

let log_heap_append t ~page ~off ~count ~data ~image =
  Mutex.lock t.lock;
  if Page_set.mem t.epoch_fresh page then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () -> append_locked t (Heap_append { page; off; count; data }))
  else begin
    (* First touch of a pre-checkpoint page this epoch: log its full
       before-image so recovery rebuilds it without reading the
       (possibly torn) data file. [image] must run with the lock
       RELEASED — it reads through the buffer pool, whose eviction path
       re-enters this WAL ([ensure_committed]) on the same non-recursive
       mutex, so calling it while holding the lock self-deadlocks. *)
    Mutex.unlock t.lock;
    let img = image () in
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        (* Re-check: a concurrent appender may have imaged the page, or
           a checkpoint reset the epoch, while the lock was released.
           The captured image is still the page's pre-append content
           (heap writers are single-threaded per file), so it is valid
           to log in either epoch. *)
        if not (Page_set.mem t.epoch_fresh page) then
          ignore (append_locked t (Page_image { page; data = img }));
        append_locked t (Heap_append { page; off; count; data }))
  end

let log_define t ~fid ~meta = ignore (append t (Define { fid; meta }))
let log_free t ~fid = ignore (append t (Free { fid }))

(* ------------------------------------------------------------------ *)
(* Checkpoint: the caller has flushed and fsynced the data file; rewrite
   the log as a single checkpoint record carrying the manifest. The new
   log is written to a temp file and renamed over the old one, so a
   crash during checkpoint leaves either the complete old log or the
   complete new one — never a torn log in front of an already-advanced
   data file. *)

let checkpoint t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if t.readonly then raise (Read_only "checkpoint");
      ignore (fd_exn t "checkpoint");
      let snapshot = manifest_snapshot_locked t in
      let out = Buffer.create 4096 in
      Buffer.add_string out magic;
      ignore (add_frame out ~start:header_size snapshot);
      let data = Buffer.to_bytes out in
      let tmp = t.path ^ ".tmp" in
      let tfd =
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      (try
         Fd_io.write_all tfd data 0 (Bytes.length data);
         Unix.fsync tfd;
         Unix.close tfd
       with e ->
         Unix.close tfd;
         raise e);
      Unix.rename tmp t.path;
      Fd_io.fsync_dir (Filename.dirname t.path);
      (match t.fd with Some fd -> Unix.close fd | None -> ());
      t.fd <- Some (Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644);
      t.fsyncs <- t.fsyncs + 1;
      Buffer.clear t.buf;
      Page_set.clear t.epoch_fresh;
      t.next_lsn <- Bytes.length data;
      t.written_lsn <- t.next_lsn;
      t.durable_lsn <- t.next_lsn;
      t.committed_end <- t.next_lsn;
      set_shippable_locked t t.next_lsn)

(* ------------------------------------------------------------------ *)
(* Opening *)

exception Needs_recovery of string

let () =
  Printexc.register_printer (function
    | Needs_recovery path -> Some (Printf.sprintf "Wal.Needs_recovery(%s)" path)
    | _ -> None)

let make ~path ~mode ~readonly ~fd =
  {
    path;
    fd = Some fd;
    readonly;
    mode;
    lock = Mutex.create ();
    cond = Condition.create ();
    buf = Buffer.create 4096;
    next_lsn = header_size;
    written_lsn = header_size;
    durable_lsn = header_size;
    committed_end = header_size;
    shippable = header_size;
    shipped = Eventcount.create ();
    syncing = false;
    commits = 0;
    fsyncs = 0;
    appended = 0;
    next_fid = 0;
    files = Hashtbl.create 16;
    metas = Hashtbl.create 16;
    epoch_fresh = Page_set.create ();
    epoch = 0;
  }

let create ~path ~mode =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_APPEND ] 0o644
  in
  let t = make ~path ~mode ~readonly:false ~fd in
  Fd_io.write_all fd (Bytes.of_string magic) 0 header_size;
  Unix.fsync fd;
  t

(* Open a clean log (last record is a commit or checkpoint and the file
   has no torn tail); raises [Needs_recovery] otherwise — run
   {!Recovery.recover} first. *)
let open_existing ~path ~mode ~readonly =
  let s = scan path in
  if s.scan_bad_header then raise (Needs_recovery path);
  if s.scan_valid_end <> s.scan_file_len then raise (Needs_recovery path);
  (match List.rev s.scan_records with
  | (_, (Commit | Checkpoint _)) :: _ | [] -> ()
  | _ -> raise (Needs_recovery path));
  let fd =
    if readonly then Unix.openfile path [ Unix.O_RDONLY ] 0o644
    else Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644
  in
  let t = make ~path ~mode ~readonly ~fd in
  List.iter (fun (_, r) -> apply_manifest t r) s.scan_records;
  t.next_lsn <- s.scan_valid_end;
  t.written_lsn <- s.scan_valid_end;
  t.durable_lsn <- s.scan_valid_end;
  t.committed_end <- s.scan_valid_end;
  t.shippable <- s.scan_valid_end;
  t

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      (match t.fd with
      | Some fd ->
          if not t.readonly then write_out_locked t;
          Unix.close fd
      | None -> ());
      t.fd <- None)

(* Abandon without writing anything buffered — the crash simulation used
   by recovery tests. *)
let crash t =
  Mutex.lock t.lock;
  (match t.fd with Some fd -> Unix.close fd | None -> ());
  t.fd <- None;
  Buffer.clear t.buf;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Introspection *)

let path t = t.path
let mode t = t.mode
let readonly t = t.readonly
let size t = t.next_lsn
let committed_end t = t.committed_end
let durable_lsn t = t.durable_lsn
let commits t = t.commits
let fsyncs t = t.fsyncs
let appended t = t.appended
let is_fresh_page t page = Page_set.mem t.epoch_fresh page

let epoch t =
  Mutex.lock t.lock;
  let e = t.epoch in
  Mutex.unlock t.lock;
  e

let shippable_end t =
  Mutex.lock t.lock;
  let l = t.shippable in
  Mutex.unlock t.lock;
  l

let shipped t = t.shipped

(* Record an epoch bump (promotion). The caller follows with {!commit} so
   the log stays clean-ended; the new epoch is also carried by every
   subsequent checkpoint snapshot. *)
let log_epoch t epoch = ignore (append t (Epoch { epoch }))

(* A real on-disk page store: the durable counterpart of [Sim_disk].

   One file, [<dir>/data.fsql]: a 4 KiB header followed by fixed-size
   page slots. Each slot is [page_size] payload bytes plus a 16-byte
   trailer [u32 crc | u64 lsn | u32 trailer-magic]; the CRC covers the
   payload, the page id and the LSN, so a page blitted to the wrong slot,
   a torn write, or any single corrupted byte is detected on read as a
   typed [Checksum_mismatch] — never returned as garbage rows.

   I/O is lseek+read/write under a per-handle mutex (OCaml's [Unix] has
   no pread/pwrite); writes are not individually fsynced — durability
   points are the WAL's job, and [sync] (fsync) is called at
   checkpoints. The free list is in-memory only: recovery rebuilds it
   from the WAL manifest as the complement of live pages. *)

let header_size = 4096
let file_magic = "FSQLDB01"
let trailer_size = 16
let trailer_magic = 0x52545047 (* "GPTR" little-endian: guarded page trailer *)
let data_file = "data.fsql"

exception Checksum_mismatch of { page : int; stored : int32; computed : int32 }

exception Bad_header of string

let () =
  Printexc.register_printer (function
    | Checksum_mismatch { page; stored; computed } ->
        Some
          (Printf.sprintf "Real_disk.Checksum_mismatch(page %d: stored %08lx, computed %08lx)"
             page stored computed)
    | Bad_header msg -> Some (Printf.sprintf "Real_disk.Bad_header(%s)" msg)
    | _ -> None)

type t = {
  dir : string;
  path : string;
  mutable fd : Unix.file_descr option;
  readonly : bool;
  page_size : int;
  slot : int;  (** page_size + trailer *)
  stats : Iostats.t;
  lock : Mutex.t;
  mutable pages : int;  (** high-water mark, like [Sim_disk.num_pages] *)
  mutable free_list : int list;
  mutable n_free : int;
  mutable fault : Fault.t option;
}

let page_size t = t.page_size
let stats t = t.stats
let dir t = t.dir
let path t = t.path
let set_fault t f = t.fault <- f
let fault t = t.fault

let fd_exn t =
  match t.fd with Some fd -> fd | None -> invalid_arg "Real_disk: closed"

(* CRC over payload ++ LE64(page) ++ LE64(lsn): binds content to slot. *)
let slot_crc ~page ~lsn payload =
  let aux = Bytes.create 16 in
  Bytes.set_int64_le aux 0 (Int64.of_int page);
  Bytes.set_int64_le aux 8 (Int64.of_int lsn);
  Crc32.update (Crc32.bytes payload) aux ~pos:0 ~len:16

let slot_off t page = header_size + (page * t.slot)

let rec read_all fd buf pos len =
  if len > 0 then
    match Unix.read fd buf pos len with
    | 0 -> failwith "Real_disk: short read"
    | n -> read_all fd buf (pos + n) (len - n)
    (* EINTR is a signal interruption, not EOF: retry the same range. *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all fd buf pos len

(* pwrite/pread emulation: seek + full transfer, under the handle lock. *)
let pwrite t ~off buf pos len =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let fd = fd_exn t in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      Fd_io.write_all fd buf pos len)

let pread t ~off buf pos len =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let fd = fd_exn t in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      read_all fd buf pos len)

let check_page t page =
  if page < 0 || page >= t.pages then
    raise (Sim_disk.Bad_page { page; num_pages = t.pages })

(* Build the full slot image (payload + trailer) for a write. *)
let encode_slot t ~page ~lsn payload =
  let slot = Bytes.create t.slot in
  Bytes.blit payload 0 slot 0 t.page_size;
  let crc = slot_crc ~page ~lsn payload in
  Bytes.set_int32_le slot t.page_size crc;
  Bytes.set_int64_le slot (t.page_size + 4) (Int64.of_int lsn);
  Bytes.set_int32_le slot (t.page_size + 12) (Int32.of_int trailer_magic);
  slot

let write_slot t ~page ~lsn payload =
  let slot = encode_slot t ~page ~lsn payload in
  pwrite t ~off:(slot_off t page) slot 0 t.slot

let write ?(lsn = 0) t page buf =
  check_page t page;
  if Bytes.length buf <> t.page_size then
    raise
      (Sim_disk.Write_size
         { page; expected = t.page_size; got = Bytes.length buf });
  if t.readonly then invalid_arg "Real_disk.write: read-only handle";
  Fault.on_write t.fault ~page (fun () ->
      (* Torn write: persist only the first half of the slot image — the
         stale trailer left behind makes the tear detectable on read. *)
      let slot = encode_slot t ~page ~lsn buf in
      pwrite t ~off:(slot_off t page) slot 0 (t.slot / 2));
  write_slot t ~page ~lsn buf;
  Iostats.record_write t.stats

let read_with_lsn t page =
  check_page t page;
  Fault.on_read t.fault ~page;
  let slot = Bytes.create t.slot in
  pread t ~off:(slot_off t page) slot 0 t.slot;
  Iostats.record_read t.stats;
  let payload = Bytes.sub slot 0 t.page_size in
  let stored = Bytes.get_int32_le slot t.page_size in
  let lsn = Int64.to_int (Bytes.get_int64_le slot (t.page_size + 4)) in
  let tmagic = Int32.to_int (Bytes.get_int32_le slot (t.page_size + 12)) in
  let computed = slot_crc ~page ~lsn payload in
  if tmagic <> trailer_magic || stored <> computed then
    raise (Checksum_mismatch { page; stored; computed });
  (payload, lsn)

let read t page = fst (read_with_lsn t page)

(* Unchecked raw slot read, for recovery diagnostics. *)
let read_raw t page =
  check_page t page;
  let slot = Bytes.create t.slot in
  pread t ~off:(slot_off t page) slot 0 t.slot;
  Bytes.sub slot 0 t.page_size

let verify t page =
  match read_with_lsn t page with
  | _ -> Ok ()
  | exception Checksum_mismatch { stored; computed; _ } -> Error (stored, computed)

(* Grow the file so pages [0, n) exist, zero-filled with valid trailers.
   Used on alloc growth and by recovery before redo. Uncounted I/O. *)
let extend_to t n =
  if t.readonly then invalid_arg "Real_disk.extend: read-only handle";
  if n > t.pages then begin
    let zero = Bytes.make t.page_size '\000' in
    for page = t.pages to n - 1 do
      let slot = encode_slot t ~page ~lsn:0 zero in
      pwrite t ~off:(slot_off t page) slot 0 t.slot
    done;
    t.pages <- n
  end

let ensure_pages t n = extend_to t n

let alloc t =
  Fault.on_alloc t.fault;
  match t.free_list with
  | page :: rest ->
      t.free_list <- rest;
      t.n_free <- t.n_free - 1;
      (* Recycled pages are re-zeroed, matching [Sim_disk.alloc]'s
         contract: a previously torn page cannot poison its next user. *)
      write_slot t ~page ~lsn:0 (Bytes.make t.page_size '\000');
      page
  | [] ->
      let page = t.pages in
      extend_to t (page + 1);
      page

let free t pages =
  List.iter (fun p -> check_page t p) pages;
  t.free_list <- pages @ t.free_list;
  t.n_free <- t.n_free + List.length pages

let reset_free t pages =
  List.iter (fun p -> check_page t p) pages;
  t.free_list <- pages;
  t.n_free <- List.length pages

let num_pages t = t.pages
let free_pages t = t.n_free
let live_pages t = t.pages - t.n_free

let sync t =
  if not t.readonly then Unix.fsync (fd_exn t)

let close t =
  match t.fd with
  | Some fd ->
      Unix.close fd;
      t.fd <- None
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Creation / opening *)

let path_of dir = Filename.concat dir data_file

let write_header fd page_size =
  let h = Bytes.make header_size '\000' in
  Bytes.blit_string file_magic 0 h 0 (String.length file_magic);
  Bytes.set_int32_le h 8 (Int32.of_int page_size);
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  Fd_io.write_all fd h 0 header_size;
  Unix.fsync fd

let make ~dir ~fd ~readonly ~page_size stats =
  {
    dir;
    path = path_of dir;
    fd = Some fd;
    readonly;
    page_size;
    slot = page_size + trailer_size;
    stats;
    lock = Mutex.create ();
    pages = 0;
    free_list = [];
    n_free = 0;
    fault = None;
  }

(* The WAL frames heap-append offsets and record counts as u16, so a
   durable page must fit in 65536 bytes or redo offsets would silently
   truncate. *)
let max_page_size = 65536

let create ?(page_size = 8192) ~dir stats =
  if page_size <= 0 || page_size > max_page_size then
    invalid_arg "Real_disk.create: page_size must be in [1, 65536]";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = path_of dir in
  let fd =
    Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  write_header fd page_size;
  make ~dir ~fd ~readonly:false ~page_size stats

let open_existing ?(readonly = false) ~dir stats =
  let path = path_of dir in
  let flags = if readonly then [ Unix.O_RDONLY ] else [ Unix.O_RDWR ] in
  let fd = Unix.openfile path flags 0o644 in
  let ok, page_size, len =
    try
      let len = (Unix.fstat fd).Unix.st_size in
      if len < header_size then (false, 0, len)
      else begin
        let h = Bytes.create header_size in
        ignore (Unix.lseek fd 0 Unix.SEEK_SET);
        read_all fd h 0 header_size;
        let m = Bytes.sub_string h 0 (String.length file_magic) in
        (m = file_magic, Int32.to_int (Bytes.get_int32_le h 8) land 0xffff_ffff, len)
      end
    with e ->
      Unix.close fd;
      raise e
  in
  if not ok then begin
    Unix.close fd;
    raise (Bad_header (Printf.sprintf "%s: not a fsql data file" path))
  end;
  if page_size <= 0 || page_size > max_page_size then begin
    Unix.close fd;
    raise (Bad_header (Printf.sprintf "%s: bad page size" path))
  end;
  let t = make ~dir ~fd ~readonly ~page_size stats in
  (* A torn partial slot at the tail (crash mid-extend) falls off the
     floor division; a complete-but-torn one is caught by its CRC. *)
  t.pages <- (len - header_size) / t.slot;
  t

let exists ~dir = Sys.file_exists (path_of dir)

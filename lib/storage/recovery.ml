(* Crash recovery: redo-only restart in the ARIES mould, specialised to
   this engine's no-uncommitted-data invariant.

   Analysis = one log scan: find the last valid commit point (truncating
   the torn/uncommitted tail behind it) and rebuild the manifest. Redo =
   replay the committed records into in-memory page images — every
   replayed page starts from an [Alloc] (zeroes) or a [Page_image]
   record, never from the data file, so torn data pages are simply
   overwritten. No undo pass exists because [Wal.ensure_committed]
   guarantees the data file never holds effects from beyond a commit
   point. Recovery ends with a checkpoint, so a crash loop cannot grow
   the log. *)

let wal_file = "wal.fsql"
let wal_path_of dir = Filename.concat dir wal_file

exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Recovery.Corrupt(%s)" msg)
    | _ -> None)

type report = {
  clean : bool;
  wal_records : int;  (** valid records found in the log *)
  replayed : int;  (** committed records redone *)
  truncated_bytes : int;  (** torn / uncommitted tail removed *)
  pages_redone : int;  (** distinct pages rebuilt from the log *)
  duration_s : float;
}

let pp_report ppf r =
  Format.fprintf ppf
    "%s: %d wal records, %d replayed, %d pages redone, %d bytes truncated, %.3f ms"
    (if r.clean then "clean" else "recovered")
    r.wal_records r.replayed r.pages_redone r.truncated_bytes
    (r.duration_s *. 1e3)

(* Catalog consistency: every manifest page must exist on the disk and
   belong to exactly one file. *)
let verify_catalog wal disk =
  let num_pages = Real_disk.num_pages disk in
  let owner = Hashtbl.create 64 in
  List.iter
    (fun (fid, _, pages) ->
      Array.iter
        (fun p ->
          if p < 0 || p >= num_pages then
            raise
              (Corrupt
                 (Printf.sprintf "file %d references page %d beyond disk end %d"
                    fid p num_pages));
          match Hashtbl.find_opt owner p with
          | Some other ->
              raise
                (Corrupt
                   (Printf.sprintf "page %d owned by both file %d and file %d"
                      p other fid))
          | None -> Hashtbl.replace owner p fid)
        pages)
    (Wal.manifest wal)

(* Rebuild the free list as the complement of manifest-live pages. *)
let rebuild_free_list wal disk =
  let live = Hashtbl.create 64 in
  List.iter
    (fun (_, _, pages) -> Array.iter (fun p -> Hashtbl.replace live p ()) pages)
    (Wal.manifest wal);
  let frees = ref [] in
  for p = Real_disk.num_pages disk - 1 downto 0 do
    if not (Hashtbl.mem live p) then frees := p :: !frees
  done;
  Real_disk.reset_free disk !frees

let truncate_to path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd len;
      Unix.fsync fd)

(* The page image one log record produces: zeroes for [Alloc], the
   logged image for [Page_image], and for [Heap_append] the page's
   current image ([image page], changed in place) with the record's
   bytes and count written in. [None] for records that touch no page.
   Crash recovery and the replica's apply both redo through here. *)
let redo_record ~psize ~image = function
  | Wal.Alloc { page; _ } -> Some (page, Bytes.make psize '\000')
  | Wal.Page_image { page; data } ->
      let b = Bytes.make psize '\000' in
      Bytes.blit data 0 b 0 (min (Bytes.length data) psize);
      Some (page, b)
  | Wal.Heap_append { page; off; count; data } ->
      (* A CRC-valid record can still be logically bad (e.g. the WAL
         was paired with a data file of a different page size): bounds
         must hold against THIS file's page size or the blit below
         would fail with an untyped Invalid_argument. *)
      let len = Bytes.length data in
      if off < 2 || off + len > psize then
        raise
          (Corrupt
             (Printf.sprintf
                "heap append on page %d spans [%d, %d) outside page size %d"
                page off (off + len) psize));
      let img = image page in
      Bytes.blit data 0 img off len;
      Bytes.set_uint16_le img 0 count;
      Some (page, img)
  | Wal.Free _ | Wal.Define _ | Wal.Commit | Wal.Checkpoint _ | Wal.Epoch _ ->
      None

(* Replay committed records into page-size images. Every replayed page
   begins life as zeroes (Alloc) or a logged full image, never as bytes
   read from the possibly-torn data file. *)
let redo ~psize records boundary =
  let images : (int, bytes) Hashtbl.t = Hashtbl.create 64 in
  let image page =
    match Hashtbl.find_opt images page with
    | Some b -> b
    | None -> Bytes.make psize '\000'
  in
  let replayed = ref 0 in
  List.iter
    (fun (end_lsn, r) ->
      if end_lsn <= boundary then begin
        (match redo_record ~psize ~image r with
        | Some (page, img) -> Hashtbl.replace images page img
        | None -> ());
        incr replayed
      end)
    records;
  (images, !replayed)

let recover ?(page_size = 8192) ?(mode = Wal.Group) ?(checkpoint = true) ~dir
    stats =
  let t0 = Unix.gettimeofday () in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let wal_path = wal_path_of dir in
  let have_wal = Sys.file_exists wal_path in
  let have_data = Real_disk.exists ~dir in
  if not have_wal && not have_data then begin
    (* Fresh directory: initialise an empty durable environment. *)
    let disk = Real_disk.create ~page_size ~dir stats in
    let wal = Wal.create ~path:wal_path ~mode in
    let report =
      {
        clean = true;
        wal_records = 0;
        replayed = 0;
        truncated_bytes = 0;
        pages_redone = 0;
        duration_s = Unix.gettimeofday () -. t0;
      }
    in
    (disk, wal, report)
  end
  else begin
    if not have_wal then
      raise (Corrupt (Printf.sprintf "%s: data file present but no WAL" dir));
    let s = Wal.scan wal_path in
    if s.Wal.scan_bad_header then
      raise (Corrupt (Printf.sprintf "%s: unreadable WAL header" wal_path));
    (* The boundary is the end of the last commit point: everything past
       it is uncommitted (or torn) and is truncated away. *)
    let boundary =
      List.fold_left
        (fun acc (end_lsn, r) ->
          match r with Wal.Commit | Wal.Checkpoint _ -> end_lsn | _ -> acc)
        Wal.header_size s.Wal.scan_records
    in
    let last_is_boundary =
      match List.rev s.Wal.scan_records with
      | (_, (Wal.Commit | Wal.Checkpoint _)) :: _ -> true
      | [] -> true
      | _ -> false
    in
    let clean =
      s.Wal.scan_valid_end = s.Wal.scan_file_len && last_is_boundary
    in
    let truncated_bytes = s.Wal.scan_file_len - boundary in
    if not clean then truncate_to wal_path boundary;
    let wal = Wal.open_existing ~path:wal_path ~mode ~readonly:false in
    let disk =
      if have_data then Real_disk.open_existing ~dir stats
      else Real_disk.create ~page_size ~dir stats
    in
    (* Redo runs even over a clean log: the log being intact says
       nothing about how far the data file lags it (pages reach the
       device only on eviction or flush, and the WAL rule only
       guarantees the log is AHEAD of the data, never in sync). Replay
       is idempotent — every rebuilt page starts from Alloc zeroes or a
       logged full image — so redoing already-flushed pages rewrites
       them bit-identically. *)
    let psize = Real_disk.page_size disk in
    let images, replayed = redo ~psize s.Wal.scan_records boundary in
    let pages_redone = Hashtbl.length images in
    let max_page = Hashtbl.fold (fun p _ acc -> max p acc) images (-1) in
    let max_page =
      List.fold_left
        (fun acc (_, _, pages) -> Array.fold_left max acc pages)
        max_page (Wal.manifest wal)
    in
    Real_disk.ensure_pages disk (max_page + 1);
    Hashtbl.iter (fun page img -> Real_disk.write ~lsn:0 disk page img) images;
    verify_catalog wal disk;
    rebuild_free_list wal disk;
    if (not clean) || pages_redone > 0 then begin
      (* Durability point + bound the next replay: data first, then the
         log snapshot. [~checkpoint:false] is the replica catch-up path:
         it must keep the local log a byte-prefix of the primary's, so
         the snapshot rewrite (which would reset every LSN) is skipped —
         the data file is still synced so redone pages are durable. *)
      Real_disk.sync disk;
      if checkpoint then Wal.checkpoint wal
    end;
    let report =
      {
        clean;
        wal_records = List.length s.Wal.scan_records;
        replayed;
        truncated_bytes;
        pages_redone;
        duration_s = Unix.gettimeofday () -. t0;
      }
    in
    (disk, wal, report)
  end

(* Scan every manifest-live page through trailer validation; returns the
   pages that fail (chaos harness asserts this is empty). *)
let verify_pages wal disk =
  List.concat_map
    (fun (_, _, pages) ->
      Array.to_list pages
      |> List.filter_map (fun p ->
             match Real_disk.verify disk p with
             | Ok () -> None
             | Error (stored, computed) -> Some (p, stored, computed)))
    (Wal.manifest wal)

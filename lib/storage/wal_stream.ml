(* WAL shipping primitives: a positioned read cursor over a live log
   (primary side), an incremental commit-boundary parser over received
   bytes (replica side), and a raw byte appender that keeps the replica's
   log a byte-prefix of the primary's.

   The shipping invariant is byte identity: the sender reads raw frames
   through its own fd and the applier appends them verbatim, so replica
   LSNs coincide with primary LSNs and every frame re-validates locally
   (CRC + offset stamp). Only bytes up to the primary's commit point are
   drained into the replica's file, so the replica log is clean-ended at
   all times and a read-only [Wal.open_existing] succeeds whenever the
   applier is between batches. *)

(* ------------------------------------------------------------------ *)
(* Cursor: primary-side reader *)

module Cursor = struct
  type t = {
    path : string;
    mutable fd : Unix.file_descr;
    mutable pos : int;
  }

  let open_at ~path ~pos =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0o644 in
    ignore (Unix.lseek fd pos Unix.SEEK_SET);
    { path; fd; pos }

  let pos t = t.pos

  (* A checkpoint rewrites the log via tmp+rename: the path then names a
     new inode and every LSN this cursor knows is meaningless. The
     sender checks this before each batch and forces subscribers through
     a snapshot resync. *)
  let rotated t =
    try
      let on_disk = Unix.stat t.path and open_file = Unix.fstat t.fd in
      on_disk.Unix.st_ino <> open_file.Unix.st_ino
      || on_disk.Unix.st_dev <> open_file.Unix.st_dev
    with Unix.Unix_error _ -> true

  let reopen t ~pos =
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    t.fd <- Unix.openfile t.path [ Unix.O_RDONLY ] 0o644;
    ignore (Unix.lseek t.fd pos Unix.SEEK_SET);
    t.pos <- pos

  (* Read up to [max] bytes, never past [upto] (the primary's current
     shippable end). Returns [Bytes.empty] when already caught up. *)
  let read t ~upto ~max =
    let want = min max (upto - t.pos) in
    if want <= 0 then Bytes.empty
    else begin
      let buf = Bytes.create want in
      let got = ref 0 in
      let eof = ref false in
      while (not !eof) && !got < want do
        match Unix.read t.fd buf !got (want - !got) with
        | 0 -> eof := true
        | n -> got := !got + n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      t.pos <- t.pos + !got;
      if !got = want then buf else Bytes.sub buf 0 !got
    end

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* ------------------------------------------------------------------ *)
(* Tail: replica-side incremental parser *)

module Tail = struct
  type t = {
    mutable buf : bytes;
    mutable len : int;  (** live bytes in [buf] *)
    mutable base : int;  (** file offset of [buf.[0]] *)
  }

  let create ~start_lsn = { buf = Bytes.create 4096; len = 0; base = start_lsn }
  let expected t = t.base + t.len

  let feed t data =
    let n = Bytes.length data in
    if t.len + n > Bytes.length t.buf then begin
      let cap = ref (max 4096 (2 * Bytes.length t.buf)) in
      while t.len + n > !cap do
        cap := 2 * !cap
      done;
      let grown = Bytes.create !cap in
      Bytes.blit t.buf 0 grown 0 t.len;
      t.buf <- grown
    end;
    Bytes.blit data 0 t.buf t.len n;
    t.len <- t.len + n

  type drained = {
    records : (int * Wal.record) list;  (** (end-LSN, record), in order *)
    bytes : bytes;  (** the raw frames behind [records], verbatim *)
    new_end : int;  (** end LSN of the drained prefix *)
  }

  (* Hand back the longest prefix of buffered bytes that ends at a
     commit point; everything behind a [Commit]/[Checkpoint] boundary is
     safe to append + fsync locally because it can never be truncated by
     the primary's recovery. Returns [Ok None] when no boundary is
     buffered yet. *)
  let drain t =
    let records, consumed, status =
      Wal.parse_stream t.buf ~len:t.len ~base:t.base
    in
    match status with
    | Wal.Stream_bad ->
        Error
          (Printf.sprintf "corrupt WAL stream at lsn %d" (t.base + consumed))
    | Wal.Stream_ok -> (
        let boundary =
          List.fold_left
            (fun acc (end_lsn, r) ->
              match r with
              | Wal.Commit | Wal.Checkpoint _ -> end_lsn
              | _ -> acc)
            t.base records
        in
        if boundary = t.base then Ok None
        else begin
          let nbytes = boundary - t.base in
          let bytes = Bytes.sub t.buf 0 nbytes in
          let records =
            List.filter (fun (end_lsn, _) -> end_lsn <= boundary) records
          in
          Bytes.blit t.buf nbytes t.buf 0 (t.len - nbytes);
          t.len <- t.len - nbytes;
          t.base <- boundary;
          Ok (Some { records; bytes; new_end = boundary })
        end)

  (* Drop buffered bytes (resync: the stream restarts elsewhere). *)
  let reset t ~start_lsn =
    t.len <- 0;
    t.base <- start_lsn
end

(* ------------------------------------------------------------------ *)
(* Appender: replica-side raw writer *)

module Appender = struct
  type t = { fd : Unix.file_descr; mutable end_lsn : int }

  let open_at ~path =
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
    let end_lsn = (Unix.fstat fd).Unix.st_size in
    { fd; end_lsn }

  let end_lsn t = t.end_lsn

  let append t data =
    Fd_io.write_all t.fd data 0 (Bytes.length data);
    t.end_lsn <- t.end_lsn + Bytes.length data

  let fsync t = Unix.fsync t.fd
  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* ------------------------------------------------------------------ *)
(* Committed state of an on-disk log (no Wal.t needed) *)

(* (committed_end, epoch) of the log at [path]: the last commit-point
   boundary and the maximum epoch at or before it. Tolerates a torn tail
   (ignored, exactly as recovery would truncate it). *)
let committed_state ~path =
  let s = Wal.scan path in
  if s.Wal.scan_bad_header then Error (path ^ ": unreadable WAL header")
  else begin
    let boundary =
      List.fold_left
        (fun acc (end_lsn, r) ->
          match r with
          | Wal.Commit | Wal.Checkpoint _ -> end_lsn
          | _ -> acc)
        Wal.header_size s.Wal.scan_records
    in
    (* An [Epoch] bump binds only once a later commit point covers it —
       a crash before that commit truncates the bump away. *)
    let epoch =
      List.fold_left
        (fun acc (end_lsn, r) ->
          if end_lsn > boundary then acc
          else
            match r with
            | Wal.Checkpoint { epoch = e; _ } | Wal.Epoch { epoch = e } ->
                max acc e
            | _ -> acc)
        0 s.Wal.scan_records
    in
    Ok (boundary, epoch)
  end

type frame = {
  page_id : int;
  data : bytes;
  mutable dirty : bool;
  mutable page_lsn : int;
      (* LSN of the last WAL record that touched this page; 0 = unlogged *)
  mutable last_use : int;
}

type t = {
  disk : Disk.t;
  wal : Wal.t option;
  capacity : int;
  frames : (int, frame) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?wal disk ~capacity =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity";
  {
    disk;
    wal;
    capacity;
    frames = Hashtbl.create (2 * capacity);
    clock = 0;
    hits = 0;
    misses = 0;
  }

let capacity t = t.capacity
let disk t = t.disk
let wal t = t.wal

let touch t f =
  t.clock <- t.clock + 1;
  f.last_use <- t.clock

let write_back t f =
  if f.dirty then begin
    (* WAL rule: a logged page may reach the data file only after its
       log records — and, because recovery is redo-to-last-commit, only
       after a commit point covering them — are durable. *)
    (match t.wal with
    | Some w when f.page_lsn > 0 -> Wal.ensure_committed w f.page_lsn
    | _ -> ());
    Disk.write ~lsn:f.page_lsn t.disk f.page_id f.data;
    f.dirty <- false
  end

(* Called only on a full pool (capacity >= 1), so a victim exists. *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun _ f best ->
        match best with
        | Some b when b.last_use <= f.last_use -> best
        | _ -> Some f)
      t.frames None
  in
  match victim with
  | None -> ()
  | Some f ->
      write_back t f;
      Hashtbl.remove t.frames f.page_id

let load t page_id =
  match Hashtbl.find_opt t.frames page_id with
  | Some f ->
      t.hits <- t.hits + 1;
      touch t f;
      f
  | None ->
      t.misses <- t.misses + 1;
      if Hashtbl.length t.frames >= t.capacity then evict_one t;
      let f =
        { page_id; data = Disk.read t.disk page_id; dirty = false;
          page_lsn = 0; last_use = 0 }
      in
      touch t f;
      Hashtbl.replace t.frames page_id f;
      f

let read t page_id = (load t page_id).data

(* A freshly allocated page is zeroes on disk ([Disk.alloc]'s contract),
   so the frame can start as zeroes too, clean, without a read. A frame
   still cached under a recycled page id holds the previous owner's
   bytes: it is zeroed in place (no allocation) and never written back.
   Not a lookup: the hit and miss counters stay as they are. *)
let install_fresh t page_id =
  match Hashtbl.find_opt t.frames page_id with
  | Some f ->
      Bytes.fill f.data 0 (Bytes.length f.data) '\000';
      f.dirty <- false;
      f.page_lsn <- 0;
      touch t f
  | None ->
      if Hashtbl.length t.frames >= t.capacity then evict_one t;
      let f =
        { page_id; data = Bytes.make (Disk.page_size t.disk) '\000'; dirty = false;
          page_lsn = 0; last_use = 0 }
      in
      touch t f;
      Hashtbl.replace t.frames page_id f

let with_write ?lsn t page_id fn =
  let f = load t page_id in
  fn f.data;
  f.dirty <- true;
  match lsn with
  | Some l when l > f.page_lsn -> f.page_lsn <- l
  | _ -> ()

let flush t = Hashtbl.iter (fun _ f -> write_back t f) t.frames

let reset_lsns t =
  Hashtbl.iter
    (fun _ f -> if not f.dirty then f.page_lsn <- 0)
    t.frames

let drop t =
  flush t;
  Hashtbl.reset t.frames

let hits t = t.hits
let misses t = t.misses
let counters t = (t.hits, t.misses)

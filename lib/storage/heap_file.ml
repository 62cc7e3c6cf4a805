type t = {
  env : Env.t;
  disk : Disk.t;  (** the backend this file's pages live on *)
  pool : Buffer_pool.t;  (** the pool in front of [disk] *)
  log : (Wal.t * int) option;  (** (wal, file id); durable files only *)
  mutable page_ids : int array;  (** physical page id of each file page *)
  mutable npages : int;
  mutable recs_per_page : int array;
  mutable nrecords : int;
  mutable tail_free : int;  (** next free byte offset in the last page *)
}

let header_size = 2

let create ?(durable = false) env =
  let disk, pool, log =
    if durable then begin
      match Env.wal env with
      | None -> invalid_arg "Heap_file.create: ~durable on a simulated env"
      | Some wal -> (env.Env.disk, env.Env.pool, Some (wal, Wal.new_file wal))
    end
    else
      (* Default: temporary pages — unlogged, rebuilt on restart. In a
         simulated environment these are the main disk/pool, so nothing
         changes for existing callers. *)
      (env.Env.temp_disk, env.Env.temp_pool, None)
  in
  {
    env;
    disk;
    pool;
    log;
    page_ids = Array.make 8 (-1);
    npages = 0;
    recs_per_page = Array.make 8 0;
    nrecords = 0;
    tail_free = 0;
  }

let env t = t.env
let disk t = t.disk
let pool t = t.pool
let fid t = match t.log with Some (_, fid) -> Some fid | None -> None
let is_durable t = t.log <> None

let set_meta t meta =
  match t.log with
  | Some (wal, fid) -> Wal.log_define wal ~fid ~meta
  | None -> ()

let grow t =
  let cap = Array.length t.page_ids in
  if t.npages >= cap then begin
    let ids = Array.make (cap * 2) (-1) in
    Array.blit t.page_ids 0 ids 0 cap;
    t.page_ids <- ids;
    let rp = Array.make (cap * 2) 0 in
    Array.blit t.recs_per_page 0 rp 0 cap;
    t.recs_per_page <- rp
  end

let add_page t =
  grow t;
  let id = Disk.alloc t.disk in
  (match t.log with
  | Some (wal, fid) -> ignore (Wal.log_alloc wal ~fid ~page:id)
  | None -> ());
  t.page_ids.(t.npages) <- id;
  t.recs_per_page.(t.npages) <- 0;
  t.npages <- t.npages + 1;
  t.tail_free <- header_size;
  (* Last: making room for the frame may write a victim back, and if that
     write fails the page must already be on the file's list for
     [destroy] to free. *)
  Buffer_pool.install_fresh t.pool id

let check_len t len =
  if len + 2 + header_size > Env.page_size t.env then
    invalid_arg "Heap_file.append: record larger than a page";
  if len > 0xffff then invalid_arg "Heap_file.append: record longer than 65535"

let append_sub t record pos len =
  let page_size = Env.page_size t.env in
  check_len t len;
  if t.npages = 0 || t.tail_free + 2 + len > page_size then add_page t;
  let pi = t.npages - 1 in
  let off = t.tail_free in
  let pid = t.page_ids.(pi) in
  let count = t.recs_per_page.(pi) + 1 in
  let lsn =
    match t.log with
    | None -> None
    | Some (wal, _) ->
        (* Log before the in-pool mutation. The record carries the
           len-prefixed bytes; [image] captures the page's pre-append
           content if this is its first post-checkpoint touch. *)
        let data = Bytes.create (2 + len) in
        Bytes.set_uint16_le data 0 len;
        Bytes.blit record pos data 2 len;
        Some
          (Wal.log_heap_append wal ~page:pid ~off ~count ~data
             ~image:(fun () -> Bytes.copy (Buffer_pool.read t.pool pid)))
  in
  Buffer_pool.with_write ?lsn t.pool pid (fun data ->
      Bytes.set_uint16_le data off len;
      Bytes.blit record pos data (off + 2) len;
      Bytes.set_uint16_le data 0 count);
  t.recs_per_page.(pi) <- count;
  t.tail_free <- off + 2 + len;
  t.nrecords <- t.nrecords + 1

let append t record = append_sub t record 0 (Bytes.length record)

(* The records that fit on the last page are laid out under one pool
   write, so a page costs one buffer-pool lookup rather than one per
   record. Only for unlogged files: a durable append needs its own WAL
   record. How many fit is settled before the write, so a record that
   cannot fit anywhere raises ([check_len]) with every earlier record
   appended and no page half-written. *)
let append_many t bufs offs lens n =
  if t.log <> None then invalid_arg "Heap_file.append_many: durable file";
  let page_size = Env.page_size t.env in
  let k = ref 0 in
  while !k < n do
    check_len t lens.(!k);
    if t.npages = 0 || t.tail_free + 2 + lens.(!k) > page_size then add_page t;
    let first = !k and used = ref t.tail_free in
    while !k < n && !used + 2 + lens.(!k) <= page_size do
      used := !used + 2 + lens.(!k);
      incr k
    done;
    let last = !k and pi = t.npages - 1 in
    let count = t.recs_per_page.(pi) + (last - first) in
    Buffer_pool.with_write t.pool t.page_ids.(pi) (fun data ->
        let off = ref t.tail_free in
        for j = first to last - 1 do
          let len = lens.(j) in
          Bytes.set_uint16_le data !off len;
          Bytes.blit bufs.(j) offs.(j) data (!off + 2) len;
          off := !off + 2 + len
        done;
        Bytes.set_uint16_le data 0 count);
    t.recs_per_page.(pi) <- count;
    t.tail_free <- !used;
    t.nrecords <- t.nrecords + (last - first)
  done

let num_records t = t.nrecords
let num_pages t = t.npages

let destroy t =
  (match t.log with
  | Some (wal, fid) -> Wal.log_free wal ~fid
  | None -> ());
  Disk.free t.disk (Array.to_list (Array.sub t.page_ids 0 t.npages));
  t.npages <- 0;
  t.nrecords <- 0;
  t.tail_free <- 0

(* Reattach a durable file recovered from the WAL manifest: rebuild the
   per-page record counts and the tail offset by reading the pages. *)
let open_durable env ~fid ~pages =
  match Env.wal env with
  | None -> invalid_arg "Heap_file.open_durable: simulated env"
  | Some wal ->
      let npages = Array.length pages in
      let cap = max 8 npages in
      let t =
        {
          env;
          disk = env.Env.disk;
          pool = env.Env.pool;
          log = Some (wal, fid);
          page_ids = Array.init cap (fun i -> if i < npages then pages.(i) else -1);
          npages;
          recs_per_page = Array.make cap 0;
          nrecords = 0;
          tail_free = 0;
        }
      in
      for i = 0 to npages - 1 do
        let data = Buffer_pool.read t.pool pages.(i) in
        let count = Bytes.get_uint16_le data 0 in
        t.recs_per_page.(i) <- count;
        t.nrecords <- t.nrecords + count;
        if i = npages - 1 then begin
          (* Walk the last page to find the append point. *)
          let off = ref header_size in
          for _ = 1 to count do
            off := !off + 2 + Bytes.get_uint16_le data !off
          done;
          t.tail_free <- !off
        end
      done;
      t

let home_pool = pool

module Slices = struct
  type file = t

  type t = {
    file : file;
    pool : Buffer_pool.t;
    mutable page_i : int;
    mutable page : bytes;
    mutable left : int;  (** records on [page] after the current one *)
    mutable next : int;  (** offset of the next record's length prefix *)
    mutable off : int;
    mutable len : int;
  }

  let of_file ?pool file =
    {
      file;
      pool = Option.value pool ~default:(home_pool file);
      page_i = -1;
      page = Bytes.empty;
      left = 0;
      next = 0;
      off = 0;
      len = 0;
    }

  let rec advance c =
    if c.left > 0 then begin
      c.len <- Bytes.get_uint16_le c.page c.next;
      c.off <- c.next + 2;
      c.next <- c.off + c.len;
      c.left <- c.left - 1;
      true
    end
    else if c.page_i + 1 < c.file.npages then begin
      c.page_i <- c.page_i + 1;
      c.page <- Buffer_pool.read c.pool c.file.page_ids.(c.page_i);
      c.left <- Bytes.get_uint16_le c.page 0;
      c.next <- header_size;
      advance c
    end
    else false

  let page c = c.page
  let off c = c.off
  let len c = c.len
  let buffered c = c.left
end

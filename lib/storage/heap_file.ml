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

let set_u16 buf off v =
  Bytes.set_uint8 buf off (v land 0xff);
  Bytes.set_uint8 buf (off + 1) ((v lsr 8) land 0xff)

let get_u16 buf off = Bytes.get_uint8 buf off lor (Bytes.get_uint8 buf (off + 1) lsl 8)

let add_page t =
  grow t;
  let id = Disk.alloc t.disk in
  (match t.log with
  | Some (wal, fid) -> ignore (Wal.log_alloc wal ~fid ~page:id)
  | None -> ());
  t.page_ids.(t.npages) <- id;
  t.recs_per_page.(t.npages) <- 0;
  t.npages <- t.npages + 1;
  t.tail_free <- header_size

let append t record =
  let page_size = Env.page_size t.env in
  let len = Bytes.length record in
  if len + 2 + header_size > page_size then
    invalid_arg "Heap_file.append: record larger than a page";
  if len > 0xffff then invalid_arg "Heap_file.append: record longer than 65535";
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
        set_u16 data 0 len;
        Bytes.blit record 0 data 2 len;
        Some
          (Wal.log_heap_append wal ~page:pid ~off ~count ~data
             ~image:(fun () -> Bytes.copy (Buffer_pool.read t.pool pid)))
  in
  Buffer_pool.with_write ?lsn t.pool pid (fun data ->
      set_u16 data off len;
      Bytes.blit record 0 data (off + 2) len;
      set_u16 data 0 count);
  t.recs_per_page.(pi) <- count;
  t.tail_free <- off + 2 + len;
  t.nrecords <- t.nrecords + 1

let num_records t = t.nrecords
let num_pages t = t.npages

let parse_page data =
  let count = get_u16 data 0 in
  let rec go acc off i =
    if i >= count then List.rev acc
    else
      let len = get_u16 data off in
      let record = Bytes.sub data (off + 2) len in
      go (record :: acc) (off + 2 + len) (i + 1)
  in
  go [] header_size 0

let page_records_via pool t i =
  if i < 0 || i >= t.npages then invalid_arg "Heap_file.page_records";
  parse_page (Buffer_pool.read pool t.page_ids.(i))

let page_records t i = page_records_via t.pool t i

let iter t f =
  for i = 0 to t.npages - 1 do
    List.iter f (page_records t i)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun r -> acc := f !acc r);
  !acc

let pin_page t i =
  if i < 0 || i >= t.npages then invalid_arg "Heap_file.pin_page";
  Buffer_pool.pin t.pool t.page_ids.(i)

let unpin_page t i =
  if i < 0 || i >= t.npages then invalid_arg "Heap_file.unpin_page";
  Buffer_pool.unpin t.pool t.page_ids.(i)

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
        let count = get_u16 data 0 in
        t.recs_per_page.(i) <- count;
        t.nrecords <- t.nrecords + count;
        if i = npages - 1 then begin
          (* Walk the last page to find the append point. *)
          let off = ref header_size in
          for _ = 1 to count do
            off := !off + 2 + get_u16 data !off
          done;
          t.tail_free <- !off
        end
      done;
      t

let home_pool = pool

module Cursor = struct
  type file = t

  type t = {
    file : file;
    pool : Buffer_pool.t;
    mutable page_i : int;
    mutable rec_i : int;  (** index within the cached page *)
    mutable abs : int;
    mutable cache : bytes array;  (** records of page [page_i] *)
    mutable cache_page : int;  (** which page the cache holds, -1 if none *)
  }

  let of_file ?pool file =
    let pool = Option.value pool ~default:(home_pool file) in
    { file; pool; page_i = 0; rec_i = 0; abs = 0; cache = [||]; cache_page = -1 }

  let fill c =
    if c.cache_page <> c.page_i && c.page_i < c.file.npages then begin
      c.cache <- Array.of_list (page_records_via c.pool c.file c.page_i);
      c.cache_page <- c.page_i
    end

  let rec peek c =
    if c.page_i >= c.file.npages then None
    else begin
      fill c;
      if c.rec_i < Array.length c.cache then Some c.cache.(c.rec_i)
      else begin
        c.page_i <- c.page_i + 1;
        c.rec_i <- 0;
        peek c
      end
    end

  let next c =
    match peek c with
    | None -> None
    | Some r ->
        c.rec_i <- c.rec_i + 1;
        c.abs <- c.abs + 1;
        Some r

  let pos c = c.abs

  let buffered c =
    if c.cache_page = c.page_i then Array.length c.cache - c.rec_i else 0

  let seek c target =
    let target = Int.max 0 (Int.min target c.file.nrecords) in
    let rec locate page remaining =
      if page >= c.file.npages then (page, 0)
      else
        let n = c.file.recs_per_page.(page) in
        if remaining < n then (page, remaining) else locate (page + 1) (remaining - n)
    in
    let page, rec_i = locate 0 target in
    c.page_i <- page;
    c.rec_i <- rec_i;
    c.abs <- target

  let page_index c =
    match peek c with None -> None | Some _ -> Some c.page_i
end

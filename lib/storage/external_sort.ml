(* Binary min-heap of cursor heads for the k-way merge. *)
module Heap = struct
  type 'a t = { mutable data : 'a array; mutable size : int; le : 'a -> 'a -> bool }

  let create le = { data = [||]; size = 0; le }
  let is_empty h = h.size = 0

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if h.le h.data.(i) h.data.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && h.le h.data.(l) h.data.(!smallest) then smallest := l;
    if r < h.size && h.le h.data.(r) h.data.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h x =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (Int.max 4 (2 * h.size)) x in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- x;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let top h =
    if h.size = 0 then invalid_arg "Heap.top: empty";
    h.data.(0)

  let pop h =
    if h.size = 0 then invalid_arg "Heap.pop: empty";
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    top
end

(* ------------------------------------------------------------------ *)
(* Sorted streams.

   Run formation reads each record's sort key (support lo, support hi)
   once into two unboxed float columns and sorts an index permutation
   over them, so the comparator never touches record bytes. Records are
   never copied out of their pages ({!Heap_file.Slices}): a run-formation
   batch holds slices of its input pages, and the merges read keys and
   decode records in place. The last merge pass is not written: it is a
   pull stream that the consumer (the merge-join sweep) reads in chunks,
   decoding each record exactly once as it leaves the merge. Both inputs'
   final merges share the memory budget, one page per run cursor. Every
   run file is destroyed on return and on abort, so an injected fault or
   a cancellation leaves [Disk.live_pages] at its baseline. *)

type spec = {
  name : string;
  file : Heap_file.t;
  key : bytes -> int -> Fuzzy.Interval.t;
}

let batch_poll = 1024

(* Records as slices [pages.(i)] from [offs.(i)], [lens.(i)] bytes long. *)
type recs = {
  mutable pages : bytes array;
  mutable offs : int array;
  mutable lens : int array;
  mutable n : int;
}

let recs_create () = { pages = [||]; offs = [||]; lens = [||]; n = 0 }

let recs_push r page off len =
  if r.n = Array.length r.offs then begin
    let cap = Int.max 256 (2 * r.n) in
    let pages = Array.make cap Bytes.empty
    and offs = Array.make cap 0
    and lens = Array.make cap 0 in
    Array.blit r.pages 0 pages 0 r.n;
    Array.blit r.offs 0 offs 0 r.n;
    Array.blit r.lens 0 lens 0 r.n;
    r.pages <- pages;
    r.offs <- offs;
    r.lens <- lens
  end;
  r.pages.(r.n) <- page;
  r.offs.(r.n) <- off;
  r.lens.(r.n) <- len;
  r.n <- r.n + 1

(* A run holding [r]'s records in order, destroyed if writing fails. *)
let write_recs env r =
  let run = Heap_file.create env in
  try
    for k = 0 to r.n - 1 do
      Heap_file.append_sub run r.pages.(k) r.offs.(k) r.lens.(k)
    done;
    run
  with e ->
    Heap_file.destroy run;
    raise e

(* [r]'s records in key order, as a new batch: one key read per record,
   an index permutation sorted over the key columns, one comparison
   charged per comparator call. [r] is emptied. *)
let sort_by_key stats key r =
  let n = r.n in
  let klo = Array.make n 0.0 and khi = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let k = key r.pages.(i) r.offs.(i) in
    klo.(i) <- Fuzzy.Interval.lo k;
    khi.(i) <- Fuzzy.Interval.hi k
  done;
  let idx = Array.init n (fun i -> i) in
  Array.sort
    (fun i j ->
      Iostats.record_comparison stats;
      let c = Float.compare klo.(i) klo.(j) in
      if c <> 0 then c else Float.compare khi.(i) khi.(j))
    idx;
  let sorted =
    {
      pages = Array.map (Array.get r.pages) idx;
      offs = Array.map (Array.get r.offs) idx;
      lens = Array.map (Array.get r.lens) idx;
      n;
    }
  in
  Array.fill r.pages 0 n Bytes.empty;
  r.n <- 0;
  sorted

(* An input after run formation: its records sorted in memory (it fitted
   in one run, so nothing was written), or its sorted run files. *)
type side = Rows of { recs : recs; bytes : int } | Runs of Heap_file.t list

type 'a stream = {
  stats : Iostats.t;
  next : max:int -> page_bound:bool -> 'a array;
  mutable pull_s : float;  (** summed wall time of the pulls *)
  mutable first_s : float;  (** instant of the first pull; nan before *)
}

(* Run formation over one input with a budget of [budget] bytes. Records
   that other inputs keep in memory count against the budget too: once
   they and this input's batch reach it, [spill_held] writes them out.
   Every run written is pushed on [live]. *)
let form_side ?cancel env ~budget ~live ~held_bytes ~spill_held spec =
  let stats = env.Env.stats in
  let runs = ref [] in
  let batch = recs_create () and batch_bytes = ref 0 in
  let flush () =
    let run = write_recs env (sort_by_key stats spec.key batch) in
    live := run :: !live;
    runs := run :: !runs;
    batch_bytes := 0
  in
  let c = Heap_file.Slices.of_file spec.file in
  while Heap_file.Slices.advance c do
    if batch.n land (batch_poll - 1) = 0 then Cancel.check cancel;
    let len = Heap_file.Slices.len c in
    recs_push batch (Heap_file.Slices.page c) (Heap_file.Slices.off c) len;
    batch_bytes := !batch_bytes + len + 2;
    if !batch_bytes + held_bytes () >= budget then spill_held ();
    if !batch_bytes >= budget then flush ()
  done;
  if !runs = [] then
    Rows { recs = sort_by_key stats spec.key batch; bytes = !batch_bytes }
  else begin
    if batch.n > 0 then flush ();
    Runs (List.rev !runs)
  end

(* The k-way merge of run scans [cs]: a binary heap of run indices ordered
   by their current record's key, kept in unboxed columns. *)
type merger = {
  heap : int Heap.t;
  cs : Heap_file.Slices.t array;
  klo : float array;
  khi : float array;
  mkey : bytes -> int -> Fuzzy.Interval.t;
}

let advance m i =
  let c = m.cs.(i) in
  if Heap_file.Slices.advance c then begin
    let k = m.mkey (Heap_file.Slices.page c) (Heap_file.Slices.off c) in
    m.klo.(i) <- Fuzzy.Interval.lo k;
    m.khi.(i) <- Fuzzy.Interval.hi k;
    Heap.push m.heap i
  end

let merger stats ~key cs =
  let k = Array.length cs in
  let klo = Array.make k 0.0 and khi = Array.make k 0.0 in
  let le i j =
    Iostats.record_comparison stats;
    let c = Float.compare klo.(i) klo.(j) in
    (if c <> 0 then c else Float.compare khi.(i) khi.(j)) <= 0
  in
  let m = { heap = Heap.create le; cs; klo; khi; mkey = key } in
  for i = 0 to k - 1 do
    advance m i
  done;
  m

(* [f] over the least record; its run's next record takes its place. *)
let pop m f =
  let i = Heap.pop m.heap in
  let c = m.cs.(i) in
  let page = Heap_file.Slices.page c
  and off = Heap_file.Slices.off c
  and len = Heap_file.Slices.len c in
  advance m i;
  f page off len

(* An intermediate pass: merge [group] into one new run and destroy the
   group. On abort the partial output is destroyed and the group is left
   to the caller. *)
let merge_group ?cancel env ~key group =
  let out = Heap_file.create env in
  try
    let m =
      merger env.Env.stats ~key
        (Array.of_list (List.map (fun r -> Heap_file.Slices.of_file r) group))
    in
    let append page off len = Heap_file.append_sub out page off len in
    let popped = ref 0 in
    while not (Heap.is_empty m.heap) do
      if !popped land (batch_poll - 1) = 0 then Cancel.check cancel;
      incr popped;
      pop m append
    done;
    List.iter Heap_file.destroy group;
    out
  with e ->
    Heap_file.destroy out;
    raise e

(* The final merge as a chunk source. A page-bound chunk stops before the
   pop that would make a run scan read its next page, so the consumer is
   never ahead of its need by more than one page per run. *)
let runs_next ~decode m =
  fun ~max ~page_bound ->
    if Heap.is_empty m.heap then [||]
    else begin
      let rows = Array.make max (pop m decode) in
      let n = ref 1 in
      while
        !n < max
        && (not (Heap.is_empty m.heap))
        && not
             (page_bound
             && Heap_file.Slices.buffered m.cs.(Heap.top m.heap) = 0)
      do
        rows.(!n) <- pop m decode;
        incr n
      done;
      if !n = max then rows else Array.sub rows 0 !n
    end

(* An input kept in memory, decoded as it is pulled; each page is let go
   once its records are decoded. *)
let rows_next ~decode r =
  let pos = ref 0 in
  fun ~max ~page_bound:_ ->
    let p = !pos in
    let n = Int.min max (r.n - p) in
    pos := p + n;
    Array.init n (fun k ->
        let v = decode r.pages.(p + k) r.offs.(p + k) r.lens.(p + k) in
        r.pages.(p + k) <- Bytes.empty;
        v)

let pull s ~max ~page_bound =
  if max < 1 then invalid_arg "External_sort.pull: max < 1";
  let t0 = Unix.gettimeofday () in
  if Float.is_nan s.first_s then s.first_s <- t0;
  let rows =
    Iostats.timed s.stats Iostats.Sort (fun () -> s.next ~max ~page_bound)
  in
  s.pull_s <- s.pull_s +. (Unix.gettimeofday () -. t0);
  rows

let add_merge_span trace s =
  if not (Float.is_nan s.first_s) then
    Trace.add_timed_span trace "k-way-merge" ~start_s:s.first_s ~dur_s:s.pull_s

let with_sorted ?trace ?cancel ~mem_pages ~decode outer inner f =
  if mem_pages < 3 then invalid_arg "External_sort.with_sorted: mem_pages < 3";
  let env = Heap_file.env outer.file in
  let stats = env.Env.stats in
  let page_size = Env.page_size env in
  (* Every run file not yet destroyed; all are destroyed on return and on
     abort. *)
  let live = ref [] in
  let cleanup () =
    List.iter Heap_file.destroy !live;
    live := []
  in
  let specs = [| outer; inner |] in
  let sides = [| Runs []; Runs [] |] in
  let spill i =
    match sides.(i) with
    | Rows { recs; bytes } when bytes > 0 ->
        let run = write_recs env recs in
        live := run :: !live;
        sides.(i) <- Runs [ run ]
    | Rows _ | Runs _ -> ()
  in
  let held_bytes () =
    Array.fold_left
      (fun acc -> function Rows { bytes; _ } -> acc + bytes | Runs _ -> acc)
      0 sides
  in
  let spill_held () = Array.iteri (fun i _ -> spill i) sides in
  (* Pages of the shared budget a side's final merge occupies: its
     in-memory records, or one page per run cursor. *)
  let cost = function
    | Rows { bytes; _ } -> (bytes + page_size - 1) / page_size
    | Runs runs -> List.length runs
  in
  let total () = cost sides.(0) + cost sides.(1) in
  (* While the budget is exceeded, write an in-memory side out, or merge
     just enough runs of the side with more runs into one. *)
  let rec fit () =
    if total () > mem_pages then begin
      let in_memory i =
        match sides.(i) with Rows _ -> cost sides.(i) > 1 | Runs _ -> false
      in
      (match List.find_opt in_memory [ 0; 1 ] with
      | Some i -> spill i
      | None -> (
          let i = if cost sides.(0) >= cost sides.(1) then 0 else 1 in
          match sides.(i) with
          | Runs runs ->
              let g =
                Int.min (List.length runs)
                  (Int.max 2 (Int.min (total () - mem_pages + 1) (mem_pages - 1)))
              in
              let group = List.filteri (fun j _ -> j < g) runs
              and rest = List.filteri (fun j _ -> j >= g) runs in
              let out = merge_group ?cancel env ~key:specs.(i).key group in
              live := out :: List.filter (fun r -> not (List.memq r group)) !live;
              sides.(i) <- Runs (rest @ [ out ])
          | Rows _ -> assert false));
      fit ()
    end
  in
  let open_stream i =
    let next =
      match sides.(i) with
      | Rows { recs; _ } -> rows_next ~decode recs
      | Runs [] -> fun ~max:_ ~page_bound:_ -> [||]
      | Runs (first :: _ as runs) ->
          Buffer_pool.flush (Heap_file.pool first);
          let pool =
            Buffer_pool.create (Heap_file.disk first) ~capacity:(List.length runs)
          in
          runs_next ~decode
            (merger stats ~key:specs.(i).key
               (Array.of_list
                  (List.map (fun r -> Heap_file.Slices.of_file ~pool r) runs)))
    in
    { stats; next; pull_s = 0.0; first_s = Float.nan }
  in
  match
    let so, si =
      Iostats.timed stats Iostats.Sort (fun () ->
          Array.iteri
            (fun i spec ->
              Trace.with_span trace ~stats ~pool:env.Env.pool spec.name (fun () ->
                  sides.(i) <-
                    Trace.with_span trace ~stats ~pool:env.Env.pool "run-formation"
                      (fun () ->
                        form_side ?cancel env ~budget:(mem_pages * page_size)
                          ~live ~held_bytes ~spill_held spec);
                  Trace.set_rows trace (Heap_file.num_records spec.file)))
            specs;
          if total () > mem_pages then
            Trace.with_span trace ~stats ~pool:env.Env.pool "k-way-merge" fit;
          (open_stream 0, open_stream 1))
    in
    f so si
  with
  | v ->
      cleanup ();
      v
  | exception e ->
      cleanup ();
      raise e

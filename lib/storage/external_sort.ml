(* ------------------------------------------------------------------ *)
(* Sorted streams.

   Run formation reads each record's sort key (support lo, support hi)
   once into two unboxed float columns and sorts an index permutation
   over them, so the comparator never touches record bytes. Records are
   never copied out of their pages ({!Heap_file.Slices}): a run-formation
   batch holds slices of its input pages, and the merges read keys in
   place. The last merge pass is not written: it is a pull stream that
   the consumer (the merge-join sweep) reads in chunks of record views
   (page, offset, length), so no record is decoded here. Both inputs'
   final merges share the memory budget, one page per run cursor. Every
   run file is destroyed on return and on abort, so an injected fault or
   a cancellation leaves [Disk.live_pages] at its baseline. *)

type spec = {
  name : string;
  file : Heap_file.t;
  key : bytes -> int -> float array -> float array -> int -> unit;
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
    Heap_file.append_many run r.pages r.offs r.lens r.n;
    run
  with e ->
    Heap_file.destroy run;
    raise e

(* The (lo, hi) key order on row indices, over unboxed key columns. Keys
   are never NaN ([Interval.make] refuses one), so [<] and [=] order them
   as [Float.compare] does. *)
let[@inline] key_le (klo : float array) (khi : float array) a b =
  let la = Array.unsafe_get klo a and lb = Array.unsafe_get klo b in
  la < lb || (la = lb && Array.unsafe_get khi a <= Array.unsafe_get khi b)

let[@inline] key_lt (klo : float array) (khi : float array) a b =
  let la = Array.unsafe_get klo a and lb = Array.unsafe_get klo b in
  la < lb || (la = lb && Array.unsafe_get khi a < Array.unsafe_get khi b)

(* Merge the sorted [src.(lo .. mid-1)] and [src.(mid .. hi-1)] into
   [dst.(lo .. hi-1)], left first on equal keys; returns the comparisons
   made. *)
let merge_halves klo khi src dst lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo and cmps = ref 0 in
  while !i < mid && !j < hi do
    incr cmps;
    let a = Array.unsafe_get src !i and b = Array.unsafe_get src !j in
    if key_le klo khi a b then begin
      Array.unsafe_set dst !k a;
      incr i
    end
    else begin
      Array.unsafe_set dst !k b;
      incr j
    end;
    incr k
  done;
  (* The tail left over is short on average: copied inline, not through
     a blit call per merge. *)
  for p = !i to mid - 1 do
    Array.unsafe_set dst !k (Array.unsafe_get src p);
    incr k
  done;
  for p = !j to hi - 1 do
    Array.unsafe_set dst !k (Array.unsafe_get src p);
    incr k
  done;
  !cmps

(* A stable top-down merge sort of [dst.(lo .. hi-1)], row indices ordered
   by key; [src] holds the same indices there on entry and is scratch.
   Returns the comparisons made. Two rows are ordered in place, with the
   one comparison their merge would make. *)
let rec sort_range klo khi src dst lo hi =
  let n = hi - lo in
  if n < 2 then 0
  else if n = 2 then begin
    let a = Array.unsafe_get dst lo and b = Array.unsafe_get dst (lo + 1) in
    if not (key_le klo khi a b) then begin
      Array.unsafe_set dst lo b;
      Array.unsafe_set dst (lo + 1) a
    end;
    1
  end
  else begin
    let mid = (lo + hi) lsr 1 in
    let c =
      sort_range klo khi dst src lo mid + sort_range klo khi dst src mid hi
    in
    c + merge_halves klo khi src dst lo mid hi
  end

let sort_index klo khi =
  let n = Array.length klo in
  if Array.length khi <> n then invalid_arg "External_sort.sort_index: column lengths differ";
  let idx = Array.init n Fun.id in
  let cmps = sort_range klo khi (Array.copy idx) idx 0 n in
  (idx, cmps)

(* [r]'s records in key order, as a new batch: one key read per record
   into unboxed columns, then {!sort_index}. [r] is emptied. *)
let sort_by_key stats key r =
  let n = r.n in
  let klo = Array.make n 0.0 and khi = Array.make n 0.0 in
  for i = 0 to n - 1 do
    key r.pages.(i) r.offs.(i) klo khi i
  done;
  let idx, cmps = sort_index klo khi in
  Iostats.record_comparisons stats cmps;
  let sorted =
    { pages = Array.make n Bytes.empty; offs = Array.make n 0; lens = Array.make n 0; n }
  in
  for k = 0 to n - 1 do
    let i = idx.(k) in
    sorted.pages.(k) <- r.pages.(i);
    sorted.offs.(k) <- r.offs.(i);
    sorted.lens.(k) <- r.lens.(i)
  done;
  Array.fill r.pages 0 n Bytes.empty;
  r.n <- 0;
  sorted

(* An input after run formation: its records sorted in memory (it fitted
   in one run, so nothing was written), or its sorted run files. *)
type side = Rows of { recs : recs; bytes : int } | Runs of Heap_file.t list

type views = { pages : bytes array; offs : int array; lens : int array }

let no_views = { pages = [||]; offs = [||]; lens = [||] }

type stream = {
  stats : Iostats.t;
  next : max:int -> page_bound:bool -> views;
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

(* The k-way merge of run scans [cs]: a binary min-heap of run indices
   ([heap.(0 .. size-1)]) ordered by their current record's key, which is
   kept in unboxed columns and compared inline. A pop emits the top run's
   record and replaces it by that run's next one with a single sift-down.
   Comparisons accumulate in [cmps] until {!charge} moves them to the
   statistics. *)
type merger = {
  cs : Heap_file.Slices.t array;
  heap : int array;
  mutable size : int;
  klo : float array;
  khi : float array;
  mkey : bytes -> int -> float array -> float array -> int -> unit;
  mutable cmps : int;
}

let charge stats m =
  Iostats.record_comparisons stats m.cmps;
  m.cmps <- 0

(* Restore the heap below slot [i]: one comparison between two children,
   one between the smaller child and the parent. *)
let rec sift_down m i =
  let l = (2 * i) + 1 in
  if l < m.size then begin
    let h = m.heap and klo = m.klo and khi = m.khi in
    let r = l + 1 in
    let c =
      if r < m.size then begin
        m.cmps <- m.cmps + 1;
        if key_lt klo khi h.(r) h.(l) then r else l
      end
      else l
    in
    m.cmps <- m.cmps + 1;
    let hc = h.(c) and hi = h.(i) in
    if key_lt klo khi hc hi then begin
      h.(i) <- hc;
      h.(c) <- hi;
      sift_down m c
    end
  end

(* Move run [i]'s scan to its next record and read its key; [false] at the
   end of the run. *)
let advance m i =
  let c = m.cs.(i) in
  Heap_file.Slices.advance c
  && begin
       m.mkey (Heap_file.Slices.page c) (Heap_file.Slices.off c) m.klo m.khi i;
       true
     end

let merger ~key cs =
  let k = Array.length cs in
  let m =
    { cs; heap = Array.make k 0; size = 0; klo = Array.make k 0.0;
      khi = Array.make k 0.0; mkey = key; cmps = 0 }
  in
  for i = 0 to k - 1 do
    if advance m i then begin
      m.heap.(m.size) <- i;
      m.size <- m.size + 1
    end
  done;
  for i = (m.size / 2) - 1 downto 0 do
    sift_down m i
  done;
  m

(* The least record's scan; its page, offset and length are read before
   the {!pop} that moves it on. *)
let top m = m.cs.(m.heap.(0))

(* Replace the least record by its run's next one. *)
let pop m =
  let i = m.heap.(0) in
  if not (advance m i) then begin
    m.size <- m.size - 1;
    m.heap.(0) <- m.heap.(m.size)
  end;
  sift_down m 0

(* An intermediate pass: merge [group] into one new run and destroy the
   group. On abort the partial output is destroyed and the group is left
   to the caller. *)
let merge_runs ?cancel env ~key group =
  let out = Heap_file.create env in
  try
    let m =
      merger ~key
        (Array.of_list (List.map (fun r -> Heap_file.Slices.of_file r) group))
    in
    (* One record at a time: the output's tail page is touched per record,
       so it is never the pool's LRU victim while the group's pages are
       read, and the pass's page I/Os stay what they were. *)
    let popped = ref 0 in
    while m.size > 0 do
      if !popped land (batch_poll - 1) = 0 then Cancel.check cancel;
      incr popped;
      let c = top m in
      let page = Heap_file.Slices.page c
      and off = Heap_file.Slices.off c
      and len = Heap_file.Slices.len c in
      pop m;
      Heap_file.append_sub out page off len
    done;
    charge env.Env.stats m;
    List.iter Heap_file.destroy group;
    out
  with e ->
    Heap_file.destroy out;
    raise e

(* The final merge as a chunk source: each pop's record goes into the
   chunk as a view, staged in scratch columns and copied out at the
   chunk's length, so nothing is allocated per record. A page-bound chunk
   stops before the pop that would make a run scan read its next page, so
   the consumer is never ahead of its need by more than one page per
   run. *)
let runs_next stats m =
  let scratch = ref no_views in
  fun ~max ~page_bound ->
    if m.size = 0 then no_views
    else begin
      if Array.length !scratch.offs < max then
        scratch :=
          { pages = Array.make max Bytes.empty; offs = Array.make max 0;
            lens = Array.make max 0 };
      let { pages; offs; lens } = !scratch in
      let n = ref 0 in
      while
        !n = 0
        || !n < max && m.size > 0
           && not (page_bound && Heap_file.Slices.buffered (top m) = 0)
      do
        let c = top m in
        Array.unsafe_set pages !n (Heap_file.Slices.page c);
        Array.unsafe_set offs !n (Heap_file.Slices.off c);
        Array.unsafe_set lens !n (Heap_file.Slices.len c);
        pop m;
        incr n
      done;
      charge stats m;
      let v =
        { pages = Array.sub pages 0 !n; offs = Array.sub offs 0 !n;
          lens = Array.sub lens 0 !n }
      in
      Array.fill pages 0 !n Bytes.empty;
      v
    end

(* An input kept in memory, handed out as views; the stream lets go of
   each page once its records are handed out. *)
let rows_next r =
  let pos = ref 0 in
  fun ~max ~page_bound:_ ->
    let p = !pos in
    let n = Int.min max (r.n - p) in
    pos := p + n;
    let v =
      { pages = Array.sub r.pages p n; offs = Array.sub r.offs p n;
        lens = Array.sub r.lens p n }
    in
    Array.fill r.pages p n Bytes.empty;
    v

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

let with_sorted ?trace ?cancel ~mem_pages outer inner f =
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
              let out = merge_runs ?cancel env ~key:specs.(i).key group in
              live := out :: List.filter (fun r -> not (List.memq r group)) !live;
              sides.(i) <- Runs (rest @ [ out ])
          | Rows _ -> assert false));
      fit ()
    end
  in
  let open_stream i =
    let next =
      match sides.(i) with
      | Rows { recs; _ } -> rows_next recs
      | Runs [] -> fun ~max:_ ~page_bound:_ -> no_views
      | Runs (first :: _ as runs) ->
          Buffer_pool.flush (Heap_file.pool first);
          let pool =
            Buffer_pool.create (Heap_file.disk first) ~capacity:(List.length runs)
          in
          runs_next stats
            (merger ~key:specs.(i).key
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

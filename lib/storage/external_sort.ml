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

(* Every run builder below frees its temporary pages back to the disk
   when an exception (injected fault, cancellation, ...) aborts the sort:
   partially-written runs are destroyed before the exception propagates,
   so [Sim_disk.live_pages] returns to its pre-sort baseline. *)
(* A run of the [n] records [record_at 0 .. n-1], in that order. *)
let write_run env n record_at =
  let run = Heap_file.create env in
  try
    for k = 0 to n - 1 do
      Heap_file.append run (record_at k)
    done;
    run
  with e ->
    Heap_file.destroy run;
    raise e

let make_runs ?cancel env input ~compare ~mem_pages =
  let stats = env.Env.stats in
  let budget = mem_pages * Env.page_size env in
  let counted a b =
    Iostats.record_comparison stats;
    compare a b
  in
  let runs = ref [] in
  let batch = ref [] in
  let batch_bytes = ref 0 in
  let flush () =
    if !batch <> [] then begin
      let arr = Array.of_list (List.rev !batch) in
      Array.sort counted arr;
      runs := write_run env (Array.length arr) (Array.get arr) :: !runs;
      batch := [];
      batch_bytes := 0
    end
  in
  try
    Heap_file.iter input (fun r ->
        Cancel.check cancel;
        batch := r :: !batch;
        batch_bytes := !batch_bytes + Bytes.length r + 2;
        if !batch_bytes >= budget then flush ());
    flush ();
    List.rev !runs
  with e ->
    List.iter Heap_file.destroy !runs;
    raise e

(* Replacement selection: keep a heap of records; pop the smallest that is
   >= the last record written to the current run; records smaller than the
   last output are frozen for the next run. On random input this doubles the
   average run length (Knuth's snow-plough argument). *)
let make_runs_replacement ?cancel env input ~compare ~mem_pages =
  let stats = env.Env.stats in
  let budget = mem_pages * Env.page_size env in
  let counted_le a b =
    Iostats.record_comparison stats;
    compare a b <= 0
  in
  let heap = Heap.create counted_le in
  let frozen = ref [] in
  let frozen_bytes = ref 0 in
  let in_memory = ref 0 in
  let cursor = Heap_file.Cursor.of_file input in
  let refill () =
    let continue = ref true in
    while !in_memory + !frozen_bytes < budget && !continue do
      match Heap_file.Cursor.next cursor with
      | Some r ->
          Heap.push heap r;
          in_memory := !in_memory + Bytes.length r + 2
      | None -> continue := false
    done
  in
  let runs = ref [] in
  let current = ref None in
  try
    refill ();
    while not (Heap.is_empty heap) do
    let run = Heap_file.create env in
    current := Some run;
    let last = ref None in
    while not (Heap.is_empty heap) do
      Cancel.check cancel;
      let r = Heap.pop heap in
      in_memory := !in_memory - (Bytes.length r + 2);
      (match !last with
      | Some prev when compare r prev < 0 ->
          (* Should not happen: candidates below [last] are frozen before
             they are pushed. *)
          assert false
      | _ -> ());
      Heap_file.append run r;
      last := Some r;
      (* Admit the next input record: into the heap if it can still join
         this run, frozen otherwise. *)
      match Heap_file.Cursor.next cursor with
      | Some next ->
          Iostats.record_comparison stats;
          if compare next r >= 0 then begin
            Heap.push heap next;
            in_memory := !in_memory + Bytes.length next + 2
          end
          else begin
            frozen := next :: !frozen;
            frozen_bytes := !frozen_bytes + Bytes.length next + 2
          end
      | None -> ()
    done;
    runs := run :: !runs;
    current := None;
    (* Thaw the frozen records into the heap for the next run. *)
    List.iter
      (fun r ->
        Heap.push heap r;
        in_memory := !in_memory + Bytes.length r + 2)
      !frozen;
    frozen := [];
    frozen_bytes := 0;
    refill ()
    done;
    List.rev !runs
  with e ->
    Option.iter Heap_file.destroy !current;
    List.iter Heap_file.destroy !runs;
    raise e

type run_strategy = Load_sort | Replacement_selection

let initial_runs ?cancel strategy input ~compare ~mem_pages =
  let env = Heap_file.env input in
  match strategy with
  | Load_sort -> make_runs ?cancel env input ~compare ~mem_pages
  | Replacement_selection ->
      make_runs_replacement ?cancel env input ~compare ~mem_pages

(* On exception the freshly-created output file is destroyed but the input
   runs are left alive: the caller owns them and cleans them up (see the
   [live] tracking in [sort]). On success the input runs are destroyed. *)
let merge_runs ?cancel env runs ~compare =
  let stats = env.Env.stats in
  let out = Heap_file.create env in
  try
    let le (r1, _) (r2, _) =
      Iostats.record_comparison stats;
      compare r1 r2 <= 0
    in
    let heap = Heap.create le in
    List.iter
      (fun run ->
        let c = Heap_file.Cursor.of_file run in
        match Heap_file.Cursor.next c with
        | Some r -> Heap.push heap (r, c)
        | None -> ())
      runs;
    while not (Heap.is_empty heap) do
      Cancel.check cancel;
      let r, c = Heap.pop heap in
      Heap_file.append out r;
      match Heap_file.Cursor.next c with
      | Some r' -> Heap.push heap (r', c)
      | None -> ()
    done;
    List.iter Heap_file.destroy runs;
    out
  with e ->
    Heap_file.destroy out;
    raise e

(* ------------------------------------------------------------------ *)
(* Columnar decorated sort (the merge-join engine's sort).

   The record-comparator [sort] decodes both records on every comparison — the
   dominant cost of the merge-join pipeline. Here run formation decodes
   each record's sort key exactly once into two unboxed float columns
   (support lo / hi) and sorts an index permutation over them, so the
   comparator touches no bytes at all; the k-way merge decorates each
   cursor head the same way. Cancellation is polled once per batch of
   records rather than per comparison. The record multiset and key order
   are identical to [sort] with the corresponding record comparator; only
   ties may land in a different order. *)

let batch_poll = 1024

let sort_support ?trace ?cancel input ~key ~mem_pages =
  if mem_pages < 3 then invalid_arg "External_sort.sort_support: mem_pages < 3";
  let env = Heap_file.env input in
  let stats = env.Env.stats in
  Iostats.timed stats Iostats.Sort (fun () ->
      let budget = mem_pages * Env.page_size env in
      (* Runs not yet consumed by a merge pass, destroyed on abort like
         [sort]'s. *)
      let live = ref [] in
      let untrack f = live := List.filter (fun g -> g != f) !live in
      try
        let make_runs () =
          let runs = ref [] in
          let batch = ref [] and batch_bytes = ref 0 and seen = ref 0 in
          let flush () =
            if !batch <> [] then begin
              let arr = Array.of_list (List.rev !batch) in
              let n = Array.length arr in
              let klo = Array.make n 0.0 and khi = Array.make n 0.0 in
              for i = 0 to n - 1 do
                let lo, hi = key arr.(i) in
                klo.(i) <- lo;
                khi.(i) <- hi
              done;
              let idx = Array.init n (fun i -> i) in
              Array.sort
                (fun i j ->
                  Iostats.record_comparison stats;
                  let c = Float.compare klo.(i) klo.(j) in
                  if c <> 0 then c else Float.compare khi.(i) khi.(j))
                idx;
              (* Written straight off the permutation: no permuted copy
                 of the records. *)
              let run = write_run env n (fun k -> arr.(idx.(k))) in
              runs := run :: !runs;
              live := run :: !live;
              batch := [];
              batch_bytes := 0
            end
          in
          Heap_file.iter input (fun r ->
              if !seen land (batch_poll - 1) = 0 then Cancel.check cancel;
              incr seen;
              batch := r :: !batch;
              batch_bytes := !batch_bytes + Bytes.length r + 2;
              if !batch_bytes >= budget then flush ());
          flush ();
          List.rev !runs
        in
        let merge_group group =
          let out = Heap_file.create env in
          try
            let le (l1, h1, _, _) (l2, h2, _, _) =
              Iostats.record_comparison stats;
              let c = Float.compare l1 l2 in
              (if c <> 0 then c else Float.compare h1 h2) <= 0
            in
            let heap = Heap.create le in
            let push_head c =
              match Heap_file.Cursor.next c with
              | Some r ->
                  let lo, hi = key r in
                  Heap.push heap (lo, hi, r, c)
              | None -> ()
            in
            List.iter (fun run -> push_head (Heap_file.Cursor.of_file run)) group;
            let popped = ref 0 in
            while not (Heap.is_empty heap) do
              if !popped land (batch_poll - 1) = 0 then Cancel.check cancel;
              incr popped;
              let _, _, r, c = Heap.pop heap in
              Heap_file.append out r;
              push_head c
            done;
            List.iter Heap_file.destroy group;
            out
          with e ->
            Heap_file.destroy out;
            raise e
        in
        let fan_in = mem_pages - 1 in
        let rec merge_all = function
          | [] -> Heap_file.create env
          | [ only ] ->
              untrack only;
              only
          | runs ->
              let rec take k acc = function
                | rest when k = 0 -> (List.rev acc, rest)
                | [] -> (List.rev acc, [])
                | r :: rest -> take (k - 1) (r :: acc) rest
              in
              let rec pass acc = function
                | [] -> List.rev acc
                | runs ->
                    let group, rest = take fan_in [] runs in
                    let out = merge_group group in
                    List.iter untrack group;
                    live := out :: !live;
                    pass (out :: acc) rest
              in
              merge_all (pass [] runs)
        in
        let runs =
          Trace.with_span trace ~stats ~pool:env.Env.pool "run-formation"
            (fun () -> make_runs ())
        in
        Trace.with_span trace ~stats ~pool:env.Env.pool "k-way-merge" (fun () ->
            merge_all runs)
      with e ->
        List.iter Heap_file.destroy !live;
        raise e)

let sort ?(run_strategy = Load_sort) ?trace ?cancel input ~compare ~mem_pages =
  if mem_pages < 3 then invalid_arg "External_sort.sort: mem_pages < 3";
  let env = Heap_file.env input in
  let stats = env.Env.stats in
  Iostats.timed stats Iostats.Sort (fun () ->
      (* Runs not yet consumed by a merge pass; destroyed if the sort is
         aborted by an exception or a cancelled token, so no temp pages
         leak (the builders clean their own partial output). *)
      let live = ref [] in
      let untrack f = live := List.filter (fun g -> g != f) !live in
      try
        let fan_in = mem_pages - 1 in
        let rec merge_all = function
          | [] -> Heap_file.create env
          | [ only ] ->
              untrack only;
              only
          | runs ->
              let rec take k acc = function
                | rest when k = 0 -> (List.rev acc, rest)
                | [] -> (List.rev acc, [])
                | r :: rest -> take (k - 1) (r :: acc) rest
              in
              let rec pass acc = function
                | [] -> List.rev acc
                | runs ->
                    let group, rest = take fan_in [] runs in
                    let out = merge_runs ?cancel env group ~compare in
                    List.iter untrack group;
                    live := out :: !live;
                    pass (out :: acc) rest
              in
              merge_all (pass [] runs)
        in
        let runs =
          Trace.with_span trace ~stats ~pool:env.Env.pool "run-formation"
            (fun () -> initial_runs ?cancel run_strategy input ~compare ~mem_pages)
        in
        live := runs;
        Trace.with_span trace ~stats ~pool:env.Env.pool "k-way-merge" (fun () ->
            merge_all runs)
      with e ->
        List.iter Heap_file.destroy !live;
        raise e)

(** Tests of the storage substrate: simulated disk, buffer pool, heap files,
    external sort, and the I/O statistics they feed. *)

open Frepro.Storage

let tc = Alcotest.test_case

let disk_tests =
  [
    tc "read/write roundtrip counts I/O" `Quick (fun () ->
        let stats = Iostats.create () in
        let disk = Sim_disk.create ~page_size:64 stats in
        let p = Sim_disk.alloc disk in
        let buf = Bytes.make 64 'x' in
        Sim_disk.write disk p buf;
        let back = Sim_disk.read disk p in
        Alcotest.(check bytes) "contents" buf back;
        Alcotest.(check int) "reads" 1 (Iostats.page_reads stats);
        Alcotest.(check int) "writes" 1 (Iostats.page_writes stats));
    tc "alloc zeroes reused pages" `Quick (fun () ->
        let stats = Iostats.create () in
        let disk = Sim_disk.create ~page_size:16 stats in
        let p = Sim_disk.alloc disk in
        Sim_disk.write disk p (Bytes.make 16 'z');
        Sim_disk.free disk [ p ];
        let p2 = Sim_disk.alloc disk in
        Alcotest.(check int) "page reused" p p2;
        Alcotest.(check bytes) "zeroed" (Bytes.make 16 '\000') (Sim_disk.read disk p2));
    tc "bad page id rejected with a typed error" `Quick (fun () ->
        let stats = Iostats.create () in
        let disk = Sim_disk.create stats in
        Alcotest.(check bool) "raises Bad_page with the offending id" true
          (try ignore (Sim_disk.read disk 42); false
           with Sim_disk.Bad_page { page = 42; num_pages = 0 } -> true));
  ]

let pool_tests =
  [
    tc "hits avoid disk reads" `Quick (fun () ->
        let stats = Iostats.create () in
        let disk = Sim_disk.create ~page_size:16 stats in
        let pool = Buffer_pool.create (Disk.sim disk) ~capacity:2 in
        let p = Sim_disk.alloc disk in
        ignore (Buffer_pool.read pool p);
        ignore (Buffer_pool.read pool p);
        Alcotest.(check int) "one miss" 1 (Iostats.page_reads stats);
        Alcotest.(check int) "one hit" 1 (Buffer_pool.hits pool));
    tc "LRU eviction writes dirty page back" `Quick (fun () ->
        let stats = Iostats.create () in
        let disk = Sim_disk.create ~page_size:16 stats in
        let pool = Buffer_pool.create (Disk.sim disk) ~capacity:1 in
        let p1 = Sim_disk.alloc disk and p2 = Sim_disk.alloc disk in
        Buffer_pool.with_write pool p1 (fun b -> Bytes.set b 0 'A');
        ignore (Buffer_pool.read pool p2) (* evicts dirty p1 *);
        Alcotest.(check int) "write-back happened" 1 (Iostats.page_writes stats);
        Buffer_pool.drop pool;
        Alcotest.(check char) "contents survived eviction" 'A'
          (Bytes.get (Sim_disk.read disk p1) 0));
    tc "pinned frames never evicted" `Quick (fun () ->
        let stats = Iostats.create () in
        let disk = Sim_disk.create ~page_size:16 stats in
        let pool = Buffer_pool.create (Disk.sim disk) ~capacity:1 in
        let p1 = Sim_disk.alloc disk and p2 = Sim_disk.alloc disk in
        Buffer_pool.pin pool p1;
        Alcotest.(check bool) "miss with all pinned fails" true
          (try ignore (Buffer_pool.read pool p2); false
           with Buffer_pool.All_frames_pinned { capacity = 1; _ } -> true);
        Buffer_pool.unpin pool p1;
        ignore (Buffer_pool.read pool p2));
    tc "sequential scan misses once per page" `Quick (fun () ->
        let stats = Iostats.create () in
        let disk = Sim_disk.create ~page_size:16 stats in
        let pool = Buffer_pool.create (Disk.sim disk) ~capacity:3 in
        let pages = List.init 10 (fun _ -> Sim_disk.alloc disk) in
        List.iter (fun p -> ignore (Buffer_pool.read pool p)) pages;
        Alcotest.(check int) "10 misses" 10 (Buffer_pool.misses pool));
  ]

let heap_tests =
  [
    tc "append / iter roundtrip across pages" `Quick (fun () ->
        let env = Env.create ~page_size:64 ~pool_pages:8 () in
        let f = Heap_file.create env in
        let records =
          List.init 50 (fun i -> Bytes.of_string (Printf.sprintf "rec-%03d" i))
        in
        List.iter (Heap_file.append f) records;
        Alcotest.(check int) "record count" 50 (Heap_file.num_records f);
        Alcotest.(check bool) "multiple pages" true (Heap_file.num_pages f > 1);
        let back = ref [] in
        Heap_file.iter f (fun r -> back := r :: !back);
        Alcotest.(check (list bytes)) "order preserved" records (List.rev !back));
    tc "oversized record rejected" `Quick (fun () ->
        let env = Env.create ~page_size:64 ~pool_pages:4 () in
        let f = Heap_file.create env in
        Alcotest.(check bool) "raises" true
          (try Heap_file.append f (Bytes.make 100 'x'); false
           with Invalid_argument _ -> true));
    tc "slices: records in order, in place on their pages" `Quick (fun () ->
        let env = Env.create ~page_size:64 ~pool_pages:8 () in
        let f = Heap_file.create env in
        for i = 0 to 19 do
          Heap_file.append f (Bytes.of_string (Printf.sprintf "%02d" i))
        done;
        let c = Heap_file.Slices.of_file f in
        let seen = ref [] in
        while Heap_file.Slices.advance c do
          seen :=
            Bytes.sub_string (Heap_file.Slices.page c) (Heap_file.Slices.off c)
              (Heap_file.Slices.len c)
            :: !seen
        done;
        Alcotest.(check (list string)) "every record, in order"
          (List.init 20 (Printf.sprintf "%02d")) (List.rev !seen);
        Alcotest.(check bool) "stays at the end" false (Heap_file.Slices.advance c));
    tc "destroy returns pages for reuse" `Quick (fun () ->
        let env = Env.create ~page_size:64 ~pool_pages:8 () in
        let f = Heap_file.create env in
        for _ = 1 to 30 do Heap_file.append f (Bytes.make 20 'a') done;
        Buffer_pool.flush env.Env.pool;
        let used_before = Disk.num_pages env.Env.disk in
        Heap_file.destroy f;
        let g = Heap_file.create env in
        for _ = 1 to 30 do Heap_file.append g (Bytes.make 20 'b') done;
        Alcotest.(check int) "no disk growth" used_before
          (Disk.num_pages env.Env.disk));
  ]

let sort_record i = Bytes.of_string (Printf.sprintf "%06d" i)

let sort_tests =
  [
    tc "external sort orders and preserves multiset" `Quick (fun () ->
        let env = Env.create ~page_size:128 ~pool_pages:16 () in
        let f = Heap_file.create env in
        let rng = Random.State.make [| 42 |] in
        let input = List.init 500 (fun _ -> Random.State.int rng 1000) in
        List.iter (fun i -> Heap_file.append f (sort_record i)) input;
        let sorted = External_sort.sort f ~compare:Bytes.compare ~mem_pages:3 in
        let out = ref [] in
        Heap_file.iter sorted (fun r -> out := Bytes.to_string r :: !out);
        let out = List.rev !out in
        Alcotest.(check int) "size" 500 (List.length out);
        Alcotest.(check (list string)) "sorted & same multiset"
          (List.sort compare (List.map (fun i -> Printf.sprintf "%06d" i) input))
          out);
    tc "sort counts comparisons and I/O in the Sort phase" `Quick (fun () ->
        let env = Env.create ~page_size:128 ~pool_pages:16 () in
        let f = Heap_file.create env in
        for i = 0 to 199 do Heap_file.append f (sort_record (199 - i)) done;
        Iostats.reset env.Env.stats;
        ignore (External_sort.sort f ~compare:Bytes.compare ~mem_pages:3);
        Alcotest.(check bool) "comparisons counted" true
          (Iostats.comparisons env.Env.stats > 0);
        Alcotest.(check bool) "sort time attributed" true
          (Iostats.phase_seconds env.Env.stats Iostats.Sort >= 0.0);
        Alcotest.(check bool) "I/O happened" true (Iostats.total_ios env.Env.stats > 0));
    tc "multi-pass merge with tiny memory" `Quick (fun () ->
        let env = Env.create ~page_size:64 ~pool_pages:8 () in
        let f = Heap_file.create env in
        for i = 0 to 299 do Heap_file.append f (sort_record ((i * 7919) mod 1000)) done;
        let sorted = External_sort.sort f ~compare:Bytes.compare ~mem_pages:3 in
        let prev = ref Bytes.empty in
        let ok = ref true in
        Heap_file.iter sorted (fun r ->
            if Bytes.compare !prev r > 0 then ok := false;
            prev := r);
        Alcotest.(check bool) "nondecreasing" true !ok;
        Alcotest.(check int) "size" 300 (Heap_file.num_records sorted));
    tc "mem_pages < 3 rejected" `Quick (fun () ->
        let env = Env.create () in
        let f = Heap_file.create env in
        Alcotest.(check bool) "raises" true
          (try ignore (External_sort.sort f ~compare:Bytes.compare ~mem_pages:2); false
           with Invalid_argument _ -> true));
    tc "replacement selection sorts correctly" `Quick (fun () ->
        let env = Env.create ~page_size:64 ~pool_pages:8 () in
        let f = Heap_file.create env in
        let rng = Random.State.make [| 5 |] in
        let input = List.init 400 (fun _ -> Random.State.int rng 1000) in
        List.iter (fun i -> Heap_file.append f (sort_record i)) input;
        let sorted =
          External_sort.sort ~run_strategy:External_sort.Replacement_selection
            f ~compare:Bytes.compare ~mem_pages:3
        in
        let out = ref [] in
        Heap_file.iter sorted (fun r -> out := Bytes.to_string r :: !out);
        Alcotest.(check (list string)) "sorted & same multiset"
          (List.sort compare (List.map (fun i -> Printf.sprintf "%06d" i) input))
          (List.rev !out));
    tc "replacement selection produces longer runs on random input" `Quick
      (fun () ->
        let env = Env.create ~page_size:64 ~pool_pages:16 () in
        let f = Heap_file.create env in
        let rng = Random.State.make [| 6 |] in
        for _ = 1 to 600 do
          Heap_file.append f (sort_record (Random.State.int rng 100000))
        done;
        let count strategy =
          let runs =
            External_sort.initial_runs strategy f ~compare:Bytes.compare
              ~mem_pages:3
          in
          let n = List.length runs in
          List.iter Heap_file.destroy runs;
          n
        in
        let load = count External_sort.Load_sort in
        let replacement = count External_sort.Replacement_selection in
        Alcotest.(check bool)
          (Printf.sprintf "replacement %d < load %d runs" replacement load)
          true (replacement < load));
    tc "replacement selection on presorted input yields one run" `Quick
      (fun () ->
        let env = Env.create ~page_size:64 ~pool_pages:8 () in
        let f = Heap_file.create env in
        for i = 0 to 299 do Heap_file.append f (sort_record i) done;
        let runs =
          External_sort.initial_runs External_sort.Replacement_selection f
            ~compare:Bytes.compare ~mem_pages:3
        in
        Alcotest.(check int) "single run" 1 (List.length runs);
        List.iter Heap_file.destroy runs);
  ]

(* The k-way merge heap: any collection of sorted runs (duplicates included)
   must merge into one globally sorted file with the exact input multiset. *)
let prop_merge_heap =
  QCheck.Test.make ~count:100 ~name:"k-way merge heap: sorted, multiset kept"
    QCheck.(pair (int_bound 10_000) (list_of_size Gen.(int_range 0 8) (int_bound 60)))
    (fun (seed, run_sizes) ->
      let env = Env.create ~page_size:64 ~pool_pages:8 () in
      let rng = Random.State.make [| seed |] in
      (* Values from a small domain so duplicates appear within and across
         runs. *)
      let runs_data =
        List.map
          (fun n ->
            List.sort compare (List.init n (fun _ -> Random.State.int rng 50)))
          run_sizes
      in
      let runs =
        List.map
          (fun data ->
            let f = Heap_file.create env in
            List.iter (fun i -> Heap_file.append f (sort_record i)) data;
            f)
          runs_data
      in
      let merged = External_sort.merge_runs env runs ~compare:Bytes.compare in
      let out = ref [] in
      Heap_file.iter merged (fun r -> out := Bytes.to_string r :: !out);
      let out = List.rev !out in
      Heap_file.destroy merged;
      let expected =
        List.sort compare
          (List.map (fun i -> Printf.sprintf "%06d" i) (List.concat runs_data))
      in
      out = expected)

(* [with_sorted] must stream the records of [sort] under the matching
   record comparator in the same key order, for both inputs at once; only
   equal-key ties may land differently, so keys are compared in order and
   records as multisets. The tag after the key makes tied records
   distinct. With 64-byte pages and 4 pages of memory, inputs range from
   empty through in-memory to more runs than the shared budget holds. *)
let prop_sort_support =
  QCheck.Test.make ~count:60 ~name:"with_sorted = sort: same records, same key order"
    QCheck.(triple (int_bound 10_000) (int_bound 400) (int_bound 60))
    (fun (seed, n, m) ->
      let rng = Random.State.make [| seed |] in
      let gen n =
        List.init n (fun tag ->
            let lo = Random.State.int rng 60 in
            Bytes.of_string
              (Printf.sprintf "%03d %03d %04d" lo (lo + Random.State.int rng 20) tag))
      in
      let input = gen n and other = gen m in
      let key r =
        (float_of_string (Bytes.sub_string r 0 3), float_of_string (Bytes.sub_string r 4 3))
      in
      let ikey page off =
        let lo, hi = key (Bytes.sub page off 12) in
        Fuzzy.Interval.make lo hi
      in
      let env () = Env.create ~page_size:64 ~pool_pages:8 () in
      let file env records =
        let f = Heap_file.create env in
        List.iter (Heap_file.append f) records;
        f
      in
      let by_record records =
        let env = env () in
        let out = ref [] in
        Heap_file.iter
          (External_sort.sort (file env records)
             ~compare:(fun a b -> compare (key a) (key b))
             ~mem_pages:4)
          (fun r -> out := r :: !out);
        List.rev !out
      in
      let rec drain s acc =
        match External_sort.pull s ~max:7 ~page_bound:(n mod 2 = 0) with
        | [||] -> List.rev acc
        | rows -> drain s (List.rev_append (Array.to_list rows) acc)
      in
      let env = env () in
      let spec name f = { External_sort.name; file = f; key = ikey } in
      let live = Disk.live_pages env.Env.disk in
      let a = file env input and b = file env other in
      let sa, sb =
        External_sort.with_sorted ~mem_pages:4 ~decode:Bytes.sub (spec "a" a)
          (spec "b" b) (fun sa sb -> (drain sa [], drain sb []))
      in
      Heap_file.destroy a;
      Heap_file.destroy b;
      let same streamed records =
        List.map key streamed = List.map key (by_record records)
        && List.sort Bytes.compare streamed = List.sort Bytes.compare records
      in
      same sa input && same sb other && Disk.live_pages env.Env.disk = live)

let with_pool ~domains f =
  let pool = Task_pool.create ~domains in
  Fun.protect ~finally:(fun () -> Task_pool.shutdown pool) (fun () -> f pool)

let task_pool_tests =
  [
    tc "run_list returns results in order" `Quick (fun () ->
        with_pool ~domains:4 (fun pool ->
            let jobs = List.init 20 (fun i () -> i * i) in
            Alcotest.(check (list int)) "ordered"
              (List.init 20 (fun i -> i * i))
              (Task_pool.run_list pool jobs)));
    tc "run_list with one domain runs on the caller" `Quick (fun () ->
        with_pool ~domains:1 (fun pool ->
            Alcotest.(check (list int)) "ordered" [ 1; 2; 3 ]
              (Task_pool.run_list pool [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ])));
    tc "exceptions propagate after the batch completes" `Quick (fun () ->
        with_pool ~domains:2 (fun pool ->
            Alcotest.(check bool) "raises" true
              (try
                 ignore
                   (Task_pool.run_list pool
                      [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]);
                 false
               with Failure msg -> msg = "boom")));
    tc "pool survives across batches" `Quick (fun () ->
        with_pool ~domains:3 (fun pool ->
            for i = 1 to 5 do
              let n = i * 4 in
              Alcotest.(check int) "sum"
                (n * (n - 1) / 2)
                (List.fold_left ( + ) 0
                   (Task_pool.run_list pool (List.init n (fun j () -> j))))
            done));
    tc "domains < 1 rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try ignore (Task_pool.create ~domains:0); false
           with Invalid_argument _ -> true));
  ]

(* Model-based property test of the buffer pool: random reads/writes against
   a trivial in-memory reference model must agree on contents; the pool must
   never hold more frames than its capacity allows (observable through the
   miss count lower bound). *)
let prop_pool_model =
  QCheck.Test.make ~count:200 ~name:"buffer pool agrees with a flat model"
    QCheck.(pair (int_bound 10_000) (int_bound 3))
    (fun (seed, cap_sel) ->
      let capacity = 1 + cap_sel in
      let stats = Iostats.create () in
      let disk = Sim_disk.create ~page_size:8 stats in
      let pool = Buffer_pool.create (Disk.sim disk) ~capacity in
      let n_pages = 6 in
      let pages = Array.init n_pages (fun _ -> Sim_disk.alloc disk) in
      let model = Array.make n_pages '\000' in
      let rng = Random.State.make [| seed |] in
      for _ = 1 to 100 do
        let p = Random.State.int rng n_pages in
        if Random.State.bool rng then begin
          let c = Char.chr (Random.State.int rng 256) in
          Buffer_pool.with_write pool pages.(p) (fun b -> Bytes.set b 0 c);
          model.(p) <- c
        end
        else begin
          let b = Buffer_pool.read pool pages.(p) in
          if Bytes.get b 0 <> model.(p) then failwith "pool diverged from model"
        end
      done;
      Buffer_pool.flush pool;
      Array.iteri
        (fun i p ->
          if Bytes.get (Sim_disk.read disk p) 0 <> model.(i) then
            failwith "disk diverged after flush")
        pages;
      true)

(* A slice scan returns what [Heap_file.iter] returns, and [buffered] is
   0 exactly before the advances that read a page. *)
let prop_slices =
  QCheck.Test.make ~count:100 ~name:"slices scan = iter; buffered predicts page reads"
    QCheck.(pair (int_bound 200) (int_bound 12))
    (fun (n, w) ->
      let env = Env.create ~page_size:64 ~pool_pages:8 () in
      let f = Heap_file.create env in
      for i = 0 to n - 1 do
        Heap_file.append f (Bytes.of_string (Printf.sprintf "%0*d" (w + 1) i))
      done;
      let expected = Heap_file.fold f ~init:[] ~f:(fun acc r -> Bytes.to_string r :: acc) in
      (* A one-frame pool: every new page is a read. *)
      Buffer_pool.flush env.Env.pool;
      let pool = Buffer_pool.create env.Env.disk ~capacity:1 in
      let c = Heap_file.Slices.of_file ~pool f in
      let stats = env.Env.stats in
      let ok = ref true and got = ref [] and first = ref true in
      let reads () = Iostats.page_reads stats in
      let rec go () =
        let predicted = !first || Heap_file.Slices.buffered c = 0 in
        let before = reads () in
        if Heap_file.Slices.advance c then begin
          if (reads () > before) <> predicted then ok := false;
          first := false;
          got :=
            Bytes.sub_string (Heap_file.Slices.page c) (Heap_file.Slices.off c)
              (Heap_file.Slices.len c)
            :: !got;
          go ()
        end
      in
      go ();
      !ok && !got = expected)

let stats_tests =
  [
    tc "timed phases are exclusive" `Quick (fun () ->
        let s = Iostats.create () in
        Iostats.timed s Iostats.Sort (fun () ->
            Iostats.timed s Iostats.Join (fun () -> Sys.opaque_identity ()));
        let total = Iostats.cpu_seconds s in
        let parts =
          Iostats.phase_seconds s Iostats.Sort +. Iostats.phase_seconds s Iostats.Join
        in
        Alcotest.(check (float 1e-6)) "exclusive buckets" total parts);
    tc "response time model" `Quick (fun () ->
        let s = Iostats.create () in
        Iostats.record_read s;
        Iostats.record_read s;
        Iostats.record_write s;
        Alcotest.(check (float 1e-9)) "3 IOs at 10ms" 0.03
          (Iostats.response_time s ~io_latency:0.01 -. Iostats.cpu_seconds s));
    tc "page transfers go to the innermost timed phase" `Quick (fun () ->
        let s = Iostats.create () in
        Iostats.record_read s;
        Iostats.timed s Iostats.Sort (fun () ->
            Iostats.record_write s;
            Iostats.timed s Iostats.Join (fun () ->
                Iostats.record_read s;
                Iostats.record_read s);
            Iostats.record_read s);
        Alcotest.(check (list int)) "Sort, Merge, Join, Other" [ 2; 0; 2; 1 ]
          (List.map (Iostats.phase_ios s)
             [ Iostats.Sort; Iostats.Merge; Iostats.Join; Iostats.Other ]);
        Alcotest.(check int) "total" 5 (Iostats.total_ios s));
  ]

let suites =
  [
    ("storage.disk", disk_tests);
    ("storage.pool", pool_tests @ [ QCheck_alcotest.to_alcotest prop_pool_model ]);
    ("storage.heap", heap_tests @ [ QCheck_alcotest.to_alcotest prop_slices ]);
    ( "storage.sort",
      sort_tests
      @ List.map QCheck_alcotest.to_alcotest [ prop_merge_heap; prop_sort_support ] );
    ("storage.pool_tasks", task_pool_tests);
    ("storage.stats", stats_tests);
  ]

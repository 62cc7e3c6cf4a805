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
    tc "a fresh page is installed zeroed, with no read, over a stale frame"
      `Quick (fun () ->
        let stats = Iostats.create () in
        let disk = Sim_disk.create ~page_size:16 stats in
        let pool = Buffer_pool.create (Disk.sim disk) ~capacity:2 in
        let p = Sim_disk.alloc disk in
        Buffer_pool.install_fresh pool p;
        Alcotest.(check int) "no read" 0 (Iostats.page_reads stats);
        Alcotest.(check int) "not a lookup" 0 (Buffer_pool.hits pool + Buffer_pool.misses pool);
        Alcotest.(check bytes) "zeroes" (Bytes.make 16 '\000') (Buffer_pool.read pool p);
        (* the page's owner writes it and frees it; the id comes back *)
        Buffer_pool.with_write pool p (fun b -> Bytes.fill b 0 16 'x');
        Sim_disk.free disk [ p ];
        let p' = Sim_disk.alloc disk in
        Alcotest.(check int) "same id recycled" p p';
        Buffer_pool.install_fresh pool p';
        Alcotest.(check bytes) "the stale frame is replaced" (Bytes.make 16 '\000')
          (Buffer_pool.read pool p');
        Buffer_pool.flush pool;
        Alcotest.(check int) "nothing written back for it" 0 (Iostats.page_writes stats);
        Alcotest.(check int) "still no read" 0 (Iostats.page_reads stats);
        (* a full pool makes room like a miss, writing a dirty victim back *)
        let q = Sim_disk.alloc disk and r = Sim_disk.alloc disk in
        Buffer_pool.with_write pool q (fun b -> Bytes.set b 0 'q');
        Buffer_pool.install_fresh pool r;
        Buffer_pool.install_fresh pool (Sim_disk.alloc disk);
        Alcotest.(check int) "one write-back" 1 (Iostats.page_writes stats);
        Alcotest.(check char) "victim on disk" 'q' (Bytes.get (Sim_disk.read disk q) 0));
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
    tc "append / slices roundtrip across pages through a smaller pool" `Quick
      (fun () ->
        let env = Env.create ~page_size:64 ~pool_pages:2 () in
        let f = Heap_file.create env in
        let records =
          List.init 50 (fun i -> Bytes.of_string (Printf.sprintf "rec-%03d" i))
        in
        List.iter (Heap_file.append f) records;
        Alcotest.(check int) "record count" 50 (Heap_file.num_records f);
        Alcotest.(check bool) "more pages than frames" true (Heap_file.num_pages f > 2);
        Alcotest.(check (list bytes)) "order preserved" records (Test_util.records f));
    tc "relation scans decode the appended tuples through a smaller pool"
      `Quick (fun () ->
        let open Frepro.Relational in
        let env = Env.create ~page_size:128 ~pool_pages:2 () in
        let schema = Schema.make ~name:"P" [ ("ID", Schema.TNum); ("S", Schema.TStr) ] in
        let tuples =
          List.init 40 (fun i ->
              Ftuple.make
                [| Value.Int i; Value.Str (String.make (i mod 7) 'x') |]
                (0.125 *. float_of_int (1 + (i mod 8))))
        in
        let rel = Relation.of_list env schema tuples in
        Alcotest.(check bool) "more pages than frames" true (Relation.num_pages rel > 2);
        let same a b =
          List.length a = List.length b
          && List.for_all2
               (fun x y -> Ftuple.values_equal x y && Ftuple.degree x = Ftuple.degree y)
               a b
        in
        let seen = ref [] in
        Relation.iter rel (fun t -> seen := t :: !seen);
        Alcotest.(check bool) "iter: every tuple, in order" true (same tuples (List.rev !seen));
        Alcotest.(check bool) "to_list: every tuple, in order" true
          (same tuples (Relation.to_list rel));
        let one = Buffer_pool.create env.Env.disk ~capacity:1 in
        let via = ref [] in
        Relation.iter_via one rel (fun t -> via := t :: !via);
        Alcotest.(check bool) "iter_via a one-frame pool" true (same tuples (List.rev !via)));
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

(* [n] records with keys drawn by [key i]: lo, then hi - lo. *)
let keyed_records n key =
  List.init n (fun tag ->
      let lo, width = key tag in
      Test_util.sort_record ~lo ~hi:(lo + width) ~tag)

let random_records rng n ~lo_range ~width_range =
  keyed_records n (fun _ ->
      (Random.State.int rng lo_range, Random.State.int rng width_range))

(* An intermediate pass ran: the [k-way-merge] span that [with_sorted]
   records outside both inputs' run formation charged merge comparisons. *)
let intermediate_pass_ran trace =
  List.exists
    (fun sp -> Trace.span_name sp = "k-way-merge" && Trace.span_compares sp > 0)
    (Trace.roots trace)

let sort_tests =
  [
    tc "external sort orders and preserves multiset" `Quick (fun () ->
        let env = Env.create ~page_size:128 ~pool_pages:16 () in
        let rng = Random.State.make [| 42 |] in
        let input = random_records rng 500 ~lo_range:900 ~width_range:50 in
        let sorted =
          Test_util.sort_file ~mem_pages:3 (Test_util.heap_file env input)
        in
        Alcotest.(check int) "size" 500 (List.length sorted);
        Alcotest.(check bool) "sorted & same multiset" true
          (Test_util.sorted_like input sorted));
    tc "sort counts comparisons and I/O in the Sort phase" `Quick (fun () ->
        let env = Env.create ~page_size:128 ~pool_pages:16 () in
        let f =
          Test_util.heap_file env (keyed_records 200 (fun i -> (199 - i, 0)))
        in
        Env.flush env;
        Iostats.reset env.Env.stats;
        ignore (Test_util.sort_file ~mem_pages:3 f);
        let stats = env.Env.stats in
        Alcotest.(check bool) "comparisons counted" true
          (Iostats.comparisons stats > 0);
        Alcotest.(check bool) "I/O happened" true (Iostats.total_ios stats > 0);
        Alcotest.(check int) "every I/O charged to Sort"
          (Iostats.total_ios stats)
          (Iostats.phase_ios stats Iostats.Sort);
        Alcotest.(check bool) "sort time attributed" true
          (Iostats.phase_seconds stats Iostats.Sort > 0.0));
    tc "multi-pass merge with tiny memory" `Quick (fun () ->
        let env = Env.create ~page_size:64 ~pool_pages:8 () in
        let input = keyed_records 300 (fun i -> ((i * 7919) mod 900, i mod 3)) in
        let trace = Trace.create () in
        let sorted =
          Test_util.sort_file ~trace ~mem_pages:3 (Test_util.heap_file env input)
        in
        Alcotest.(check bool) "intermediate pass ran" true
          (intermediate_pass_ran trace);
        Alcotest.(check int) "size" 300 (List.length sorted);
        Alcotest.(check bool) "nondecreasing, same multiset" true
          (Test_util.sorted_like input sorted));
    tc "mem_pages < 3 rejected" `Quick (fun () ->
        let env = Env.create () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Test_util.sort_file ~mem_pages:2 (Heap_file.create env));
             false
           with Invalid_argument _ -> true));
    tc "pull ~max:0 rejected before a record is taken" `Quick (fun () ->
        (* at 64-byte pages and 3 pages of memory, 10 records of 14 bytes
           stay in memory and 300 spill into runs *)
        List.iter
          (fun (n, spilled) ->
            let env = Env.create ~page_size:64 ~pool_pages:8 () in
            let input = keyed_records n (fun i -> ((i * 37) mod 100, 1)) in
            let f = Test_util.heap_file env input in
            Env.flush env;
            Iostats.reset env.Env.stats;
            let raised, rest =
              External_sort.with_sorted ~mem_pages:3
                (Test_util.sort_spec "f" f)
                (Test_util.sort_spec "empty" (Heap_file.create env))
                (fun s _ ->
                  let raised =
                    try
                      ignore (External_sort.pull s ~max:0 ~page_bound:false);
                      false
                    with Invalid_argument _ -> true
                  in
                  (raised, Test_util.drain s))
            in
            let label = Printf.sprintf "%d records: %s" n in
            Alcotest.(check bool) (label "spilled") spilled
              (Iostats.page_writes env.Env.stats > 0);
            Alcotest.(check bool) (label "raises") true raised;
            Alcotest.(check bool) (label "none lost") true
              (Test_util.sorted_like input rest))
          [ (10, false); (300, true) ]);
  ]

(* Sorted, reverse-sorted and single-key inputs at 64-byte pages: 300
   records spill into several runs and, at 3 pages, take intermediate
   passes. With distinct keys the output order is fixed. *)
let shaped_tests =
  let at_each_memory f = List.iter f [ 3; 4; 8 ] in
  [
    tc "presorted input comes out unchanged" `Quick (fun () ->
        at_each_memory (fun mem_pages ->
            let env = Env.create ~page_size:64 ~pool_pages:8 () in
            let input = keyed_records 300 (fun i -> (i, i mod 5)) in
            Alcotest.(check (list bytes))
              (Printf.sprintf "%d pages" mem_pages)
              input
              (Test_util.sort_file ~mem_pages (Test_util.heap_file env input))));
    tc "reverse-sorted input comes out reversed" `Quick (fun () ->
        at_each_memory (fun mem_pages ->
            let env = Env.create ~page_size:64 ~pool_pages:8 () in
            let input = keyed_records 300 (fun i -> (299 - i, i mod 5)) in
            Alcotest.(check (list bytes))
              (Printf.sprintf "%d pages" mem_pages)
              (List.rev input)
              (Test_util.sort_file ~mem_pages (Test_util.heap_file env input))));
    tc "one key for every record: all kept, run pages freed" `Quick (fun () ->
        at_each_memory (fun mem_pages ->
            let env = Env.create ~page_size:64 ~pool_pages:8 () in
            let input = keyed_records 300 (fun _ -> (5, 5)) in
            let f = Test_util.heap_file env input in
            let live = Disk.live_pages env.Env.disk in
            let sorted = Test_util.sort_file ~mem_pages f in
            let label = Printf.sprintf "%d pages: %s" mem_pages in
            Alcotest.(check int) (label "size") 300 (List.length sorted);
            Alcotest.(check bool) (label "same multiset") true
              (Test_util.sorted_like input sorted);
            Alcotest.(check int) (label "live pages") live
              (Disk.live_pages env.Env.disk)));
    tc "inputs that fit in memory write no page" `Quick (fun () ->
        (* 10 records of 16 bytes a side: 2 pages each of the 4 *)
        let env = Env.create ~page_size:128 ~pool_pages:8 () in
        let rng = Random.State.make [| 7 |] in
        let a = random_records rng 10 ~lo_range:100 ~width_range:10
        and b = random_records rng 10 ~lo_range:100 ~width_range:10 in
        let fa = Test_util.heap_file env a and fb = Test_util.heap_file env b in
        Env.flush env;
        Iostats.reset env.Env.stats;
        let trace = Trace.create () in
        let sa, sb = Test_util.sort_files ~trace ~mem_pages:4 fa fb in
        Alcotest.(check int) "no page written" 0
          (Iostats.page_writes env.Env.stats);
        Alcotest.(check bool) "no intermediate pass" false
          (intermediate_pass_ran trace);
        Alcotest.(check bool) "both sorted" true
          (Test_util.sorted_like a sa && Test_util.sorted_like b sb));
    tc "a page-bound pull reads at most one run page" `Quick (fun () ->
        (* 300 records at 64-byte pages and 8 pages of memory: each input
           is a few runs merged straight into its stream *)
        let env = Env.create ~page_size:64 ~pool_pages:8 () in
        let input = keyed_records 300 (fun i -> ((i * 7919) mod 900, i mod 3)) in
        let fa = Test_util.heap_file env input
        and fb = Test_util.heap_file env input in
        let reads () = Iostats.page_reads env.Env.stats in
        let bounded, unbounded, most, total, one_pull =
          External_sort.with_sorted ~mem_pages:8
            (Test_util.sort_spec "a" fa) (Test_util.sort_spec "b" fb)
            (fun sa sb ->
              let most = ref 0 and total = ref 0 and acc = ref [] in
              let rec go () =
                let before = reads () in
                match Test_util.pull sa ~max:50 ~page_bound:true with
                | [] -> ()
                | rows ->
                    let r = reads () - before in
                    most := Int.max !most r;
                    total := !total + r;
                    acc := List.rev_append rows !acc;
                    go ()
              in
              go ();
              let before = reads () in
              let all = Test_util.pull sb ~max:300 ~page_bound:false in
              let one_pull = reads () - before in
              (List.rev !acc, all, !most, !total, one_pull))
        in
        Alcotest.(check int) "at most one page per bounded pull" 1 most;
        Alcotest.(check bool) "run pages were read while pulling" true (total > 1);
        Alcotest.(check bool) "an unbounded pull reads ahead" true (one_pull > 1);
        Alcotest.(check bool) "bounded order" true
          (Test_util.sorted_like input bounded);
        Alcotest.(check bool) "unbounded order" true
          (Test_util.sorted_like input unbounded));
  ]

(* Duplicate-heavy inputs (keys from a 10 x 3 domain) large enough for many
   runs at 64-byte pages: with 3 pages of memory every input past a few
   runs takes intermediate passes, which must keep the key order and the
   multiset of both inputs. *)
let prop_merge_passes =
  QCheck.Test.make ~count:40
    ~name:"with_sorted: intermediate passes keep order and multiset"
    QCheck.(triple (int_bound 10_000) (int_range 60 400) (int_bound 200))
    (fun (seed, n, m) ->
      let rng = Random.State.make [| seed |] in
      let input = random_records rng n ~lo_range:10 ~width_range:3
      and other = random_records rng m ~lo_range:10 ~width_range:3 in
      let env = Env.create ~page_size:64 ~pool_pages:8 () in
      let a = Test_util.heap_file env input and b = Test_util.heap_file env other in
      let live = Disk.live_pages env.Env.disk in
      let trace = Trace.create () in
      let sa, sb = Test_util.sort_files ~trace ~mem_pages:3 a b in
      intermediate_pass_ran trace
      && Test_util.sorted_like input sa
      && Test_util.sorted_like other sb
      && Disk.live_pages env.Env.disk = live)

(* [with_sorted] must stream both inputs' records in the key order of an
   in-memory stable sort; only equal-key ties may land differently, so
   keys are compared in order and records as multisets. With 64-byte pages
   and 4 pages of memory, inputs range from empty through in-memory to
   more runs than the shared budget holds. *)
let prop_sort_support =
  QCheck.Test.make ~count:60
    ~name:"with_sorted = in-memory oracle: same records, same key order"
    QCheck.(triple (int_bound 10_000) (int_bound 400) (int_bound 60))
    (fun (seed, n, m) ->
      let rng = Random.State.make [| seed |] in
      let input = random_records rng n ~lo_range:60 ~width_range:20
      and other = random_records rng m ~lo_range:60 ~width_range:20 in
      let env = Env.create ~page_size:64 ~pool_pages:8 () in
      let live = Disk.live_pages env.Env.disk in
      let a = Test_util.heap_file env input and b = Test_util.heap_file env other in
      let sa, sb =
        Test_util.sort_files ~page_bound:(n mod 2 = 0) ~mem_pages:4 a b
      in
      Heap_file.destroy a;
      Heap_file.destroy b;
      Test_util.sorted_like input sa
      && Test_util.sorted_like other sb
      && Disk.live_pages env.Env.disk = live)

(* Run formation's sort against a list model of the same top-down merge
   sort (left half n / 2 rows, one comparison per merge step until a half
   runs out): the permutation must be [List.stable_sort]'s, and the
   comparison count the model's. Keys come from a small domain, with
   -0.0 next to 0.0, so ties are common. *)
let rec model_merge_sort le = function
  | ([] | [ _ ]) as xs -> (xs, 0)
  | xs ->
      let half = List.length xs / 2 in
      let l, cl = model_merge_sort le (List.filteri (fun i _ -> i < half) xs)
      and r, cr = model_merge_sort le (List.filteri (fun i _ -> i >= half) xs) in
      let rec merge a b acc c =
        match (a, b) with
        | [], rest | rest, [] -> (List.rev_append acc rest, c)
        | x :: a', y :: b' ->
            if le x y then merge a' b (x :: acc) (c + 1) else merge a b' (y :: acc) (c + 1)
      in
      let m, cm = merge l r [] 0 in
      (m, cl + cr + cm)

let prop_sort_index =
  let key = QCheck.Gen.(oneofl [ -0.0; 0.0; 1.0; 2.5; 3.0; -4.0 ]) in
  QCheck.Test.make ~count:300
    ~name:"sort_index = List.stable_sort on (lo, hi), comparisons = the model's"
    QCheck.(make Gen.(list_size (int_bound 300) (pair key key)))
    (fun keys ->
      let lo = Array.of_list (List.map fst keys) and hi = Array.of_list (List.map snd keys) in
      let idx, cmps = External_sort.sort_index lo hi in
      let rows = List.mapi (fun i k -> (i, k)) keys in
      let le (_, (la, ha)) (_, (lb, hb)) = la < lb || (la = lb && ha <= hb) in
      let want, want_cmps = model_merge_sort le rows in
      Array.to_list idx = List.map fst (List.stable_sort (fun (_, a) (_, b) -> compare a b) rows)
      && Array.to_list idx = List.map fst want
      && cmps = want_cmps)

(* The k-way heap merge of k sorted runs against the sorted concatenation
   of their records: same key sequence, same multiset; the runs are
   destroyed and the comparisons stay within two per record per heap
   level. *)
let prop_merge_runs =
  QCheck.Test.make ~count:100 ~name:"merge_runs = sorted concatenation of its runs"
    QCheck.(pair (int_bound 10_000) (list_of_size (Gen.int_range 1 9) (int_bound 120)))
    (fun (seed, sizes) ->
      let rng = Random.State.make [| seed |] in
      let env = Env.create ~page_size:64 ~pool_pages:8 () in
      let live = Disk.live_pages env.Env.disk in
      let runs =
        List.map
          (fun n ->
            random_records rng n ~lo_range:20 ~width_range:4
            |> List.stable_sort (fun a b ->
                   compare (Test_util.sort_key_pair a) (Test_util.sort_key_pair b)))
          sizes
      in
      let files = List.map (Test_util.heap_file env) runs in
      Iostats.reset env.Env.stats;
      let out = External_sort.merge_runs env ~key:Test_util.sort_record_key files in
      let merged = Test_util.records out in
      let n = List.length merged and k = List.length sizes in
      let levels = if k = 1 then 0 else int_of_float (Float.ceil (Float.log2 (float_of_int k))) in
      let cmps = Iostats.comparisons env.Env.stats in
      let out_pages = Heap_file.num_pages out in
      Heap_file.destroy out;
      Test_util.sorted_like (List.concat runs) merged
      && cmps <= 2 * levels * n
      && Disk.live_pages env.Env.disk = live
      && out_pages > 0 = (n > 0))

(* [append_many] against one [append_sub] per record: the same pages byte
   for byte, starting on a part-filled page, with records that fill pages
   exactly, empty records, and (when [big] is set) a record too big for
   any page that raises with every earlier record appended. *)
let prop_append_many =
  QCheck.Test.make ~count:200 ~name:"append_many = repeated append_sub, byte for byte"
    QCheck.(triple (int_bound 10_000) (list_of_size (Gen.int_bound 80) (int_bound 60)) (option small_nat))
    (fun (seed, lens, big) ->
      let rng = Random.State.make [| seed |] in
      let lens =
        match big with
        | Some at ->
            let at = at mod (List.length lens + 1) in
            List.filteri (fun i _ -> i < at) lens @ [ 61 + (seed mod 40) ]
            @ List.filteri (fun i _ -> i >= at) lens
        | None -> lens
      in
      (* Records are slices of a few shared source buffers, at odd offsets. *)
      let srcs = Array.init 3 (fun _ -> Bytes.init 200 (fun _ -> Char.chr (Random.State.int rng 256))) in
      let recs =
        Array.of_list
          (List.mapi (fun i len -> (srcs.(i mod 3), Random.State.int rng (200 - len), len)) lens)
      in
      let env = Env.create ~page_size:64 ~pool_pages:8 () in
      let fill f =
        Heap_file.append f (Bytes.of_string "part-filled");
        f
      in
      let a = fill (Heap_file.create env) and b = fill (Heap_file.create env) in
      let raised f = try f (); false with Invalid_argument _ -> true in
      let ra =
        raised (fun () -> Array.iter (fun (buf, off, len) -> Heap_file.append_sub a buf off len) recs)
      and rb =
        raised (fun () ->
            Heap_file.append_many b (Array.map (fun (buf, _, _) -> buf) recs)
              (Array.map (fun (_, off, _) -> off) recs)
              (Array.map (fun (_, _, len) -> len) recs)
              (Array.length recs))
      in
      let pages f =
        let c = Heap_file.Slices.of_file f and acc = ref [] and last = ref Bytes.empty in
        while Heap_file.Slices.advance c do
          if Heap_file.Slices.page c != !last then begin
            last := Heap_file.Slices.page c;
            acc := Bytes.to_string !last :: !acc
          end
        done;
        List.rev !acc
      in
      ra = (big <> None)
      && rb = ra
      && Heap_file.num_records a = Heap_file.num_records b
      && Heap_file.num_pages a = Heap_file.num_pages b
      && pages a = pages b)

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

(* A slice scan returns the appended records, and [buffered] is 0
   exactly before the advances that read a page. *)
let prop_slices =
  QCheck.Test.make ~count:100 ~name:"slices scan = appended records; buffered predicts page reads"
    QCheck.(pair (int_bound 200) (int_bound 12))
    (fun (n, w) ->
      let env = Env.create ~page_size:64 ~pool_pages:8 () in
      let f = Heap_file.create env in
      let expected = List.init n (Printf.sprintf "%0*d" (w + 1)) in
      List.iter (fun r -> Heap_file.append f (Bytes.of_string r)) expected;
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
      !ok && List.rev !got = expected)

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

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

(* The bytewise definition: one lookup per byte through [Int32] ops. The
   slicing-by-8 kernel must equal it bit for bit. *)
let crc_oracle =
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          if Int32.logand !c 1l <> 0l then
            c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else c := Int32.shift_right_logical !c 1
        done;
        !c)
  in
  fun crc buf ~pos ~len ->
    let c = ref (Int32.lognot crc) in
    for i = pos to pos + len - 1 do
      let idx =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Bytes.get_uint8 buf i))) 0xffl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
    done;
    Int32.lognot !c

let crc_page = Bytes.init 8192 (fun i -> Char.chr (((i * 131) + (i lsr 8)) land 0xff))

let crc_tests =
  [
    tc "known answers" `Quick (fun () ->
        let check msg want got = Alcotest.(check int32) msg want got in
        check "empty" 0l (Crc32.bytes Bytes.empty);
        check "empty slice" 0l (Crc32.digest crc_page ~pos:100 ~len:0);
        check "123456789" 0xCBF43926l (Crc32.string "123456789");
        (* computed by the bytewise kernel this one replaced *)
        check "8 KiB pattern" 0x768C1FD9l (Crc32.bytes crc_page);
        check "8 KiB pattern = oracle" (crc_oracle 0l crc_page ~pos:0 ~len:8192)
          (Crc32.bytes crc_page));
    tc "out-of-bounds slices raise Invalid_argument" `Quick (fun () ->
        let b = Bytes.make 16 'x' in
        List.iter
          (fun (pos, len) ->
            Alcotest.check_raises
              (Printf.sprintf "pos %d len %d" pos len)
              (Invalid_argument "Crc32.update")
              (fun () -> ignore (Crc32.update 0l b ~pos ~len));
            Alcotest.check_raises
              (Printf.sprintf "digest pos %d len %d" pos len)
              (Invalid_argument "Crc32.update")
              (fun () -> ignore (Crc32.digest b ~pos ~len)))
          [ (-1, 4); (0, -1); (0, 17); (9, 8); (16, 1); (17, 0); (max_int, 1) ]);
  ]

(* Random buffers, random slices and a random running digest: lengths
   0-40 mostly (every tail length, a few 8-byte steps), some 8 KiB pages,
   starts up to 9 bytes off alignment; and a chained digest at a random
   split equals the one-shot digest of the whole slice. *)
let prop_crc_oracle =
  QCheck.Test.make ~count:2000 ~name:"Crc32 = the bytewise oracle on any slice, chained or not"
    QCheck.(pair (int_bound 1_000_000) (int_bound 9))
    (fun (seed, pos) ->
      let rng = Random.State.make [| seed |] in
      let len =
        match Random.State.int rng 10 with
        | 0 -> 8192
        | 1 -> Random.State.int rng 300
        | _ -> Random.State.int rng 41
      in
      let buf =
        Bytes.init (pos + len + Random.State.int rng 10) (fun _ ->
            Char.chr (Random.State.int rng 256))
      in
      let crc = Random.State.bits32 rng in
      let whole = crc_oracle 0l buf ~pos ~len in
      let split = Random.State.int rng (len + 1) in
      Crc32.update crc buf ~pos ~len = crc_oracle crc buf ~pos ~len
      && Crc32.digest buf ~pos ~len = whole
      && Crc32.bytes (Bytes.sub buf pos len) = whole
      && Crc32.update (Crc32.digest buf ~pos ~len:split) buf ~pos:(pos + split)
           ~len:(len - split)
         = whole)

let suites =
  [
    ("storage.crc32", crc_tests @ [ QCheck_alcotest.to_alcotest prop_crc_oracle ]);
    ("storage.disk", disk_tests);
    ("storage.pool", pool_tests @ [ QCheck_alcotest.to_alcotest prop_pool_model ]);
    ( "storage.heap",
      heap_tests @ List.map QCheck_alcotest.to_alcotest [ prop_slices; prop_append_many ] );
    ( "storage.sort",
      sort_tests @ shaped_tests
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_merge_passes; prop_sort_support; prop_sort_index; prop_merge_runs ] );
    ("storage.stats", stats_tests);
  ]

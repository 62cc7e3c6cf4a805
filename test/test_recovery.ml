(** Tests of the durable storage subsystem: real-disk backend with page
    checksums, write-ahead log, group commit, crash recovery, and the
    durable catalog. *)

open Frepro.Storage
open Frepro.Relational

let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Scratch directories *)

let dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "frepro-rec-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Workload helpers *)

let schema = Schema.make ~name:"K" [ ("ID", Schema.TNum); ("X", Schema.TNum) ]

let tup i x d =
  Ftuple.make [| Value.Int i; Value.crisp_num (float_of_int x) |] d

let batch ~seed ~start n =
  let rng = Random.State.make [| 0xD15C; seed |] in
  List.init n (fun k ->
      tup (start + k)
        (Random.State.int rng 1000)
        (0.125 *. float_of_int (1 + ((start + k + seed) mod 8))))

(* Bit-exact state of a relation: the raw heap records in scan order. *)
let raw_records rel = Test_util.records (Relation.file rel)

let check_raw msg expected actual =
  Alcotest.(check (list bytes)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Real disk basics *)

let real_disk_tests =
  [
    tc "roundtrip survives reopen, counts I/O" `Quick (fun () ->
        with_dir (fun dir ->
            let stats = Iostats.create () in
            let d = Real_disk.create ~page_size:128 ~dir stats in
            let p = Real_disk.alloc d in
            let buf = Bytes.init 128 (fun i -> Char.chr (i mod 251)) in
            Real_disk.write ~lsn:17 d p buf;
            Alcotest.(check bytes) "read back" buf (Real_disk.read d p);
            Alcotest.(check int) "reads" 1 (Iostats.page_reads stats);
            Alcotest.(check int) "writes" 1 (Iostats.page_writes stats);
            Real_disk.close d;
            let d2 = Real_disk.open_existing ~dir (Iostats.create ()) in
            let payload, lsn = Real_disk.read_with_lsn d2 p in
            Alcotest.(check bytes) "survives reopen" buf payload;
            Alcotest.(check int) "lsn stamped" 17 lsn;
            Real_disk.close d2));
    tc "alloc zeroes recycled pages on disk" `Quick (fun () ->
        with_dir (fun dir ->
            let d = Real_disk.create ~page_size:64 ~dir (Iostats.create ()) in
            let p = Real_disk.alloc d in
            Real_disk.write d p (Bytes.make 64 'z');
            Real_disk.free d [ p ];
            let p2 = Real_disk.alloc d in
            Alcotest.(check int) "page reused" p p2;
            Alcotest.(check bytes) "zeroed" (Bytes.make 64 '\000')
              (Real_disk.read d p2);
            Real_disk.close d));
    tc "bad page id raises the shared typed error" `Quick (fun () ->
        with_dir (fun dir ->
            let d = Real_disk.create ~dir (Iostats.create ()) in
            Alcotest.(check bool) "Bad_page" true
              (try
                 ignore (Real_disk.read d 7);
                 false
               with Sim_disk.Bad_page { page = 7; num_pages = 0 } -> true);
            Real_disk.close d));
    tc "page_size above 65536 rejected" `Quick (fun () ->
        (* The WAL encodes in-page offsets as u16; larger pages would
           silently truncate redo offsets. *)
        with_dir (fun dir ->
            Alcotest.(check bool) "Invalid_argument" true
              (try
                 ignore
                   (Real_disk.create ~page_size:65537 ~dir (Iostats.create ()));
                 false
               with Invalid_argument _ -> true)));
    tc "torn write leaves a detectable page" `Quick (fun () ->
        with_dir (fun dir ->
            let d = Real_disk.create ~page_size:256 ~dir (Iostats.create ()) in
            let p = Real_disk.alloc d in
            Real_disk.write d p (Bytes.make 256 'a');
            (match Fault.parse_spec "torn:nth=1" with
            | Ok spec -> Real_disk.set_fault d (Some (Fault.create spec))
            | Error m -> Alcotest.fail m);
            (try
               Real_disk.write d p (Bytes.make 256 'b');
               Alcotest.fail "torn write did not raise"
             with Fault.Injected { kind = Fault.Torn_write; _ } -> ());
            Real_disk.set_fault d None;
            Alcotest.(check bool) "tear detected on read" true
              (try
                 ignore (Real_disk.read d p);
                 false
               with Real_disk.Checksum_mismatch { page; _ } -> page = p);
            Real_disk.close d));
    tc "20,000 mutants of a data file: only Bad_header, Checksum_mismatch or Bad_page" `Quick
      (fun () ->
        with_dir (fun dir ->
            (* The layout in real_disk.mli: a 4 KiB header (8-byte magic,
               u32 page size at 8), then slots of payload + 16-byte trailer. *)
            let header = 4096 and page_size = 256 and pages = 4 in
            let slot = page_size + 16 in
            let payload p = Bytes.init page_size (fun i -> Char.chr ((i * (p + 3)) land 0xff)) in
            let d = Real_disk.create ~page_size ~dir (Iostats.create ()) in
            for p = 0 to pages - 1 do
              ignore (Real_disk.alloc d);
              Real_disk.write ~lsn:(100 + p) d p (payload p)
            done;
            Real_disk.close d;
            let path = Real_disk.path_of dir in
            let original = In_channel.with_open_bin path In_channel.input_all in
            Alcotest.(check int) "file size" (header + (pages * slot)) (String.length original);
            let rng = Random.State.make [| 0xD15C |] in
            let flip b lo n =
              for _ = 1 to 1 + Random.State.int rng 5 do
                let i = lo + Random.State.int rng n in
                Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 + Random.State.int rng 255))
              done
            in
            let refused = ref 0 and opened = ref 0 in
            for i = 1 to 20_000 do
              let m = Bytes.of_string original in
              (* [damaged]: the one page whose slot changed, if any;
                 [misaligned]: the header's page size no longer fits *)
              let m, damaged, misaligned =
                match Random.State.int rng 10 with
                | 0 | 1 | 2 | 3 | 4 | 5 ->
                    let p = Random.State.int rng pages in
                    let lo = header + (p * slot) in
                    flip m lo slot;
                    (* two flips of one byte may cancel *)
                    let changed = Bytes.sub_string m lo slot <> String.sub original lo slot in
                    (m, (if changed then Some p else None), false)
                | 6 | 7 -> (Bytes.sub m 0 (Random.State.int rng (Bytes.length m)), None, false)
                | 8 ->
                    flip m 0 8;
                    (m, None, false)
                | _ ->
                    let sizes = [| 0; 1; 255; 257; 512; slot; 65536; 65537; 0xFFFF_FFFF |] in
                    let v =
                      if Random.State.bool rng then sizes.(Random.State.int rng (Array.length sizes))
                      else Random.State.bits rng land 0xFFFF_FFFF
                    in
                    let v = if v = page_size then page_size + 1 else v in
                    Bytes.set_int32_le m 8 (Int32.of_int v);
                    (m, None, true)
              in
              Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc m);
              match Real_disk.open_existing ~readonly:true ~dir (Iostats.create ()) with
              | exception Real_disk.Bad_header _ -> incr refused
              | exception e ->
                  Alcotest.failf "mutant %d: open_existing raised %s" i (Printexc.to_string e)
              | d ->
                  incr opened;
                  (* one id past the original end as well *)
                  for p = 0 to pages do
                    let in_range = p < Real_disk.num_pages d in
                    let valid = in_range && (not misaligned) && damaged <> Some p in
                    (match Real_disk.read d p with
                    | got ->
                        if not valid then Alcotest.failf "mutant %d: page %d read back" i p;
                        if not (Bytes.equal got (payload p)) then
                          Alcotest.failf "mutant %d: page %d read back other bytes" i p
                    | exception Real_disk.Checksum_mismatch _ when in_range && not valid -> ()
                    | exception Sim_disk.Bad_page _ when not in_range -> ()
                    | exception e ->
                        Alcotest.failf "mutant %d: read %d raised %s" i p (Printexc.to_string e));
                    match Real_disk.verify d p with
                    | Ok () when valid -> ()
                    | Error _ when in_range && not valid -> ()
                    | exception Sim_disk.Bad_page _ when not in_range -> ()
                    | Ok () | Error _ -> Alcotest.failf "mutant %d: verify %d disagrees with read" i p
                    | exception e ->
                        Alcotest.failf "mutant %d: verify %d raised %s" i p (Printexc.to_string e)
                  done;
                  Real_disk.close d
            done;
            Alcotest.(check bool) "some mutants refused at open" true (!refused > 0);
            Alcotest.(check bool) "some mutants opened" true (!opened > 0)));
  ]

(* ------------------------------------------------------------------ *)
(* Durable environment: commit / crash / recover *)

let committed_roundtrip () =
  with_dir (fun dir ->
      let env = Env.open_durable ~dir ~page_size:512 ~pool_pages:8 () in
      let rel = Relation.of_list ~durable:true env schema (batch ~seed:1 ~start:0 40) in
      let expected = raw_records rel in
      Env.commit env;
      Env.crash env;
      let env2 = Env.open_durable ~dir ~pool_pages:8 () in
      let cat = Catalog.load_durable env2 in
      (match Catalog.find cat "K" with
      | None -> Alcotest.fail "relation lost"
      | Some rel2 ->
          Alcotest.(check int) "cardinality" 40 (Relation.cardinality rel2);
          check_raw "bit-identical records" expected (raw_records rel2);
          Alcotest.(check bool) "schema survives" true
            (Schema.attrs (Relation.schema rel2) = Schema.attrs schema));
      Env.close env2)

let uncommitted_tail_rolled_back () =
  with_dir (fun dir ->
      let env = Env.open_durable ~dir ~page_size:512 ~pool_pages:32 () in
      let rel = Relation.of_list ~durable:true env schema (batch ~seed:2 ~start:0 20) in
      Env.commit env;
      let expected = raw_records rel in
      (* Appended but never committed nor flushed: must vanish. *)
      List.iter (Relation.insert rel) (batch ~seed:3 ~start:20 15);
      Env.crash env;
      let env2 = Env.open_durable ~dir () in
      (match Env.recovery env2 with
      | Some r -> Alcotest.(check bool) "not clean or clean both fine" true (r.Recovery.replayed >= 0)
      | None -> Alcotest.fail "writable open must report recovery");
      let cat = Catalog.load_durable env2 in
      (match Catalog.find cat "K" with
      | None -> Alcotest.fail "relation lost"
      | Some rel2 ->
          Alcotest.(check int) "only committed tuples" 20
            (Relation.cardinality rel2);
          check_raw "committed prefix bit-identical" expected (raw_records rel2));
      Env.close env2)

let eviction_forces_commit () =
  with_dir (fun dir ->
      (* Pool of 2 frames over many pages: appends force evictions, and
         each evicted dirty page must force a covering commit (WAL rule +
         no-uncommitted-data). After a crash with NO explicit commit, the
         recovered state must be a prefix of the inserted sequence. *)
      let env = Env.open_durable ~dir ~page_size:256 ~pool_pages:2 () in
      let rel = Relation.create ~durable:true env schema in
      let tuples = batch ~seed:4 ~start:0 60 in
      List.iter (Relation.insert rel) tuples;
      let all = raw_records rel in
      (match Env.wal env with
      | Some w -> Alcotest.(check bool) "evictions forced commits" true (Wal.commits w > 0)
      | None -> Alcotest.fail "durable env has no wal");
      Env.crash env;
      let env2 = Env.open_durable ~dir () in
      let cat = Catalog.load_durable env2 in
      (match Catalog.find cat "K" with
      | None -> Alcotest.fail "relation lost"
      | Some rel2 ->
          let got = raw_records rel2 in
          let n = List.length got in
          Alcotest.(check bool) "some records survived" true (n > 0);
          check_raw "recovered state is an exact inserted prefix"
            (List.filteri (fun i _ -> i < n) all)
            got);
      Env.close env2)

let torn_wal_tail_truncated () =
  with_dir (fun dir ->
      let env = Env.open_durable ~dir ~page_size:512 () in
      let rel = Relation.of_list ~durable:true env schema (batch ~seed:5 ~start:0 10) in
      let expected = raw_records rel in
      ignore rel;
      Env.commit env;
      Env.close env;
      (* Simulate a torn append: garbage past the last commit point. *)
      let wal_path = Recovery.wal_path_of dir in
      let fd = Unix.openfile wal_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      let junk = Bytes.of_string "\x42\x13\x37garbage-torn-tail" in
      ignore (Unix.write fd junk 0 (Bytes.length junk));
      Unix.close fd;
      let env2 = Env.open_durable ~dir () in
      (match Env.recovery env2 with
      | Some r ->
          Alcotest.(check bool) "tail truncated" true (r.Recovery.truncated_bytes > 0)
      | None -> Alcotest.fail "no recovery report");
      let cat = Catalog.load_durable env2 in
      (match Catalog.find cat "K" with
      | None -> Alcotest.fail "relation lost"
      | Some rel2 -> check_raw "state intact" expected (raw_records rel2));
      Env.close env2)

let checkpoint_bounds_replay () =
  with_dir (fun dir ->
      let env = Env.open_durable ~dir ~page_size:512 () in
      let rel = Relation.of_list ~durable:true env schema (batch ~seed:6 ~start:0 30) in
      Env.checkpoint env;
      (match Env.wal env with
      | Some w ->
          Alcotest.(check int) "log rewritten to one snapshot record" 1
            (let s = Wal.scan (Wal.path w) in
             List.length s.Wal.scan_records)
      | None -> Alcotest.fail "no wal");
      List.iter (Relation.insert rel) (batch ~seed:7 ~start:30 10);
      Env.commit env;
      let expected = raw_records rel in
      Env.crash env;
      let env2 = Env.open_durable ~dir () in
      (match Env.recovery env2 with
      | Some r ->
          (* Replay covers only the post-checkpoint delta, not the
             original 30 tuples. *)
          Alcotest.(check bool) "bounded replay" true (r.Recovery.replayed < 30)
      | None -> Alcotest.fail "no recovery report");
      let cat = Catalog.load_durable env2 in
      (match Catalog.find cat "K" with
      | None -> Alcotest.fail "relation lost"
      | Some rel2 ->
          Alcotest.(check int) "all 40 tuples" 40 (Relation.cardinality rel2);
          check_raw "bit-identical" expected (raw_records rel2));
      (* A second open finds a clean log: recovery already checkpointed. *)
      Env.close env2;
      let env3 = Env.open_durable ~dir () in
      (match Env.recovery env3 with
      | Some r -> Alcotest.(check bool) "clean" true r.Recovery.clean
      | None -> Alcotest.fail "no recovery report");
      Env.close env3)

let readonly_worker_open () =
  with_dir (fun dir ->
      let env = Env.open_durable ~dir ~page_size:512 () in
      let _ = Relation.of_list ~durable:true env schema (batch ~seed:8 ~start:0 25) in
      Env.close env;
      (* Two read-only opens (shared-nothing workers) see the same data. *)
      let w1 = Env.open_durable ~dir ~readonly:true () in
      let w2 = Env.open_durable ~dir ~readonly:true () in
      let read env =
        match Catalog.find (Catalog.load_durable env) "K" with
        | Some rel -> raw_records rel
        | None -> Alcotest.fail "relation lost"
      in
      let r1 = read w1 and r2 = read w2 in
      check_raw "workers agree" r1 r2;
      Alcotest.(check int) "cardinality" 25 (List.length r1);
      (* Mutation through a read-only env is rejected. *)
      Alcotest.(check bool) "durable create rejected" true
        (try
           ignore (Relation.create ~durable:true w1 schema);
           false
         with Wal.Read_only _ | Invalid_argument _ -> true);
      Env.close w1;
      Env.close w2)

let flush_and_reset_stats_contract () =
  with_dir (fun dir ->
      let env = Env.open_durable ~dir ~page_size:512 () in
      let rel = Relation.create ~durable:true env schema in
      List.iter (Relation.insert rel) (batch ~seed:9 ~start:0 12);
      Env.flush env;
      (* After flush the pages are on the device (checksummed); commit
         was forced by the WAL rule before each write-back. *)
      (match Disk.as_real env.Env.disk with
      | Some d ->
          List.iter
            (fun (_, _, pages) ->
              Array.iter (fun p -> ignore (Real_disk.read d p)) pages)
            (Env.manifest env)
      | None -> Alcotest.fail "not durable");
      let expected = raw_records rel in
      (* reset_stats drops the pool; drop flushes first, so nothing is
         lost and the data is re-readable from disk. *)
      Env.reset_stats env;
      Alcotest.(check int) "stats zeroed" 0 (Iostats.total_ios env.Env.stats);
      check_raw "records survive a drop" expected (raw_records rel);
      Env.close env)

let eviction_during_image_capture () =
  with_dir (fun dir ->
      (* Regression: appending to a pre-checkpoint page logs a full page
         image first, and capturing that image reads through the buffer
         pool. With a 2-frame pool that read can evict a dirty logged
         frame, whose write-back re-enters the WAL via
         [ensure_committed] — so the image callback must run with the
         WAL mutex released (self-deadlock otherwise). Three appends to
         three distinct pre-checkpoint tail pages guarantee that by the
         third, both pool frames hold dirty logged pages and the
         image-capture read must evict one. *)
      let env = Env.open_durable ~dir ~page_size:256 ~pool_pages:2 () in
      let mk seed name =
        let schema =
          Schema.make ~name [ ("ID", Schema.TNum); ("X", Schema.TNum) ]
        in
        Relation.of_list ~durable:true env schema (batch ~seed ~start:0 4)
      in
      let rels = [ mk 21 "A"; mk 22 "B"; mk 23 "C" ] in
      Env.checkpoint env;
      List.iter
        (fun rel -> List.iter (Relation.insert rel) (batch ~seed:31 ~start:4 2))
        rels;
      Env.commit env;
      let expected = List.map raw_records rels in
      Env.crash env;
      let env2 = Env.open_durable ~dir () in
      let cat = Catalog.load_durable env2 in
      List.iteri
        (fun i name ->
          match Catalog.find cat name with
          | None -> Alcotest.fail (name ^ " lost")
          | Some rel ->
              check_raw (name ^ " bit-identical") (List.nth expected i)
                (raw_records rel))
        [ "A"; "B"; "C" ];
      Env.close env2)

let oob_heap_append_is_corrupt () =
  with_dir (fun dir ->
      (* A CRC-valid log paired with a smaller-paged data file must
         surface as a typed [Recovery.Corrupt], not abort redo with an
         untyped [Invalid_argument] from an out-of-bounds blit. *)
      Unix.mkdir dir 0o755;
      let wal = Wal.create ~path:(Recovery.wal_path_of dir) ~mode:Wal.Always in
      let fid = Wal.new_file wal in
      ignore (Wal.log_alloc wal ~fid ~page:0);
      ignore
        (Wal.log_heap_append wal ~page:0 ~off:60_000 ~count:1
           ~data:(Bytes.make 100 'x')
           ~image:(fun () -> Bytes.empty));
      Wal.commit wal;
      Wal.close wal;
      Alcotest.(check bool) "Corrupt" true
        (try
           ignore (Recovery.recover ~page_size:256 ~dir (Iostats.create ()));
           false
         with Recovery.Corrupt _ -> true))

let env_tests =
  [
    tc "commit survives crash bit-identically" `Quick committed_roundtrip;
    tc "uncommitted tail rolled back" `Quick uncommitted_tail_rolled_back;
    tc "eviction forces a covering commit" `Quick eviction_forces_commit;
    tc "image capture under eviction pressure" `Quick
      eviction_during_image_capture;
    tc "out-of-bounds heap append is Corrupt" `Quick oob_heap_append_is_corrupt;
    tc "torn WAL tail truncated on recovery" `Quick torn_wal_tail_truncated;
    tc "checkpoint bounds replay" `Quick checkpoint_bounds_replay;
    tc "read-only worker opens" `Quick readonly_worker_open;
    tc "flush / reset_stats contract" `Quick flush_and_reset_stats_contract;
    tc "append_many refuses a durable file" `Quick (fun () ->
        with_dir (fun dir ->
            let env = Env.open_durable ~dir ~page_size:512 ~pool_pages:8 () in
            let f = Heap_file.create ~durable:true env in
            let r = Bytes.of_string "record" in
            Alcotest.(check bool) "raises" true
              (try Heap_file.append_many f [| r |] [| 0 |] [| 6 |] 1; false
               with Invalid_argument _ -> true);
            Alcotest.(check int) "nothing appended" 0 (Heap_file.num_records f);
            Env.crash env));
  ]

(* ------------------------------------------------------------------ *)
(* Group commit *)

let group_commit_threads () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let wal =
        Wal.create ~path:(Recovery.wal_path_of dir) ~mode:Wal.Group
      in
      let n_threads = 4 and per_thread = 25 in
      let threads =
        List.init n_threads (fun ti ->
            Thread.create
              (fun () ->
                for k = 1 to per_thread do
                  let fid = Wal.new_file wal in
                  Wal.log_define wal ~fid
                    ~meta:(Bytes.of_string (Printf.sprintf "t%d-%d" ti k));
                  Wal.commit wal
                done)
              ())
      in
      List.iter Thread.join threads;
      let total = n_threads * per_thread in
      (* Concurrent commits may coalesce: a Commit record appended by
         one thread can cover another's records, in which case the
         covered [Wal.commit] appends no record of its own — it still
         returns only after its records are durable (checked below by
         re-scanning the log). *)
      Alcotest.(check bool) "commit records appended, possibly coalesced" true
        (let c = Wal.commits wal in c > 0 && c <= total);
      Alcotest.(check bool) "group batching never exceeds commit calls" true
        (Wal.fsyncs wal <= total);
      Wal.close wal;
      (* The log is clean and complete: every define survived. *)
      let s = Wal.scan (Recovery.wal_path_of dir) in
      Alcotest.(check int) "no torn tail" s.Wal.scan_file_len s.Wal.scan_valid_end;
      let defines =
        List.length
          (List.filter
             (fun (_, r) -> match r with Wal.Define _ -> true | _ -> false)
             s.Wal.scan_records)
      in
      Alcotest.(check int) "all defines durable" total defines)

let wal_tests =
  [ tc "group commit: concurrent committers all durable" `Quick group_commit_threads ]

(* ------------------------------------------------------------------ *)
(* qcheck: the fresh-page set against a Hashtbl model *)

(* Random alloc / heap-append / checkpoint sequences over page ids that
   mostly fall in the first few bytes of the set and sometimes far past
   its end. After every step [Wal.is_fresh_page] must agree with the
   model on every id touched so far (and on ids never touched), and a
   reopen, which rebuilds the set from the log, must agree too. *)
let prop_fresh_pages_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun p -> `Alloc p) (int_bound 80));
          (4, map (fun p -> `Append p) (int_bound 80));
          (1, map (fun p -> `Alloc p) (int_range 1_000 20_000));
          (1, return `Checkpoint);
        ])
  in
  QCheck.Test.make ~count:60
    ~name:"Wal fresh-page set = Hashtbl model over alloc/image/checkpoint"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 120) op))
    (fun ops ->
      with_dir (fun dir ->
          Unix.mkdir dir 0o755;
          let path = Recovery.wal_path_of dir in
          let wal = Wal.create ~path ~mode:Wal.Never in
          let fid = Wal.new_file wal in
          let model = Hashtbl.create 64 in
          let agrees wal =
            let probe = [ 0; 7; 8; 63; 64; 81; 999; 20_001; 1_000_000 ] in
            List.for_all
              (fun p -> Wal.is_fresh_page wal p = Hashtbl.mem model p)
              (probe @ Hashtbl.fold (fun p () acc -> p :: acc) model [])
          in
          let ok =
            List.for_all
              (fun op ->
                (match op with
                | `Alloc page ->
                    ignore (Wal.log_alloc wal ~fid ~page);
                    Hashtbl.replace model page ()
                | `Append page ->
                    (* a page not fresh is imaged first; fresh either way *)
                    ignore
                      (Wal.log_heap_append wal ~page ~off:2 ~count:1
                         ~data:(Bytes.make 4 'x')
                         ~image:(fun () -> Bytes.make 64 '\000'));
                    Hashtbl.replace model page ()
                | `Checkpoint ->
                    Wal.commit wal;
                    Wal.checkpoint wal;
                    Hashtbl.reset model);
                agrees wal)
              ops
          in
          Wal.commit wal;
          Wal.close wal;
          let reopened = Wal.open_existing ~path ~mode:Wal.Never ~readonly:true in
          let ok = ok && agrees reopened in
          Wal.close reopened;
          ok))

(* ------------------------------------------------------------------ *)
(* qcheck: any single-byte corruption of a persisted page is detected *)

let prop_corruption_detected =
  QCheck.Test.make ~count:150
    ~name:"single-byte corruption always raises Checksum_mismatch"
    QCheck.(triple (int_bound 10_000) (int_bound 10_000) (int_range 1 255))
    (fun (seed, off_sel, xor) ->
      with_dir (fun dir ->
          let page_size = 256 in
          let stats = Iostats.create () in
          let d = Real_disk.create ~page_size ~dir stats in
          let rng = Random.State.make [| seed |] in
          let n_pages = 1 + Random.State.int rng 4 in
          let pages =
            List.init n_pages (fun _ ->
                let p = Real_disk.alloc d in
                Real_disk.write ~lsn:(Random.State.int rng 1000) d p
                  (Bytes.init page_size (fun _ ->
                       Char.chr (Random.State.int rng 256)));
                p)
          in
          Real_disk.close d;
          (* Flip one byte anywhere inside a random page's slot (payload
             or trailer — both are protected). *)
          let victim = List.nth pages (Random.State.int rng n_pages) in
          let slot = page_size + 16 in
          let off = 4096 + (victim * slot) + (off_sel mod slot) in
          let fd = Unix.openfile (Filename.concat dir "data.fsql") [ Unix.O_RDWR ] 0o644 in
          let b = Bytes.create 1 in
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.read fd b 0 1);
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor xor));
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1);
          Unix.close fd;
          let d2 = Real_disk.open_existing ~dir (Iostats.create ()) in
          let detected =
            try
              ignore (Real_disk.read d2 victim);
              false
            with Real_disk.Checksum_mismatch { page; _ } -> page = victim
          in
          Real_disk.close d2;
          detected))

(* ------------------------------------------------------------------ *)
(* qcheck: crash at a random WAL offset recovers exactly the last
   committed state *)

let prop_crash_offset_determinism =
  QCheck.Test.make ~count:60
    ~name:"crash at random WAL offset -> last committed state, bit-identical"
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (seed, cut_sel) ->
      with_dir (fun dir ->
          (* Build batches with a commit after each; the pool is large
             enough that nothing is evicted, so the WAL alone carries
             the state and any cut offset is a physically possible
             crash point. Record the raw state at every commit. *)
          let env =
            Env.open_durable ~dir ~page_size:512 ~pool_pages:256
              ~wal_sync:Wal.Always ()
          in
          let rng = Random.State.make [| seed |] in
          let n_batches = 1 + Random.State.int rng 4 in
          let rel = Relation.create ~durable:true env schema in
          let wal = Option.get (Env.wal env) in
          let states = ref [ (Wal.committed_end wal, []) ] in
          let count = ref 0 in
          for b = 1 to n_batches do
            let n = 1 + Random.State.int rng 12 in
            List.iter (Relation.insert rel) (batch ~seed:(seed + b) ~start:!count n);
            count := !count + n;
            Env.commit env;
            states := (Wal.committed_end wal, raw_records rel) :: !states
          done;
          Env.crash env;
          (* Cut the log at a random offset (>= header) and recover. *)
          let wal_path = Recovery.wal_path_of dir in
          let len = (Unix.stat wal_path).Unix.st_size in
          let cut = Wal.header_size + (cut_sel mod (len - Wal.header_size + 1)) in
          let fd = Unix.openfile wal_path [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd cut;
          Unix.close fd;
          let expected =
            (* Largest committed state whose commit point fits the cut. *)
            List.fold_left
              (fun best (lsn, recs) ->
                match best with
                | Some (blsn, _) when blsn >= lsn -> best
                | _ when lsn <= cut -> Some (lsn, recs)
                | _ -> best)
              None !states
            |> Option.map snd
            |> Option.value ~default:[]
          in
          let env2 = Env.open_durable ~dir () in
          let got =
            match Catalog.find (Catalog.load_durable env2) "K" with
            | Some rel2 -> raw_records rel2
            | None -> []
          in
          let ok = got = expected in
          Env.close env2;
          ok))

(* ------------------------------------------------------------------ *)
(* qcheck: recovery under torn-write fault clauses — torn data pages
   never survive undetected and the committed state is reproduced *)

let prop_torn_write_recovery =
  QCheck.Test.make ~count:40
    ~name:"torn data-page writes: recovery reproduces committed state"
    QCheck.(pair (int_bound 10_000) (int_range 1 6))
    (fun (seed, tear_every) ->
      with_dir (fun dir ->
          let env =
            Env.open_durable ~dir ~page_size:512 ~pool_pages:64
              ~wal_sync:Wal.Always ()
          in
          let rel = Relation.create ~durable:true env schema in
          let rng = Random.State.make [| seed |] in
          let committed = ref [] in
          let count = ref 0 in
          let n_batches = 1 + Random.State.int rng 3 in
          for b = 1 to n_batches do
            let n = 1 + Random.State.int rng 10 in
            List.iter (Relation.insert rel) (batch ~seed:(seed + (7 * b)) ~start:!count n);
            count := !count + n;
            Env.commit env;
            committed := raw_records rel
          done;
          (* Arm torn writes on the durable disk, then flush: some page
             write-backs tear (half the slot persists). The log already
             holds everything committed, so recovery must rebuild the
             exact committed state and leave no undetected torn page. *)
          (match Fault.parse_spec (Printf.sprintf "torn:every=%d" tear_every) with
          | Ok spec -> Env.set_fault env (Some (Fault.create ~seed spec))
          | Error m -> failwith m);
          (try Env.flush env with Fault.Injected _ -> ());
          Env.set_fault env None;
          Env.crash env;
          let env2 = Env.open_durable ~dir () in
          let wal2 = Option.get (Env.wal env2) in
          let disk2 = Option.get (Disk.as_real env2.Env.disk) in
          let survivors = Recovery.verify_pages wal2 disk2 in
          let got =
            match Catalog.find (Catalog.load_durable env2) "K" with
            | Some rel2 -> raw_records rel2
            | None -> []
          in
          let ok = survivors = [] && got = !committed in
          Env.close env2;
          ok))

(* ------------------------------------------------------------------ *)
(* qcheck: recovery is idempotent when the process dies during the
   post-redo checkpoint *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let prop_checkpoint_crash_idempotent =
  QCheck.Test.make ~count:40
    ~name:"crash mid-checkpoint write: recovery is idempotent"
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (seed, cut_sel) ->
      with_dir (fun dir ->
          (* Committed workload, then a crash with a dirty pool. *)
          let env =
            Env.open_durable ~dir ~page_size:512 ~pool_pages:256
              ~wal_sync:Wal.Always ()
          in
          let rng = Random.State.make [| seed; 0xCC |] in
          let rel = Relation.create ~durable:true env schema in
          let count = ref 0 in
          for b = 1 to 1 + Random.State.int rng 3 do
            let n = 1 + Random.State.int rng 10 in
            List.iter (Relation.insert rel) (batch ~seed:(seed + b) ~start:!count n);
            count := !count + n;
            Env.commit env
          done;
          Env.crash env;
          let wal_path = Recovery.wal_path_of dir in
          let data_path = Filename.concat dir "data.fsql" in
          let wal0 = read_file wal_path and data0 = read_file data_path in
          (* Reference run: recovery to completion, checkpoint included.
             Its state and its checkpointed log are what every
             crash-interrupted retry must converge to. *)
          let env1 = Env.open_durable ~dir () in
          let expected =
            match Catalog.find (Catalog.load_durable env1) "K" with
            | Some r -> raw_records r
            | None -> []
          in
          Env.close env1;
          let ckpt_wal = read_file wal_path in
          (* Rewind to the pre-recovery files and plant a crash-torn
             checkpoint: a prefix of the new log sits in wal.fsql.tmp,
             the rename never happened. The next recovery must ignore
             the tmp entirely (checkpoint opens it with O_TRUNC), redo
             from the intact old log, and converge to the same state. *)
          write_file wal_path wal0;
          write_file data_path data0;
          let cut = cut_sel mod (String.length ckpt_wal + 1) in
          write_file (wal_path ^ ".tmp") (String.sub ckpt_wal 0 cut);
          let env2 = Env.open_durable ~dir () in
          let got =
            match Catalog.find (Catalog.load_durable env2) "K" with
            | Some r -> raw_records r
            | None -> []
          in
          Env.close env2;
          (* The retry rewrote the checkpoint through its own tmp+rename,
             so no stale tmp file survives. *)
          got = expected && not (Sys.file_exists (wal_path ^ ".tmp"))))

(* ------------------------------------------------------------------ *)
(* The durable catalog: relations with fuzzy values through a reopen *)

(* The paper's F and M copied into a fresh durable environment under
   [dir], closed cleanly; [f] gets the source catalog and the catalog
   rebuilt from the reopened environment. *)
let with_reopened_paper_db dir f =
  let src = Test_util.paper_db (Test_util.fresh_env ()) in
  let env = Env.open_durable ~dir ~page_size:512 ~pool_pages:16 () in
  List.iter
    (fun name ->
      let rel = Option.get (Catalog.find src name) in
      ignore
        (Relation.of_list ?pad_to:(Relation.pad_to rel) ~durable:true env
           (Relation.schema rel) (Relation.to_list rel)))
    (Catalog.names src);
  Env.close env;
  let env2 = Env.open_durable ~dir () in
  Fun.protect
    ~finally:(fun () -> Env.close env2)
    (fun () -> f src (Catalog.load_durable env2))

let catalog_tests =
  [
    tc "paper relations reopen with schema, tuples and degrees" `Quick
      (fun () ->
        with_dir (fun dir ->
            with_reopened_paper_db dir (fun src cat ->
                Alcotest.(check (list string)) "names"
                  (List.sort compare (Catalog.names src))
                  (List.sort compare (Catalog.names cat));
                List.iter
                  (fun name ->
                    let a = Option.get (Catalog.find src name)
                    and b = Option.get (Catalog.find cat name) in
                    Alcotest.(check string) "schema name"
                      (Schema.name (Relation.schema a))
                      (Schema.name (Relation.schema b));
                    Alcotest.(check bool) "typed attributes" true
                      (Schema.attrs (Relation.schema a)
                      = Schema.attrs (Relation.schema b));
                    Alcotest.(check bool) "durable" true (Relation.is_durable b);
                    Test_util.check_same_answer name a b)
                  (Catalog.names src))));
    tc "reopened paper catalog answers the paper query identically" `Quick
      (fun () ->
        with_dir (fun dir ->
            with_reopened_paper_db dir (fun src cat ->
                let run c =
                  Frepro.Unnest.Planner.run
                    (Frepro.Fuzzysql.Analyzer.bind_string ~catalog:c
                       ~terms:Frepro.Fuzzy.Term.paper
                       "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND \
                        F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = \
                        'middle age')")
                in
                let expected = run src in
                Alcotest.(check bool) "the answer is not empty" true
                  (Relation.cardinality expected > 0);
                Test_util.check_same_answer "same answers" expected (run cat))));
    tc "metadata keeps the schema name, attribute types and pad_to" `Quick
      (fun () ->
        with_dir (fun dir ->
            let s =
              Schema.make ~name:"P" [ ("N", Schema.TStr); ("V", Schema.TNum) ]
            in
            let env = Env.open_durable ~dir ~page_size:512 ~pool_pages:8 () in
            ignore (Relation.create ~pad_to:48 ~durable:true env s);
            ignore (Relation.create ~durable:true env (Schema.with_name s "Q"));
            Env.close env;
            let env2 = Env.open_durable ~dir () in
            let cat = Catalog.load_durable env2 in
            List.iter
              (fun (name, pad_to) ->
                match Catalog.find cat name with
                | None -> Alcotest.failf "%s lost" name
                | Some r ->
                    Alcotest.(check bool) (name ^ " attributes") true
                      (Schema.attrs (Relation.schema r) = Schema.attrs s);
                    Alcotest.(check (option int)) (name ^ " pad_to") pad_to
                      (Relation.pad_to r);
                    Alcotest.(check int) (name ^ " empty") 0
                      (Relation.cardinality r))
              [ ("P", Some 48); ("Q", None) ];
            Env.close env2));
    tc "a corrupt metadata blob raises Bad_meta" `Quick (fun () ->
        with_dir (fun dir ->
            let env = Env.open_durable ~dir ~page_size:512 ~pool_pages:8 () in
            ignore (Relation.create ~durable:true env schema);
            let fid, meta, pages =
              match Env.manifest env with
              | [ entry ] -> entry
              | l -> Alcotest.failf "%d manifest entries" (List.length l)
            in
            let open_with meta = Relation.open_durable env ~fid ~meta ~pages in
            let rejects label meta =
              Alcotest.(check bool) label true
                (try
                   ignore (open_with meta);
                   false
                 with Relation.Bad_meta _ -> true)
            in
            rejects "empty" Bytes.empty;
            rejects "truncated" (Bytes.sub meta 0 (Bytes.length meta - 1));
            let bad_tag = Bytes.copy meta in
            Bytes.set_uint8 bad_tag (Bytes.length meta - 1) 7;
            rejects "bad type tag" bad_tag;
            (* shrunk from a mutant of the fuzzer below: P(B, B) raised
               Schema.make's Invalid_argument *)
            rejects "repeated attribute name"
              (Bytes.of_string "\001\000P\255\255\002\000\001\000B\000\001\000B\000");
            let intact = Schema.attrs (Relation.schema (open_with meta)) in
            Env.close env;
            Alcotest.(check bool) "the intact blob decodes" true
              (intact = Schema.attrs schema)));
  ]

(* ------------------------------------------------------------------ *)
(* Fuzzing the log decoders past the checksum *)

(* One frame of every record kind, as [Wal] writes them: the log's bytes
   cut at the records' end LSNs. *)
let sample_frames () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Recovery.wal_path_of dir in
      let wal = Wal.create ~path ~mode:Wal.Never in
      List.iter
        (fun r -> ignore (Wal.append wal r))
        [
          Wal.Alloc { fid = 3; page = 17 };
          Wal.Page_image { page = 17; data = Bytes.init 48 (fun i -> Char.chr (i * 7 land 0xff)) };
          Wal.Heap_append { page = 17; off = 12; count = 2; data = Bytes.of_string "record bytes" };
          Wal.Free { fid = 4 };
          Wal.Define { fid = 3; meta = Bytes.of_string "schema K(ID, X)" };
          Wal.Checkpoint
            { next_fid = 9; files = [ (3, Bytes.of_string "meta", [| 17; 18; 40 |]);
                                      (5, Bytes.empty, [||]) ]; epoch = 2 };
          Wal.Epoch { epoch = 3 };
        ];
      Wal.commit wal;
      Wal.close wal;
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let records, _, _ =
        Wal.parse_stream (Bytes.of_string data) ~off:Wal.header_size ~base:Wal.header_size
      in
      let start = ref Wal.header_size in
      List.map
        (fun (end_lsn, _) ->
          let f = String.sub data !start (end_lsn - !start) in
          start := end_lsn;
          f)
        records)

(* The frame layout: [u32 body_len][u8 tag][u64 start][body][u32 crc],
   the CRC over tag, start and body. [reframe] stamps a (mutated) tag and
   body at [start] with a length and a CRC that match, so the frame passes
   every check before the body decoder. *)
let reframe ~start tag body =
  let protected = Buffer.create (9 + String.length body) in
  Buffer.add_uint8 protected tag;
  Buffer.add_int64_le protected (Int64.of_int start);
  Buffer.add_string protected body;
  let protected = Buffer.to_bytes protected in
  let b = Buffer.create (Bytes.length protected + 8) in
  Buffer.add_int32_le b (Int32.of_int (String.length body));
  Buffer.add_bytes b protected;
  Buffer.add_int32_le b (Crc32.bytes protected);
  Buffer.contents b

(* 1-5 changed bytes, a cut or grown body, a 32-bit field set to an
   extreme, or (rarely) another tag. *)
let mutate_body rng tag body =
  let n = String.length body in
  let b = Bytes.of_string body in
  match Random.State.int rng 10 with
  | 0 | 1 | 2 when n > 0 ->
      for _ = 1 to 1 + Random.State.int rng 5 do
        let i = Random.State.int rng n in
        Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 + Random.State.int rng 255))
      done;
      (tag, Bytes.to_string b)
  | 3 | 4 -> (tag, String.sub body 0 (Random.State.int rng (n + 1)))
  | 5 -> (tag, body ^ String.init (1 + Random.State.int rng 12) (fun _ -> Char.chr (Random.State.int rng 256)))
  | 6 | 7 | 8 when n >= 4 ->
      let extremes = [| 0; 1; 2; 0xFFFF; 0xFFFF_FFFF; 0x7FFF_FFFF; n; n / 4; Random.State.bits rng |] in
      Bytes.set_int32_le b
        (4 * Random.State.int rng (n / 4))
        (Int32.of_int extremes.(Random.State.int rng (Array.length extremes)));
      (tag, Bytes.to_string b)
  | _ -> ((if Random.State.bool rng then Random.State.int rng 256 else 1 + Random.State.int rng 8), body)

let wal_fuzz_tests =
  [
    tc "20,000 mutants per record kind past the CRC: parse_stream and Tail never raise" `Quick
      (fun () ->
        let frames = Array.of_list (sample_frames ()) in
        Alcotest.(check int) "one frame per record kind" 8 (Array.length frames);
        let base = Wal.header_size in
        let rng = Random.State.make [| 0x3A1 |] in
        let bad = ref 0 and decoded = ref 0 in
        let commit_at start = reframe ~start 6 "" in
        Array.iter
          (fun f ->
            let tag = Char.code f.[4] and body = String.sub f 13 (String.length f - 17) in
            for i = 1 to 20_000 do
              let tag', body' = mutate_body rng tag body in
              let m = reframe ~start:base tag' body' in
              (match Wal.parse_stream (Bytes.of_string m) ~base with
              | [], 0, Wal.Stream_bad -> incr bad
              | [ _ ], n, Wal.Stream_ok when n = String.length m -> incr decoded
              | _, _, (Wal.Stream_ok | Wal.Stream_bad) ->
                  Alcotest.failf "mutant %d of tag %d: a lone complete frame parsed partly" i tag
              | exception e ->
                  Alcotest.failf "mutant %d of tag %d: parse_stream raised %s" i tag
                    (Printexc.to_string e));
              (* The replica's tail: the mutant then a commit, fed in two
                 pieces and drained after each. *)
              let stream = m ^ commit_at (base + String.length m) in
              let cut = Random.State.int rng (String.length stream + 1) in
              let tail = Wal_stream.Tail.create ~start_lsn:base in
              List.iter
                (fun piece ->
                  Wal_stream.Tail.feed tail (Bytes.of_string piece);
                  match Wal_stream.Tail.drain tail with
                  | Ok _ | Error _ -> ()
                  | exception e ->
                      Alcotest.failf "mutant %d of tag %d: Tail.drain raised %s" i tag
                        (Printexc.to_string e))
                [ String.sub stream 0 cut; String.sub stream cut (String.length stream - cut) ]
            done)
          frames;
        (* Both outcomes occur, so the decoder was reached and refused. *)
        Alcotest.(check bool) "some mutants refused" true (!bad > 0);
        Alcotest.(check bool) "some mutants decoded" true (!decoded > 0));
    (* The catalog metadata blob is the body of a Define record and of
       each Checkpoint entry, read back by [Relation.open_durable]. *)
    tc "20,000 mutants of a metadata blob: open_durable raises only Bad_meta" `Quick (fun () ->
        with_dir (fun dir ->
            let env = Env.open_durable ~dir ~page_size:512 ~pool_pages:8 () in
            let s =
              Schema.make ~name:"P"
                [ ("A", Schema.TStr); ("B", Schema.TNum); ("C", Schema.TNum) ]
            in
            ignore (Relation.create ~pad_to:48 ~durable:true env s);
            let fid, meta, pages =
              match Env.manifest env with
              | [ entry ] -> entry
              | l -> Alcotest.failf "%d manifest entries" (List.length l)
            in
            let meta = Bytes.to_string meta in
            let rng = Random.State.make [| 0x3E7A |] in
            let bad = ref 0 and decoded = ref 0 in
            for i = 1 to 20_000 do
              let _, m = mutate_body rng 0 meta in
              match Relation.open_durable env ~fid ~meta:(Bytes.of_string m) ~pages with
              | _ -> incr decoded
              | exception Relation.Bad_meta _ -> incr bad
              | exception e ->
                  Alcotest.failf "mutant %d %S: open_durable raised %s" i m (Printexc.to_string e)
            done;
            Env.close env;
            Alcotest.(check bool) "some mutants refused" true (!bad > 0);
            Alcotest.(check bool) "some mutants decoded" true (!decoded > 0)));
  ]

let suites =
  [
    ("recovery.real-disk", real_disk_tests);
    ("recovery.env", env_tests);
    ("recovery.catalog", catalog_tests);
    ("recovery.wal", wal_tests);
    ("recovery.wal-fuzz", wal_fuzz_tests);
    ( "recovery.qcheck",
      [
        QCheck_alcotest.to_alcotest prop_corruption_detected;
        QCheck_alcotest.to_alcotest prop_crash_offset_determinism;
        QCheck_alcotest.to_alcotest prop_torn_write_recovery;
        QCheck_alcotest.to_alcotest prop_checkpoint_crash_idempotent;
        QCheck_alcotest.to_alcotest prop_fresh_pages_model;
      ] );
  ]

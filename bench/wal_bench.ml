(** WAL bench: commit throughput with and without group commit, and
    recovery time as a function of log length.

    The throughput half measures raw [Wal.commit] cost per sync mode x
    committer-thread count: [always] pays one fsync per commit, [group]
    lets concurrent committers share a leader's fsync (the interesting
    cell — its fsyncs/commits ratio drops as threads grow), and [never]
    is the no-durability upper bound. The recovery half builds durable
    heaps of increasing size, crashes without a flush (so the whole
    state lives in the log), and times the redo restart. Both land as
    ["wal"] / ["recovery"] rows in BENCH_results.json. *)

open Frepro
open Frepro.Storage
open Harness

let commit_cell ~mode ~threads ~total =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let wal = Wal.create ~path:(Recovery.wal_path_of dir) ~mode in
      let per_thread = total / threads in
      let t0 = Unix.gettimeofday () in
      let committers =
        List.init threads (fun ti ->
            Thread.create
              (fun () ->
                for k = 1 to per_thread do
                  let fid = Wal.new_file wal in
                  Wal.log_define wal ~fid
                    ~meta:(Bytes.of_string (Printf.sprintf "b%d-%d" ti k));
                  Wal.commit wal
                done)
              ())
      in
      List.iter Thread.join committers;
      let duration = Unix.gettimeofday () -. t0 in
      let commits = Wal.commits wal and fsyncs = Wal.fsyncs wal in
      Wal.close wal;
      let qps = float_of_int commits /. Float.max 1e-9 duration in
      record "wal"
        [
          ("mode", Text (Wal.sync_mode_name mode)); ("threads", Int threads);
          ("commits", Int commits); ("fsyncs", Int fsyncs);
          ("commit_qps", Fixed (1, qps)); ("duration_s", Fixed (3, duration));
        ];
      (qps, fsyncs, commits))

let bench_schema =
  Relational.Schema.make ~name:"W"
    [ ("ID", Relational.Schema.TNum); ("X", Relational.Schema.TNum) ]

let bench_tuples ~seed n =
  let rng = Random.State.make [| 0xBE7C; seed |] in
  List.init n (fun k ->
      Relational.Ftuple.make
        [| Relational.Value.Int k;
           Relational.Value.crisp_num (Random.State.float rng 100.0) |]
        (0.125 *. float_of_int (1 + (k mod 8))))

let recovery_cell ~seed n =
  with_temp_dir (fun dir ->
      (* Large pool, no checkpoint: every tuple reaches the device only
         through the redo pass we are timing. *)
      let env =
        Env.open_durable ~dir ~page_size:8192 ~pool_pages:4096
          ~wal_sync:Wal.Never ()
      in
      let rel = Relational.Relation.create ~durable:true env bench_schema in
      List.iter (Relational.Relation.insert rel) (bench_tuples ~seed n);
      Env.commit env;
      Env.crash env;
      let wal_bytes = (Unix.stat (Recovery.wal_path_of dir)).Unix.st_size in
      let t0 = Unix.gettimeofday () in
      let env2 = Env.open_durable ~dir () in
      let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
      let report = Option.get (Env.recovery env2) in
      let recovered =
        match Relational.Catalog.find (Relational.Catalog.load_durable env2) "W" with
        | Some r -> Relational.Relation.cardinality r
        | None -> 0
      in
      Env.close env2;
      if recovered <> n then
        failwith
          (Printf.sprintf "recovery bench: recovered %d of %d tuples" recovered n);
      let cell = Printf.sprintf "%d-tuples" n in
      record "recovery"
        [
          ("cell", Text cell); ("wal_records", Int report.Recovery.wal_records);
          ("replayed", Int report.Recovery.replayed);
          ("pages_redone", Int report.Recovery.pages_redone);
          ("wal_bytes", Int wal_bytes); ("clean", Flag report.Recovery.clean);
          ("recovery_ms", Fixed (3, ms));
        ];
      Format.printf "%-14s | %10d | %10d | %8d | %10d | %12.2f@." cell
        wal_bytes report.Recovery.wal_records report.Recovery.pages_redone
        report.Recovery.replayed ms)

let run (cfg : Harness.config) =
  section "WAL - commit throughput per sync mode and committer count";
  note "always: one fsync per commit; group: concurrent committers share@.";
  note "the leader's fsync; never: no durability (upper bound)@.@.";
  let total = 512 in
  Format.printf "%-8s | %8s | %10s | %8s | %12s@." "mode" "threads"
    "commit qps" "fsyncs" "fsyncs/commit";
  hr Format.std_formatter 58;
  List.iter
    (fun mode ->
      List.iter
        (fun threads ->
          let qps, fsyncs, commits = commit_cell ~mode ~threads ~total in
          Format.printf "%-8s | %8d | %10.0f | %8d | %12.3f@."
            (Wal.sync_mode_name mode) threads qps fsyncs
            (float_of_int fsyncs /. Float.max 1.0 (float_of_int commits)))
        [ 1; 4; 8 ])
    [ Wal.Always; Wal.Group; Wal.Never ];
  section "Recovery - redo restart time vs log length";
  note "durable heap built with no flush, crashed, reopened: the whole@.";
  note "state replays from the log (recovery then checkpoints, so a@.";
  note "second open is clean)@.@.";
  Format.printf "%-14s | %10s | %10s | %8s | %10s | %12s@." "tuples"
    "wal bytes" "records" "pages" "replayed" "recover (ms)";
  hr Format.std_formatter 78;
  List.iter
    (fun n -> recovery_cell ~seed:cfg.seed n)
    [ 200; 1000; 5000; 20000 ]

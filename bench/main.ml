(** Regenerates every table and figure of Section 9 of the paper, plus the
    membership-function figures and an ablation study.

    Usage: [bench/main.exe [targets] [--full] [--scale N] [--io-latency S]
    [--seed N] [--queries N]
    [--trace PATH]] where targets are any of [table1 table2 table3 table4
    fig3 fig1 ablation chain chaos kernels alloc
    telemetry wal recovery failover all] (default: all). [wal] measures WAL
    commit throughput per sync mode and redo-restart time vs log length.
    [chaos], [recovery] and [failover] are the three fault sources of the
    chaos driver: fault planes under the serving path ([--seed] picks the
    fault seeds, [--queries] the per-cell query count), SIGKILL of a
    durable writer then recovery, and SIGKILL of a semi-sync primary then
    replica promotion and fencing. One verdict checks them all and a FAIL
    makes the run exit non-zero; see {!Chaos}. [kernels] times the
    vectorized inner loops standalone, and CRC-32 over an 8 KiB page and
    a 150-byte WAL frame. [alloc] counts the minor-heap words
    of one query, exact in native code, for a join-large-shaped type J
    query and serve-small's 3-block chain (run it with [--seed 1] for the
    benchmark's data). [--trace PATH]
    additionally runs the 3-block chain query under the span collector and
    writes a Chrome trace_event file to PATH (bare [--trace PATH] runs only
    that). Serving latency under closed-loop clients is measured by the
    repository benchmark's serve-small workload ([perfbench/]).
    [--full] runs at the paper's absolute sizes (slow); the default scales
    every size by 8, which preserves all relation-size : buffer-size ratios.
    Every measured cell is also dumped to [BENCH_results.json]. *)

open Frepro
open Harness

(* ------------------------------------------------------------------ *)
(* Table 1: equal relation sizes, 128 B tuples, fan-out C = 7.         *)
(* ------------------------------------------------------------------ *)

let table1 cfg =
  section "Table 1 - Response time (s): equal relation sizes, C = 7";
  note "paper reference: NL 501 / 1965 / 7754 / 30879 / - / -@.";
  note "                 MJ 40 / 84 / 223 / 852 / 1897 / 3733 (speedup 12.5 -> 36.2)@.";
  note "scaled sizes: paper MB / %d, buffer %d pages@.@." cfg.scale (mem_pages cfg);
  let sizes = [ 1; 2; 4; 8; 16; 32 ] in
  (* The paper's nested loop "takes too long to terminate" from 16 MB on;
     same cutoff here (relative to the buffer). *)
  let nl_cutoff = 8 in
  Format.printf "%-22s" "Relation Size";
  List.iter (fun mb -> Format.printf "| %8dMB " mb) sizes;
  Format.printf "@.";
  let cells method_ limit =
    List.map
      (fun mb ->
        if mb > limit then None
        else
          let spec = spec_of ~paper_mb:mb ~tuple_bytes:128 ~fanout:7.0 cfg in
          Some
            (run_cell ~bench:"table1"
               ~cell:(Printf.sprintf "%dMB" mb)
               cfg ~outer:spec ~inner:spec method_))
      sizes
  in
  let nl = cells Nested_loop nl_cutoff in
  let mj = cells Merge_join max_int in
  let print_row name cells =
    Format.printf "%-22s" name;
    List.iter
      (function
        | None -> Format.printf "| %10s " "-"
        | Some m -> Format.printf "| %10s " (str_seconds m.response))
      cells;
    Format.printf "@."
  in
  print_row "Nested Loop" nl;
  print_row "Merge-join" mj;
  Format.printf "%-22s" "Speedup";
  List.iter2
    (fun nl mj ->
      match (nl, mj) with
      | Some n, Some m when m.response > 0.0 ->
          Format.printf "| %10.1f " (n.response /. m.response)
      | _ -> Format.printf "| %10s " "-")
    nl mj;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Table 2: outer fixed at 4 MB, inner 2-16 MB.                        *)
(* Table 3: merge-join time breakdown on the same cells.               *)
(* ------------------------------------------------------------------ *)

let table2_cells cfg =
  let outer = spec_of ~paper_mb:4 ~tuple_bytes:128 ~fanout:7.0 cfg in
  List.map
    (fun mb ->
      let inner = spec_of ~paper_mb:mb ~tuple_bytes:128 ~fanout:7.0 cfg in
      (mb, outer, inner))
    [ 2; 4; 8; 16 ]

let table2 cfg =
  section "Table 2 - Response time (s): outer fixed at 4MB, inner varies";
  note "paper reference: NL 3912 / 7790 / 15489 / 31049; MJ 156 / 205 / 476 / 2152@.";
  note "                 (NL grows linearly in the inner size; speedup peaks then falls)@.@.";
  let cells = table2_cells cfg in
  Format.printf "%-22s" "Inner Relation Size";
  List.iter (fun (mb, _, _) -> Format.printf "| %8dMB " mb) cells;
  Format.printf "@.";
  let cell_of (mb, o, i) method_ =
    run_cell ~bench:"table2" ~cell:(Printf.sprintf "inner-%dMB" mb) cfg
      ~outer:o ~inner:i method_
  in
  let nl = List.map (fun c -> cell_of c Nested_loop) cells in
  let mj = List.map (fun c -> cell_of c Merge_join) cells in
  let row name ms =
    Format.printf "%-22s" name;
    List.iter (fun m -> Format.printf "| %10s " (str_seconds m.response)) ms;
    Format.printf "@."
  in
  row "Nested Loop" nl;
  row "Merge-join" mj;
  Format.printf "%-22s" "Speedup";
  List.iter2 (fun n m -> Format.printf "| %10.1f " (n.response /. m.response)) nl mj;
  Format.printf "@."

let table3 cfg =
  section "Table 3 - Time breakdown for the merge-join method";
  note "paper reference: CPU%% 76 / 63 / 51 / 24; sorting%% 38.7 / 52.5 / 61.9 / 84.1@.@.";
  let cells = table2_cells cfg in
  let mj =
    List.map
      (fun (mb, o, i) ->
        run_cell ~bench:"table3" ~cell:(Printf.sprintf "inner-%dMB" mb) cfg
          ~outer:o ~inner:i Merge_join)
      cells
  in
  Format.printf "%-22s" "Inner Relation Size";
  List.iter (fun (mb, _, _) -> Format.printf "| %8dMB " mb) cells;
  Format.printf "@.";
  Format.printf "%-22s" "CPU time (%)";
  List.iter
    (fun m -> Format.printf "| %10.0f " (100.0 *. m.cpu /. Float.max 1e-9 m.response))
    mj;
  Format.printf "@.";
  Format.printf "%-22s" "Sorting time (%)";
  List.iter (fun m -> Format.printf "| %10.1f " (100.0 *. m.sort_share)) mj;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Table 4: 8000 tuples each, tuple size 128-2048 bytes, C = 1.        *)
(* ------------------------------------------------------------------ *)

let table4 cfg =
  section "Table 4 - Response time (s): varying tuple size, C = 1";
  note "paper reference: NL 485 / 514 / 584 / 729 / 1077; MJ 20 / 37 / 94 / 487 / 896@.";
  note "                 (tuple count fixed: CPU constant, I/O grows with tuple size)@.@.";
  (* 8000 tuples in the paper; the scaled copy shrinks the count (the tuple
     sizes are the experiment variable and stay as printed). *)
  let n = Int.max 500 (8000 * 4 / Int.max 1 (cfg.scale * 4)) in
  let sizes = [ 128; 256; 512; 1024; 2048 ] in
  Format.printf "(%d tuples per relation)@." n;
  Format.printf "%-22s" "Tuple Size";
  List.iter (fun b -> Format.printf "| %9dB " b) sizes;
  Format.printf "@.";
  let cell method_ b =
    let spec = { Workload.Gen.default_spec with n; tuple_bytes = b; groups = n } in
    run_cell ~bench:"table4" ~cell:(Printf.sprintf "%dB" b) cfg ~outer:spec
      ~inner:spec method_
  in
  let nl = List.map (cell Nested_loop) sizes in
  let mj = List.map (cell Merge_join) sizes in
  let row name ms =
    Format.printf "%-22s" name;
    List.iter (fun m -> Format.printf "| %10s " (str_seconds m.response)) ms;
    Format.printf "@."
  in
  row "Nested Loop" nl;
  row "Merge-join" mj;
  Format.printf "%-22s" "NL I/Os";
  List.iter (fun m -> Format.printf "| %10d " m.ios) nl;
  Format.printf "@.";
  Format.printf "%-22s" "MJ I/Os";
  List.iter (fun m -> Format.printf "| %10d " m.ios) mj;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Fig. 3: 8 MB relations, fan-out C = 1..128 (merge-join).            *)
(* ------------------------------------------------------------------ *)

let fig3 cfg =
  section "Fig. 3 - Merge-join vs join fan-out C (8MB relations)";
  note "paper reference: #IOs stays flat; CPU and response grow with C@.@.";
  let cs = [ 1; 2; 4; 8; 16; 32; 64; 128 ] in
  Format.printf "%-6s | %12s | %12s | %10s | %12s@." "C" "Response (s)"
    "CPU (s)" "#IOs" "fuzzy ops";
  hr Format.std_formatter 66;
  List.iter
    (fun c ->
      let spec = spec_of ~paper_mb:8 ~tuple_bytes:128 ~fanout:(float_of_int c) cfg in
      let m =
        run_cell ~bench:"fig3" ~cell:(Printf.sprintf "C-%d" c) cfg ~outer:spec
          ~inner:spec Merge_join
      in
      Format.printf "%-6d | %12s | %12s | %10d | %12d@." c (str_seconds m.response)
        (str_seconds m.cpu) m.ios m.fuzzy_ops)
    cs

(* ------------------------------------------------------------------ *)
(* Figs. 1-2: membership functions + Example 4.1 tables.               *)
(* ------------------------------------------------------------------ *)

let fig1 _cfg =
  section "Fig. 1 - Membership functions of 'medium young' and 'about 35'";
  let g n = Option.get (Fuzzy.Term.lookup Fuzzy.Term.paper n) in
  print_string
    (Fuzzy.Term.plot ~from_x:15.0 ~to_x:45.0
       [ ("medium young", g "medium young"); ("about 35", g "about 35") ]);
  section "Fig. 2 - AGE terms of the running example";
  print_string
    (Fuzzy.Term.plot ~from_x:15.0 ~to_x:60.0
       [
         ("medium young", g "medium young"); ("middle age", g "middle age");
         ("about 50", g "about 50"); ("about 29", g "about 29");
       ]);
  section "Fig. 2 - INCOME terms of the running example";
  print_string
    (Fuzzy.Term.plot ~from_x:0.0 ~to_x:120.0
       [
         ("low", g "low"); ("medium low", g "medium low");
         ("about 40K", g "about 40K"); ("about 60K", g "about 60K");
         ("medium high", g "medium high"); ("high", g "high");
       ]);
  section "Example 4.1 - Query 2 over the dating-service database";
  let env = Storage.Env.create () in
  let catalog = Bench_db.paper_db env in
  let run sql =
    Unnest.Planner.run
      (Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql)
  in
  let t = run "SELECT M.INCOME FROM M WHERE M.AGE = 'middle age'" in
  Format.printf "T = %a@." Relational.Relation.pp t;
  let answer =
    run
      "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN \
       (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')"
  in
  Format.printf "Answer = %a@." Relational.Relation.pp answer

(* ------------------------------------------------------------------ *)
(* Ablation: where does the gain come from?                            *)
(* ------------------------------------------------------------------ *)

let ablation cfg =
  section "Ablation - unnesting vs join algorithm";
  note "naive       : inner block re-evaluated per outer tuple (execution semantics)@.";
  note "nested loop : blocked NL, the paper's baseline@.";
  note "merge-join  : unnesting + extended merge-join (the paper's method)@.@.";
  let spec = spec_of ~paper_mb:2 ~tuple_bytes:128 ~fanout:7.0 cfg in
  let n = Int.min spec.Workload.Gen.n 1024 in
  let tiny = { spec with Workload.Gen.n; groups = Int.max 1 (n / 7) } in
  let env = Storage.Env.create ~pool_pages:(mem_pages cfg) () in
  let r, s = Workload.Gen.join_pair env ~seed:cfg.seed ~outer:tiny ~inner:tiny in
  let catalog = Relational.Catalog.create env in
  Relational.Catalog.add catalog r;
  Relational.Catalog.add catalog s;
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper bench_sql in
  let stats = env.Storage.Env.stats in
  let measure f =
    Storage.Env.reset_stats env;
    ignore (Storage.Iostats.timed stats Storage.Iostats.Other f);
    let cpu = Storage.Iostats.cpu_seconds stats in
    let ios = Storage.Iostats.total_ios stats in
    cpu +. (float_of_int ios *. cfg.io_latency)
  in
  let mp = mem_pages cfg in
  let naive_t = measure (fun () -> Unnest.Naive_eval.query q) in
  let nl_t =
    measure (fun () ->
        Unnest.Planner.run ~strategy:Unnest.Planner.Nested_loop ~mem_pages:mp q)
  in
  let mj_t =
    measure (fun () ->
        Unnest.Planner.run ~strategy:Unnest.Planner.Unnest_merge ~mem_pages:mp q)
  in
  Format.printf "(%d-tuple relations, C = 7)@." n;
  Format.printf "  %-28s %10s s@." "naive per-tuple rescan" (str_seconds naive_t);
  Format.printf "  %-28s %10s s@." "blocked nested loop" (str_seconds nl_t);
  Format.printf "  %-28s %10s s@." "unnest + merge-join" (str_seconds mj_t)

(* ------------------------------------------------------------------ *)
(* Chain queries (Section 8): naive vs merge cascade vs DP ordering.   *)
(* ------------------------------------------------------------------ *)

(* chain-memory: the serving mix's 3-block chain over [Server.Demo]'s
   R/S/T at 800/800/400 rows, default [mem_pages]. It runs first so the
   process's peak RSS (VmHWM) is this query's, not a later cell's; CI
   bounds it and pins the checksum. *)
let chain_memory () =
  let env = Storage.Env.create () in
  let catalog = Relational.Catalog.create env in
  Server.Demo.load_nested ~n_r:800 ~n_s:800 ~n_t:400 env catalog;
  let q =
    Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
      (List.assoc "chain" shapes)
  in
  let t0 = Unix.gettimeofday () in
  let answer = Unnest.Planner.run q in
  let wall = Unix.gettimeofday () -. t0 in
  let rss = peak_rss_mb () in
  let rows = Relational.Relation.cardinality answer in
  let checksum = answer_checksum answer in
  Format.printf
    "chain-memory 800 x 800 x 400: %s s, peak RSS %d MB, %d rows, checksum %s@.@."
    (str_seconds wall) rss rows checksum;
  record "chain-memory"
    [
      ("cell", Text "800x800x400");
      ("wall_s", Fixed (6, wall)); ("peak_rss_mb", Int rss);
      ("answer_size", Int rows); ("checksum", Text checksum);
    ]

let chain_bench cfg =
  section "Chain queries (Section 8) - 3-block nesting, skewed block sizes";
  chain_memory ();
  note "paper: response O(sum n_i log n_i) unnested vs O(prod n_i) nested;@.";
  note "Section 8 also suggests DP join ordering to minimise intermediates@.@.";
  let sql =
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.W <= R.W AND \
     S.X IN (SELECT T.X FROM T WHERE T.W >= S.W))"
  in
  let run_one ~n1 ~n2 ~n3 =
    let env = Storage.Env.create ~pool_pages:(mem_pages cfg) () in
    let catalog = Relational.Catalog.create env in
    let add name n seed =
      Relational.Catalog.add catalog
        (Workload.Gen.relation env ~seed ~name
           { Workload.Gen.default_spec with n; groups = Int.max 1 (n / 7) })
    in
    add "R" n1 31;
    add "S" n2 32;
    add "T" n3 33;
    let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
    let stats = env.Storage.Env.stats in
    let measure f =
      Storage.Env.reset_stats env;
      ignore (Storage.Iostats.timed stats Storage.Iostats.Other f);
      Storage.Iostats.cpu_seconds stats
      +. (float_of_int (Storage.Iostats.total_ios stats) *. cfg.io_latency)
    in
    let mp = mem_pages cfg in
    let naive =
      if n1 * n2 * n3 <= 32_000_000 then
        Some (measure (fun () -> Unnest.Naive_eval.query q))
      else None
    in
    let fixed = measure (fun () -> Unnest.Planner.run ~chain_dp:false ~mem_pages:mp q) in
    let dp = measure (fun () -> Unnest.Planner.run ~chain_dp:true ~mem_pages:mp q) in
    (naive, fixed, dp)
  in
  Format.printf "%-24s | %12s | %14s | %14s@." "blocks (R, S, T)" "naive (s)"
    "merge L-to-R (s)" "merge DP (s)";
  hr Format.std_formatter 76;
  List.iter
    (fun (n1, n2, n3) ->
      let naive, fixed, dp = run_one ~n1 ~n2 ~n3 in
      Format.printf "%-24s | %12s | %14s | %14s@."
        (Printf.sprintf "%d x %d x %d" n1 n2 n3)
        (match naive with Some t -> str_seconds t | None -> "-")
        (str_seconds fixed) (str_seconds dp))
    [ (200, 200, 200); (2000, 2000, 50); (4000, 4000, 25) ]

(* ------------------------------------------------------------------ *)
(* --trace PATH: run the 3-block chain query once under a trace         *)
(* collector and dump a Chrome trace_event file (chrome://tracing or    *)
(* https://ui.perfetto.dev). CI uses this as its trace smoke test.      *)
(* ------------------------------------------------------------------ *)

let trace_run cfg path =
  section "Execution trace - chain query under the span collector";
  let sql =
    "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.W <= R.W AND \
     S.X IN (SELECT T.X FROM T WHERE T.W >= S.W))"
  in
  let env = Storage.Env.create ~pool_pages:(mem_pages cfg) () in
  let catalog = Relational.Catalog.create env in
  let add name n seed =
    Relational.Catalog.add catalog
      (Workload.Gen.relation env ~seed ~name
         { Workload.Gen.default_spec with n; groups = Int.max 1 (n / 7) })
  in
  add "R" 800 31;
  add "S" 800 32;
  add "T" 200 33;
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
  let trace = Storage.Trace.create () in
  let answer =
    Unnest.Planner.run ~mem_pages:(mem_pages cfg) ~trace q
  in
  Storage.Trace.write_chrome trace ~path;
  note "query: %s@." sql;
  note "answer rows: %d@." (Relational.Relation.cardinality answer);
  note "wrote %s (%d spans) - open in chrome://tracing@." path
    (Storage.Trace.span_count trace)

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: the 16 MB Table-1 cell served by an in-process  *)
(* fsqld, telemetry fully off vs fully on (metrics port + query log;   *)
(* windowed metrics and the trace ring are always on). CI asserts the  *)
(* on/off wall ratio <= 1.05 and checksum equality from the JSON rows. *)
(* ------------------------------------------------------------------ *)

let telemetry_bench cfg =
  section "Telemetry overhead - 16MB cell through fsqld, off vs on";
  note "a 16MB-side type J cell (Table 1 workload), served by a@.";
  note "1-worker daemon; 'on' adds --metrics-port + --query-log (windowed@.";
  note "metrics and the trace ring run in both). Wall is the best of 5@.";
  note "client-observed reps; answers must be bit-identical@.@.";
  let spec = spec_of ~paper_mb:16 ~tuple_bytes:128 ~fanout:7.0 cfg in
  let setup env catalog =
    let r, s =
      Workload.Gen.join_pair env ~seed:cfg.seed ~outer:spec ~inner:spec
    in
    Relational.Catalog.add catalog r;
    Relational.Catalog.add catalog s
  in
  let reps = 5 in
  let run_config ~on =
    let qlog =
      if on then Some (Filename.temp_file "fsqld_qlog" ".jsonl") else None
    in
    let daemon =
      Server.Daemon.start ~workers:1 ~mem_pages:(mem_pages cfg)
        ?metrics_port:(if on then Some 0 else None)
        ?query_log:qlog ~setup ()
    in
    let port = Server.Daemon.port daemon in
    let client = Server.Client.connect ~port () in
    let best = ref infinity in
    let checksum = ref "" in
    for _rep = 1 to reps do
      let t0 = Unix.gettimeofday () in
      match Server.Client.query client Harness.bench_sql with
      | Server.Client.Answer { rows; _ } ->
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !best then best := dt;
          checksum := checksum_of_rows (wire_rows rows)
      | _ -> failwith "telemetry bench: query did not complete"
    done;
    if on then begin
      (* While the server is live, validate the whole exposition surface:
         scrape /metrics and /healthz, and check one record per request
         landed in the query log. *)
      (match Server.Daemon.metrics_port daemon with
      | Some p ->
          let status, body = Server.Telemetry.Http.get ~port:p "/metrics" in
          if status <> 200 then failwith "telemetry bench: /metrics not 200";
          List.iter
            (fun needle ->
              if not (contains ~sub:needle body) then
                failwith ("telemetry bench: /metrics missing " ^ needle))
            [
              "# TYPE fsqld_requests_completed counter";
              "fsqld_latency_s_window{quantile=\"0.99\"}";
              "fsqld_queue_depth";
            ];
          let hstatus, hbody = Server.Telemetry.Http.get ~port:p "/healthz" in
          if hstatus <> 200 || not (contains ~sub:"\"status\":\"ok\"" hbody)
          then failwith "telemetry bench: /healthz not healthy"
      | None -> failwith "telemetry bench: metrics port did not bind");
      match Server.Daemon.query_log_written daemon with
      | Some n when n = reps -> ()
      | n ->
          failwith
            (Printf.sprintf
               "telemetry bench: query log has %s records, expected %d"
               (match n with Some n -> string_of_int n | None -> "no")
               reps)
    end;
    Server.Client.close client;
    Server.Daemon.stop daemon;
    Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) qlog;
    record_measurement ~bench:"telemetry" ~cell:(if on then "on" else "off")
      ~method_:"daemon" ~scale:cfg.scale ~wall:!best
      ~response:!best ~cpu:0.0 ~ios:0 ~fuzzy_ops:0 ~answer_size:0
      ~checksum:!checksum;
    (!best, !checksum)
  in
  let off_wall, off_sum = run_config ~on:false in
  let on_wall, on_sum = run_config ~on:true in
  Format.printf "%-10s | %12s@." "telemetry" "wall (s)";
  hr Format.std_formatter 26;
  Format.printf "%-10s | %12s@." "off" (str_seconds off_wall);
  Format.printf "%-10s | %12s@." "on" (str_seconds on_wall);
  note "@.overhead (on wall / off wall): %.3fx; checksums %s@."
    (on_wall /. Float.max 1e-9 off_wall)
    (if off_sum = on_sum then "identical" else "DIFFER");
  if off_sum <> on_sum then
    failwith "telemetry bench: answers differ with telemetry on"

(* ------------------------------------------------------------------ *)
(* Kernels: the merge-join window sweep standalone, in rows per       *)
(* second, and the storage layer's CRC-32 in bytes per second.        *)
(* ------------------------------------------------------------------ *)

let kernels cfg =
  section "Kernels - window sweep (rows/sec), CRC-32 (bytes/sec)";
  note "the merge-join window sweep over sorted runs, then the checksum@.";
  note "of every durable page slot and WAL frame@.@.";
  let rng = Random.State.make [| cfg.seed; 97 |] in
  (* [rows] counts elements, or bytes for the CRC cells *)
  let record ?(unit = "rows") cell variant rows secs =
    record_measurement ~bench:"kernels" ~cell:(cell ^ "/" ^ variant)
      ~method_:"kernel" ~scale:cfg.scale ~wall:secs ~response:secs
      ~cpu:secs ~ios:0 ~fuzzy_ops:rows ~answer_size:rows ~checksum:"";
    Format.printf "  %-24s %-10s %12.2f M %s/s@." cell variant
      (float_of_int rows /. Float.max 1e-9 secs /. 1e6) unit
  in
  (* best of five: the minimum is the standard estimator of the undisturbed
     run, and these loops are short enough for scheduler noise to dominate
     a single measurement *)
  let time f =
    List.fold_left
      (fun best _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Float.min best (Unix.gettimeofday () -. t0))
      infinity [ 1; 2; 3; 4; 5 ]
  in
  (* 1. the window sweep of the pipelined merge-join: the [Merge] phase
     time of a sort-and-sweep, which excludes sorting and the pulls of
     the sorted inputs (they are charged to [Sort]) *)
  let env = Storage.Env.create ~pool_pages:(mem_pages cfg) () in
  let spec = spec_of ~paper_mb:2 ~tuple_bytes:128 ~fanout:7.0 cfg in
  let r, s_rel =
    Workload.Gen.join_pair env ~seed:cfg.seed ~outer:spec ~inner:spec
  in
  let stats = env.Storage.Env.stats in
  let pairs = ref 0 in
  (* the window is consumed off its selection vector, like the IN / NOT IN
     handlers do *)
  let sweep_s () =
    let before = Storage.Iostats.phase_seconds stats Storage.Iostats.Merge in
    pairs := 0;
    Relational.Join_merge.sort_sweep ~outer:r ~inner:s_rel ~outer_attr:1
      ~inner_attr:1 ~mem_pages:(mem_pages cfg)
      ~emit:(fun _ _ ~inner:_ ~idx:_ ~n ~d_eq:_ -> pairs := !pairs + n)
      ();
    Storage.Iostats.phase_seconds stats Storage.Iostats.Merge -. before
  in
  let secs =
    List.fold_left (fun best _ -> Float.min best (sweep_s ())) infinity
      [ 1; 2; 3; 4; 5 ]
  in
  let rows = Relational.Relation.cardinality r in
  record "window-sweep" "vectorized" rows secs;
  note "@.(window sweep examined %d pairs over %d outer rows)@.@." !pairs rows;
  (* 2. CRC-32 over a data-file page and over a small WAL frame, about
     16 MB per timed run *)
  List.iter
    (fun (variant, len) ->
      let buf = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
      let reps = (16 lsl 20) / len in
      let secs =
        time (fun () ->
            for _ = 1 to reps do
              ignore (Sys.opaque_identity (Storage.Crc32.bytes buf))
            done)
      in
      record ~unit:"bytes" "crc32" variant (reps * len) secs)
    [ ("page-8KiB", 8192); ("frame-150B", 150) ]

(* ------------------------------------------------------------------ *)
(* Allocation: the minor-heap words of one query, for two queries: type *)
(* J of the join-large shape (2 x 32768 tuples x 128 B, C = 7, a        *)
(* 64-page pool) and serve-small's 3-block chain over                   *)
(* [Server.Demo.server_setup]. In native code the count is exact and    *)
(* repeats run to run, so it is gated like the page I/Os; the traced    *)
(* run splits it over the spans.                                        *)
(* ------------------------------------------------------------------ *)

let alloc_query ~cell ~seed ~mem_pages ~inputs env q =
  let stats = env.Storage.Env.stats in
  let run ?trace () =
    Storage.Env.reset_stats env;
    let w0 = Gc.minor_words () in
    let answer = Unnest.Planner.run ~mem_pages ?trace q in
    let words = int_of_float (Gc.minor_words () -. w0) in
    let counters =
      ( words,
        Storage.Iostats.total_ios stats,
        Storage.Iostats.comparisons stats,
        Storage.Iostats.fuzzy_ops stats,
        Relational.Relation.cardinality answer,
        answer_checksum answer )
    in
    Relational.Relation.destroy answer;
    counters
  in
  (* The first query also builds what is built once per process. *)
  ignore (run ());
  let ((words, ios, cmps, fuzzy, size, sum) as first) = run () in
  if run () <> first then failwith "alloc bench: two runs of one query differ";
  let trace = Storage.Trace.create () in
  ignore (run ~trace ());
  (* The root's direct children, summed by name (the sweep has a span per
     outer batch). *)
  let by_name = Hashtbl.create 8 and order = ref [] in
  let line name (k, w, c) =
    note "%-20s %10d words %10d comparisons%s@." name w c
      (if k > 1 then Printf.sprintf " in %d spans" k else "")
  in
  List.iter
    (fun root ->
      List.iter
        (fun sp ->
          let name = "  " ^ Storage.Trace.span_name sp in
          let k, w, c =
            Option.value (Hashtbl.find_opt by_name name) ~default:(0, 0, 0)
          in
          if k = 0 then order := name :: !order;
          Hashtbl.replace by_name name
            ( k + 1,
              w + Storage.Trace.span_minor_words sp,
              c + Storage.Trace.span_compares sp ))
        (Storage.Trace.span_children root);
      line (Storage.Trace.span_name root)
        (1, Storage.Trace.span_minor_words root, Storage.Trace.span_compares root);
      List.iter (fun name -> line name (Hashtbl.find by_name name)) (List.rev !order))
    (Storage.Trace.roots trace);
  note "%s, seed %d: %d minor words per query (%.1f per input tuple), %d page I/Os,@."
    cell seed words
    (float_of_int words /. float_of_int inputs)
    ios;
  note "%d comparisons, %d fuzzy ops, %d answer tuples, checksum %s@.@." cmps fuzzy
    size sum;
  record "alloc"
    [
      ("cell", Text cell); ("seed", Int seed);
      ("minor_words", Int words); ("ios", Int ios); ("comparisons", Int cmps);
      ("fuzzy_ops", Int fuzzy); ("answer_size", Int size); ("checksum", Text sum);
    ]

let alloc_bench cfg =
  section "Allocation - minor-heap words of one query";
  let pool_pages = 64 and n = 32768 in
  let env = Storage.Env.create ~pool_pages () in
  let spec =
    { Workload.Gen.default_spec with n; tuple_bytes = 128; groups = n / 7 }
  in
  let r, s = Workload.Gen.join_pair env ~seed:cfg.seed ~outer:spec ~inner:spec in
  let catalog = Relational.Catalog.create env in
  Relational.Catalog.add catalog r;
  Relational.Catalog.add catalog s;
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper bench_sql in
  alloc_query ~cell:"join-large" ~seed:cfg.seed ~mem_pages:pool_pages
    ~inputs:(2 * n) env q;
  (* serve-small's chain shape, on the data and buffer a daemon serves. *)
  let env = Storage.Env.create () in
  let catalog = Relational.Catalog.create env in
  Server.Demo.server_setup ~seed:cfg.seed () env catalog;
  let q =
    Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
      (List.assoc "chain" shapes)
  in
  let inputs =
    List.fold_left
      (fun acc name ->
        acc + Relational.Relation.cardinality (Option.get (Relational.Catalog.find catalog name)))
      0 [ "R"; "S"; "T" ]
  in
  alloc_query ~cell:"serve-small-chain" ~seed:cfg.seed
    ~mem_pages:Unnest.Planner.default_mem_pages ~inputs env q

(* ------------------------------------------------------------------ *)

let all_targets =
  [
    ("table1", table1); ("table2", table2); ("table3", table3);
    ("table4", table4); ("fig3", fig3); ("fig1", fig1); ("ablation", ablation);
    ("chain", chain_bench);
    ("chaos", Chaos.run Chaos.Fault_plane);
    ("kernels", kernels); ("alloc", alloc_bench);
    ("telemetry", telemetry_bench); ("wal", Wal_bench.run);
    ("recovery", Chaos.run Chaos.Crash); ("failover", Chaos.run Chaos.Failover);
  ]

let () =
  Chaos.serve_as_victim Sys.argv;
  let cfg = ref default_config in
  let targets = ref [] in
  let trace_path = ref None in
  let rec parse = function
    | [] -> ()
    | "--trace" :: path :: rest ->
        trace_path := Some path;
        parse rest
    | "--full" :: rest ->
        cfg := { !cfg with scale = 1 };
        parse rest
    | "--scale" :: n :: rest ->
        cfg := { !cfg with scale = int_of_string n };
        parse rest
    | "--io-latency" :: s :: rest ->
        cfg := { !cfg with io_latency = float_of_string s };
        parse rest
    | "--seed" :: n :: rest ->
        cfg := { !cfg with seed = int_of_string n };
        parse rest
    | "--queries" :: n :: rest -> (
        match int_of_string_opt n with
        | Some q when q >= 1 ->
            Chaos.queries := q;
            parse rest
        | _ ->
            Format.eprintf "--queries expects a positive integer@.";
            exit 2)
    | "all" :: rest -> parse rest
    | t :: rest when List.mem_assoc t all_targets ->
        targets := t :: !targets;
        parse rest
    | t :: _ ->
        Format.eprintf "unknown bench target %s; known: %s all@." t
          (String.concat " " (List.map fst all_targets));
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let chosen =
    match List.rev !targets with
    (* bare [--trace PATH] runs just the traced query, not every target *)
    | [] when !trace_path <> None -> []
    | [] -> List.map fst all_targets
    | ts -> ts
  in
  Format.printf
    "Nested Fuzzy SQL reproduction - Section 9 experiments (scale 1/%d, \
     io_latency %gms, buffer %d pages)@."
    !cfg.scale (!cfg.io_latency *. 1000.0) (mem_pages !cfg);
  List.iter (fun t -> (List.assoc t all_targets) !cfg) chosen;
  Option.iter (trace_run !cfg) !trace_path;
  write_results "BENCH_results.json";
  Format.printf "@.wrote BENCH_results.json (%d cells)@." (List.length !results);
  if Storage.Metrics.counters metrics <> [] then (
    section "Run metrics";
    Format.printf "%a" Storage.Metrics.pp metrics);
  if !Chaos.verdict_failed then exit 1

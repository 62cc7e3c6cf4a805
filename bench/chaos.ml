(** The chaos driver: one harness, three fault sources, one verdict.

    The bench target picks the fault source:

    - [chaos]: in-process fault planes. Reads, writes, allocations and
      torn writes fail transiently on a {!Server.Daemon}'s worker storage,
      with occasional latency spikes, while retrying clients fire the
      paper's nesting shapes at it (3 fault seeds x 3 probabilities).
    - [recovery]: SIGKILL of a durable writer mid-load, then restart
      recovery on its directory (3 seeds).
    - [failover]: SIGKILL of a semi-sync primary mid-load, then promotion
      of its WAL-shipped replica over the wire and the zombie fence drill
      (3 seeds).

    The two process-killing sources share one victim: this executable
    relaunched with [Unix.create_process] in an internal child mode. It is
    never forked, because OCaml 5 refuses [Unix.fork] once any domain has
    been spawned, and every daemon spawns one. The victim commits 17-tuple
    batches with [Wal.Always] and acknowledges each in an fsync'd progress
    file. With a replica attached, it acknowledges a batch only after
    {!Server.Replication.Sender.wait_applied} returned for the batch's
    commit LSN. SIGKILL leaves whatever the crash left on the device (torn
    WAL tail, half-written pages) for recovery to cope with.

    Each cell reports a violation count for every check its source can
    observe, and one verdict sums them:

    - answers bit-identical to the fault-free sequential engine, or to the
      committed prefix rebuilt in memory (degrees as IEEE-754 bits);
    - zero acknowledged-commit loss: recovered >= acked x 17;
    - only whole batches recovered: recovered mod 17 = 0;
    - balanced admission books after a full drain: accepted = completed +
      cancelled + failed + failed_transient;
    - query-log records = accepted, and the log's request IDs = the trace
      ring's (every logged request has exactly one span tree);
    - epoch 2 after promotion, and the fence firing in both directions;
    - zero undetected torn pages after recovery, and in the promoted
      replica's directory after failover.

    Each source prints one [chaos verdict: PASS|FAIL] line; a FAIL makes
    the bench exit non-zero once every target has run. Every cell is one
    row of BENCH_results.json ([chaos], [recovery_chaos] or
    [failover_chaos]) and one entry, with its event timeline, in
    [bench/artifacts/<target>_schedule.json], so a failing run can be
    replayed. *)

open Frepro
open Frepro.Storage
open Harness
module Replication = Server.Replication

type source = Fault_plane | Crash | Failover

let target = function
  | Fault_plane -> "chaos"
  | Crash -> "recovery"
  | Failover -> "failover"

let queries = ref 200 (* per fault-plane cell; override with [--queries N] *)
let verdict_failed = ref false (* some source's verdict was FAIL *)

(* ------------------------------------------------------------------ *)
(* Cells, timelines and the verdict.                                   *)
(* ------------------------------------------------------------------ *)

type check =
  | Answers
  | Acked_loss
  | Whole_batches
  | Books
  | Telemetry
  | Fencing
  | Torn_pages

let checks =
  [ Answers; Acked_loss; Whole_batches; Books; Telemetry; Fencing; Torn_pages ]

let check_label = function
  | Answers -> "wrong answers"
  | Acked_loss -> "lost acked batches"
  | Whole_batches -> "partial batches"
  | Books -> "leaked queries"
  | Telemetry -> "telemetry violations"
  | Fencing -> "fence violations"
  | Torn_pages -> "undetected torn pages"

(* What one cell of any source reports: its BENCH_results.json fields and
   a violation count per check its source can observe. *)
type cell = { row : (string * field) list; violations : (check * int) list }

type timeline = { t0 : float; mutable events : string list (* newest first *) }

let event tl fmt =
  Printf.ksprintf
    (fun s ->
      tl.events <-
        json_object
          [ ("t_s", Fixed (3, Unix.gettimeofday () -. tl.t0)); ("event", Text s) ]
        :: tl.events)
    fmt

let verdict source cells =
  let total check =
    List.fold_left
      (fun acc c -> acc + Option.value ~default:0 (List.assoc_opt check c.violations))
      0 cells
  in
  let counts =
    List.filter_map
      (fun check ->
        if List.exists (fun c -> List.mem_assoc check c.violations) cells then
          Some (total check, check_label check)
        else None)
      checks
  in
  let pass = List.for_all (fun (n, _) -> n = 0) counts in
  note "chaos verdict: %s (%s: %d cells; %s)@."
    (if pass then "PASS" else "FAIL")
    (target source) (List.length cells)
    (String.concat ", " (List.map (fun (n, l) -> Printf.sprintf "%d %s" n l) counts));
  pass

let write_schedule source header cells =
  let dir = Filename.concat "bench" "artifacts" in
  List.iter
    (fun d ->
      try Unix.mkdir d 0o755
      with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ())
    [ "bench"; dir ];
  let path = Filename.concat dir (target source ^ "_schedule.json") in
  let entry (c, tl) =
    json_object (c.row @ [ ("events", Json (json_lines ~indent:2 (List.rev tl.events))) ])
  in
  let oc = open_out path in
  output_string oc
    (json_object
       ((("source", Text (target source)) :: header)
       @ [ ("cells", Json (json_lines ~indent:0 (List.map entry cells))) ]));
  output_string oc "\n";
  close_out oc;
  path

let column_width key = Int.max 6 (String.length key)

let print_header columns =
  Format.printf "%s@."
    (String.concat " | "
       (List.map (fun k -> Printf.sprintf "%*s" (column_width k) k) columns));
  hr Format.std_formatter
    (List.fold_left (fun w k -> w + column_width k + 3) (-3) columns)

let print_columns columns c =
  Format.printf "%s@."
    (String.concat " | "
       (List.map
          (fun k ->
            let v =
              match List.assoc_opt k c.row with
              | Some (Text s) -> s
              | Some v -> field_json v
              | None -> "-"
            in
            Printf.sprintf "%*s" (column_width k) v)
          columns))

(* ------------------------------------------------------------------ *)
(* Fault planes against an in-process daemon.                          *)
(* ------------------------------------------------------------------ *)

(* Faults on every I/O site, scaled off one probability knob; torn writes
   and allocation failures are rarer than plain I/O errors, as on a real
   disk. All transient — the fatal path is exercised by the test suite,
   where the respawned environment can be observed deterministically. *)
let spec_string p =
  Printf.sprintf "read:p=%g;write:p=%g;alloc:p=%g;torn:p=%g;latency:p=0.01:ms=1"
    p p (p /. 2.0) (p /. 4.0)

let data_seed = 11
let workers = 2
let probs = [ 0.01; 0.03; 0.05 ]

(* Snappy backoffs: the demo queries run in single-digit milliseconds, so
   production-scale delays would just stretch the bench. *)
let server_retry =
  { Server.Retry.max_attempts = 6; base_delay_s = 0.002; max_delay_s = 0.02;
    jitter = 0.25 }

let client_retry =
  { Server.Retry.max_attempts = 4; base_delay_s = 0.002; max_delay_s = 0.05;
    jitter = 0.25 }

(* A chaos-tuned breaker: the default (50% threshold, 1 s cooldown) is
   right for production but here the injected failure rate is the point —
   it would shed most of the run and starve the answer comparison. A high
   threshold and a cooldown shorter than the client backoff keeps answers
   flowing while still exercising open/shed/reclose at the top
   probability. *)
let breaker () =
  Server.Breaker.create ~window:32 ~threshold:0.8 ~min_samples:16
    ~cooldown_s:0.02 ()

(* Every "request_id" of a JSONL query log. {!Server.Telemetry.Query_log}
   writes the ID as a plain string field, so a substring scan per line is
   enough — no JSON parser in the bench. *)
let log_request_ids path =
  let key = "\"request_id\":\"" in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         Option.bind (find_sub ~sub:key line) (fun i ->
             let start = i + String.length key in
             Option.map
               (fun stop -> String.sub line start (stop - start))
               (String.index_from_opt line start '"')))

let plane_cell ~expected ~setup ~fault_seed ~prob tl =
  let spec_s = spec_string prob in
  let spec =
    match Fault.parse_spec spec_s with
    | Ok s -> s
    | Error m -> failwith ("chaos: bad generated spec: " ^ m)
  in
  (* Telemetry rides along on every cell: a throwaway query log plus a
     trace ring big enough that nothing evicts (each client retry is a
     fresh request with its own ID). *)
  let qlog = Filename.temp_file "fsqld_chaos_qlog" ".jsonl" in
  let ring_capacity = (!queries * client_retry.Server.Retry.max_attempts) + 64 in
  let daemon =
    Server.Daemon.start ~workers ~queue_capacity:32 ~retry:server_retry
      ~breaker:(breaker ()) ~fault_spec:spec ~fault_seed ~query_log:qlog
      ~trace_ring_capacity:ring_capacity ~setup ()
  in
  event tl "daemon up: %d workers, plane seeds %d..%d, spec %s" workers
    fault_seed (fault_seed + workers - 1) spec_s;
  let port = Server.Daemon.port daemon in
  let n_clients = 2 in
  let ok = Atomic.make 0 and wrong = Atomic.make 0 in
  let retryable = Atomic.make 0 and failed = Atomic.make 0 in
  let cancelled = Atomic.make 0 and overloaded = Atomic.make 0 in
  let client idx n () =
    let client = Server.Client.connect ~port () in
    for i = 0 to n - 1 do
      let name, sql = List.nth shapes ((idx + i) mod List.length shapes) in
      match Server.Client.query ~retry:client_retry client sql with
      | Server.Client.Answer { rows; _ } ->
          if normal_rows (wire_rows rows) = List.assoc name expected then
            Atomic.incr ok
          else Atomic.incr wrong
      | Server.Client.Retryable _ -> Atomic.incr retryable
      | Server.Client.Failed _ | Server.Client.Rejected _ -> Atomic.incr failed
      | Server.Client.Cancelled _ -> Atomic.incr cancelled
      | Server.Client.Overloaded -> Atomic.incr overloaded
    done;
    Server.Client.close client
  in
  let per_client = !queries / n_clients in
  let threads =
    List.init n_clients (fun i ->
        let n = if i = 0 then !queries - (per_client * (n_clients - 1)) else per_client in
        Thread.create (client i n) ())
  in
  List.iter Thread.join threads;
  event tl "clients done: %d ok, %d wrong" (Atomic.get ok) (Atomic.get wrong);
  (* Drain before reading the books: stop completes every admitted query,
     so any accepted-but-unanswered query left now is a genuine leak. *)
  Server.Daemon.stop daemon;
  let c name = Server.Daemon.counter_value daemon name in
  let accepted = c "requests_accepted" in
  let leaked =
    accepted
    - (c "requests_completed" + c "requests_cancelled" + c "requests_failed"
     + c "requests_failed_transient")
  in
  let logged =
    Option.value ~default:(-1) (Server.Daemon.query_log_written daemon)
  in
  let log_ids = List.sort compare (log_request_ids qlog) in
  let ring_ids =
    List.sort compare (Server.Telemetry.Ring.ids (Server.Daemon.trace_ring daemon))
  in
  (try Sys.remove qlog with Sys_error _ -> ());
  event tl "drained: %d accepted, %d leaked; %d log records, %d log IDs, %d ring IDs"
    accepted leaked logged (List.length log_ids) (List.length ring_ids);
  let telemetry_bad =
    Bool.to_int (logged <> accepted)
    + Bool.to_int (List.length log_ids <> accepted)
    + Bool.to_int (log_ids <> ring_ids)
  in
  (* [ok] answers bit-identical to the fault-free engine; [retryable] and
     [overloaded] are terminal after the client's retries; [injected]
     faults the planes fired; [retries] server-side backoffs; [shed]
     admissions shed by the open breaker; [leaked_workers] the books'
     imbalance after the drain. *)
  {
    row =
      [
        ("fault_seed", Int fault_seed); ("prob", Float prob); ("spec", Text spec_s);
        ("ok", Int (Atomic.get ok)); ("wrong", Int (Atomic.get wrong));
        ("retryable", Int (Atomic.get retryable)); ("failed", Int (Atomic.get failed));
        ("cancelled", Int (Atomic.get cancelled));
        ("overloaded", Int (Atomic.get overloaded));
        ("injected", Int (c "faults_injected")); ("retries", Int (c "retries"));
        ("respawns", Int (c "workers_respawned"));
        ("breaker_opened", Int (c "breaker_opened"));
        ("shed", Int (c "requests_shed_breaker")); ("leaked_workers", Int leaked);
        ("duration_s", Fixed (3, Unix.gettimeofday () -. tl.t0));
      ];
    violations =
      [ (Answers, Atomic.get wrong); (Books, abs leaked); (Telemetry, telemetry_bad) ];
  }

(* ------------------------------------------------------------------ *)
(* The victim process and the SIGKILL sources.                         *)
(* ------------------------------------------------------------------ *)

let batch_size = 17

let victim_schema =
  Relational.Schema.make ~name:"C"
    [ ("ID", Relational.Schema.TNum); ("X", Relational.Schema.TNum) ]

(* Tuple [i] of the workload is a pure function of (seed, i): driver and
   victim compute identical sequences without sharing anything. *)
let tuple_at ~seed i =
  let rng = Random.State.make [| 0xC4A5; seed; i |] in
  Relational.Ftuple.make
    [| Relational.Value.Int i;
       Relational.Value.crisp_num (Random.State.float rng 1000.0) |]
    (0.125 *. float_of_int (1 + Random.State.int rng 8))

(* The first [n] tuples rebuilt in the fault-free in-memory engine. *)
let prefix_checksum ~seed n =
  answer_checksum
    (Relational.Relation.of_list (Env.create ()) victim_schema
       (List.init n (tuple_at ~seed)))

let progress_file dir = Filename.concat dir "progress.txt"
let port_file dir = Filename.concat dir "port.txt"
let victim_arg = "--chaos-victim"

(* Insert, commit, acknowledge, until SIGKILLed. The ack (progress file)
   is written only after [Env.commit] returned and, with [replicate], after
   the replica applied through the batch's commit LSN. A crash between
   commit and ack under-reports progress, the safe direction for the loss
   check. *)
let victim ~seed ~replicate dir =
  let env =
    Env.open_durable ~dir ~page_size:2048 ~pool_pages:4096 ~wal_sync:Wal.Always ()
  in
  let rel = Relational.Relation.create ~durable:true env victim_schema in
  Env.commit env;
  let applied =
    if not replicate then fun () -> true
    else begin
      let sender = Replication.Sender.create ~env in
      write_int_durably (port_file dir) (Replication.Sender.listen ~port:0 sender);
      let wal = Option.get (Env.wal env) in
      fun () ->
        Replication.Sender.wait_applied sender ~lsn:(Wal.committed_end wal)
          ~timeout_s:60.0
    end
  in
  let k = ref 0 in
  while true do
    for i = !k * batch_size to ((!k + 1) * batch_size) - 1 do
      Relational.Relation.insert rel (tuple_at ~seed i)
    done;
    Env.commit env;
    if not (applied ()) then failwith "replica never applied the batch";
    incr k;
    write_int_durably (progress_file dir) !k
  done

(* The internal child mode of bench/main.exe; returns only when [argv]
   does not ask for it. *)
let serve_as_victim argv =
  match Array.to_list argv with
  | [ _; arg; dir; seed; mode ] when arg = victim_arg -> (
      match victim ~seed:(int_of_string seed) ~replicate:(mode = "replica") dir with
      | () -> exit 0
      | exception e ->
          prerr_endline ("chaos victim: " ^ Printexc.to_string e);
          exit 1)
  | _ -> ()

(* Run [f] against a victim on [dir]. [kill] SIGKILLs and reaps it; it
   runs at the latest when [f] returns or raises. *)
let with_victim ~seed ~replicate dir f =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; victim_arg; dir; string_of_int seed;
         (if replicate then "replica" else "solo") |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let alive = ref true in
  let kill () =
    if !alive then begin
      alive := false;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    end
  in
  Fun.protect ~finally:kill (fun () -> f ~pid ~kill)

let await ~timeout_s ready =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    ready ()
    || Unix.gettimeofday () < deadline
       && (Unix.sleepf 0.005;
           go ())
  in
  go ()

(* Let the victim ack two batches, so the kill lands mid-load with acked
   history behind it, then SIGKILL it after a seed-derived delay. Returns
   the delay and the number of batches acknowledged. *)
let kill_mid_load ~seed ~kill dir tl =
  if not (await ~timeout_s:30.0 (fun () -> read_int (progress_file dir) >= 2))
  then failwith "chaos: victim never acked 2 batches";
  let kill_after = 0.03 +. (0.04 *. float_of_int (seed mod 5)) in
  Unix.sleepf kill_after;
  kill ();
  let acked = read_int (progress_file dir) in
  event tl "victim SIGKILLed %.3fs after batch 2 (%d acked)" kill_after acked;
  (kill_after, acked)

(* The committed-prefix checks of both SIGKILL sources. *)
let prefix_violations ~seed ~acked ~recovered ~checksum =
  [
    (Answers, Bool.to_int (checksum <> prefix_checksum ~seed recovered));
    (Acked_loss, Int.max 0 (acked - (recovered / batch_size)));
    (Whole_batches, Bool.to_int (recovered mod batch_size <> 0));
  ]

let all_zero violations = List.for_all (fun (_, n) -> n = 0) violations

(* Pages of a recovered durable environment whose checksum does not
   verify against the log; -1 when it has no log or no real disk to
   check. *)
let undetected_torn env =
  match (Env.wal env, Disk.as_real env.Env.disk) with
  | Some wal, Some disk -> List.length (Recovery.verify_pages wal disk)
  | _ -> -1

let torn_violations torn = [ (Torn_pages, if torn < 0 then 1 else torn) ]

let crash_cell ~seed tl =
  with_temp_dir (fun dir ->
      let kill_after, acked =
        with_victim ~seed ~replicate:false dir (fun ~pid ~kill ->
            event tl "writer started (pid %d)" pid;
            kill_mid_load ~seed ~kill dir tl)
      in
      let t0 = Unix.gettimeofday () in
      let env = Env.open_durable ~dir () in
      let recover_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
      let torn = undetected_torn env in
      let recovered, checksum =
        match Relational.Catalog.find (Relational.Catalog.load_durable env) "C" with
        | Some rel -> (Relational.Relation.cardinality rel, answer_checksum rel)
        | None -> (0, "")
      in
      Env.close env;
      event tl "recovered %d tuples in %.2f ms, checksum %s, %d torn pages undetected"
        recovered recover_ms checksum torn;
      let prefix = prefix_violations ~seed ~acked ~recovered ~checksum in
      {
        row =
          [
            ("fault_seed", Int seed); ("kill_after_s", Fixed (3, kill_after));
            ("committed_batches", Int acked); ("recovered_tuples", Int recovered);
            ("checksum", Text checksum); ("match", Flag (all_zero prefix));
            ("torn_undetected", Int torn); ("recovery_ms", Fixed (3, recover_ms));
          ];
        violations = prefix @ torn_violations torn;
      })

let addr_of port = "127.0.0.1:" ^ string_of_int port

(* Load the durable catalog a replica ships into a daemon's catalog. *)
let durable_setup env catalog =
  let durable = Relational.Catalog.load_durable env in
  List.iter
    (fun name ->
      Option.iter (Relational.Catalog.add catalog)
        (Relational.Catalog.find durable name))
    (Relational.Catalog.names durable)

(* Both attributes plus the degree bits travel on the wire, and IDs are
   unique, so the checksum of the answer rows equals [answer_checksum] of
   the underlying relation. *)
let query_scan client =
  let retry = Some { Server.Retry.default with max_attempts = 10 } in
  match
    Server.Client.query ?retry ~deadline_ms:10000 client
      "SELECT C.ID, C.X FROM C WHERE C.ID >= 0"
  with
  | Server.Client.Answer { rows; _ } ->
      Some (List.length rows, checksum_of_rows (wire_rows rows))
  | _ -> None

let failover_cell ~seed tl =
  with_temp_dir @@ fun pdir ->
  with_temp_dir @@ fun rdir ->
  with_temp_dir @@ fun r2dir ->
  with_victim ~seed ~replicate:true pdir @@ fun ~pid ~kill ->
  event tl "primary started (pid %d)" pid;
  if not (await ~timeout_s:20.0 (fun () -> read_int (port_file pdir) > 0)) then
    failwith "chaos: primary never published its port";
  let pport = read_int (port_file pdir) in
  let replica =
    Replication.Replica.create ~dir:rdir ~primary:(addr_of pport) ()
  in
  Replication.Replica.start replica;
  if not (Replication.Replica.wait_synced ~timeout_s:30.0 replica) then
    failwith "chaos: replica failed its initial catch-up";
  event tl "replica synced (snapshot + tail) from %s" (addr_of pport);
  let daemon =
    Server.Daemon.start ~workers:2 ~queue_capacity:16 ~default_deadline_ms:10000
      ~replica ~max_staleness_ms:5000
      ~make_env:(fun ~pool_pages ->
        Env.open_durable ~dir:rdir ~readonly:true ~pool_pages ())
      ~setup:durable_setup ()
  in
  let dport = Server.Daemon.port daemon in
  event tl "replica daemon serving read-only on %s" (addr_of dport);
  (* Clients query the replica throughout the failover. *)
  let queries_ok = ref 0 in
  let scan client =
    let r = query_scan client in
    if r <> None then incr queries_ok;
    r
  in
  let client = Server.Client.connect ~port:dport () in
  ignore (scan client);
  let kill_after, acked = kill_mid_load ~seed ~kill pdir tl in
  (* Promote over the wire, exactly as `fsql \promote` does. *)
  let epoch =
    match Server.Client.promote client with
    | Ok e -> e
    | Error m -> failwith ("chaos: promote refused: " ^ m)
  in
  event tl "replica promoted; epoch %d" epoch;
  (* Re-point the retrying client at the promoted primary. *)
  Server.Client.close client;
  let client = Server.Client.connect ~port:dport () in
  let recovered, checksum = Option.value ~default:(0, "") (scan client) in
  ignore (scan client);
  let epoch_in_metrics =
    contains ~sub:"replication_epoch" (Server.Client.metrics_json client)
  in
  event tl "post-failover scan: %d tuples, checksum %s, replication_epoch %s in /metrics"
    recovered checksum (if epoch_in_metrics then "present" else "MISSING");
  (* Fencing drill: chain a second replica off the promoted primary so an
     epoch-2 directory exists, then point it at a zombie sender on the dead
     primary's epoch-1 files. *)
  let r2 = Replication.Replica.create ~dir:r2dir ~primary:(addr_of dport) () in
  Replication.Replica.start r2;
  if not (Replication.Replica.wait_synced ~timeout_s:30.0 r2) then
    failwith "chaos: chained replica failed to sync off the promoted primary";
  Replication.Replica.stop r2;
  let zombie = Replication.Sender.create_for_dir ~dir:pdir in
  let zport = Replication.Sender.listen ~port:0 zombie in
  event tl "zombie sender up on old primary dir (epoch %d)"
    (Replication.Sender.epoch zombie);
  let r3 = Replication.Replica.create ~dir:r2dir ~primary:(addr_of zport) () in
  Replication.Replica.start r3;
  ignore
    (await ~timeout_s:10.0 (fun () -> Replication.Replica.fenced_rejects r3 > 0));
  Replication.Replica.stop r3;
  let fenced_sender = Replication.Sender.fenced zombie in
  let fenced_replica = Replication.Replica.fenced_rejects r3 in
  Replication.Sender.stop zombie;
  event tl "fence fired: zombie refused %d, replica rejected %d" fenced_sender
    fenced_replica;
  Server.Client.close client;
  Server.Daemon.stop daemon;
  Option.iter Replication.Sender.stop (Server.Daemon.sender daemon);
  Replication.Replica.stop replica;
  let torn =
    let env = Env.open_durable ~dir:rdir () in
    Fun.protect ~finally:(fun () -> Env.close env) (fun () -> undetected_torn env)
  in
  event tl "promoted replica's directory: %d torn pages undetected" torn;
  let prefix = prefix_violations ~seed ~acked ~recovered ~checksum in
  {
    row =
      [
        ("fault_seed", Int seed); ("kill_after_s", Fixed (3, kill_after));
        ("acked_batches", Int acked); ("recovered_tuples", Int recovered);
        ("checksum", Text checksum); ("match", Flag (all_zero prefix));
        ("epoch", Int epoch); ("fenced_sender", Int fenced_sender);
        ("fenced_replica", Int fenced_replica); ("queries_ok", Int !queries_ok);
        ("torn_undetected", Int torn);
        ("duration_s", Fixed (3, Unix.gettimeofday () -. tl.t0));
      ];
    violations =
      prefix
      @ [
          ( Fencing,
            Bool.to_int (epoch <> 2)
            + Bool.to_int (not epoch_in_metrics)
            + Bool.to_int (fenced_sender < 1)
            + Bool.to_int (fenced_replica < 1) );
        ]
      @ torn_violations torn;
  }

(* ------------------------------------------------------------------ *)
(* The driver.                                                         *)
(* ------------------------------------------------------------------ *)

let run source (cfg : Harness.config) =
  let seeds = List.init 3 (fun d -> cfg.seed + d) in
  let kill_header = [ ("seed", Int cfg.seed); ("batch_size", Int batch_size) ] in
  let title, intro, header, bench, columns, cells =
    match source with
    | Fault_plane ->
        let setup = Server.Demo.server_setup ~seed:data_seed () in
        let expected = expected_answers setup in
        ( "Chaos - fault injection vs the serving path",
          [
            "every completed answer is checked bit-for-bit against the fault-free";
            "sequential engine; after each cell the daemon drains and the books";
            "must balance (accepted = completed + cancelled + failed + transient)";
            Printf.sprintf "(%d queries per cell, %d workers, data seed %d)"
              !queries workers data_seed;
          ],
          [
            ("seed", Int cfg.seed); ("data_seed", Int data_seed);
            ("workers", Int workers); ("queries_per_cell", Int !queries);
          ],
          "chaos",
          [
            "fault_seed"; "prob"; "ok"; "wrong"; "retryable"; "failed";
            "cancelled"; "overloaded"; "injected"; "retries"; "respawns";
            "leaked_workers";
          ],
          List.concat_map
            (fun fault_seed ->
              List.map
                (fun prob ->
                  plane_cell ~expected ~setup ~fault_seed ~prob)
                probs)
            seeds )
    | Crash ->
        ( "Recovery chaos - SIGKILL a durable writer, recover, verify",
          [
            Printf.sprintf
              "the victim commits %d-tuple batches (wal-sync always) and" batch_size;
            "fsync-acks each; it is SIGKILLed mid-load, the directory is";
            "recovered, and the heap must be a bit-identical committed prefix";
            "of whole batches with zero undetected torn pages";
          ],
          kill_header,
          "recovery_chaos",
          [
            "fault_seed"; "kill_after_s"; "committed_batches"; "recovered_tuples";
            "recovery_ms"; "match"; "torn_undetected";
          ],
          List.map (fun seed -> crash_cell ~seed) seeds )
    | Failover ->
        ( "Failover chaos - SIGKILL the primary, promote the replica",
          [
            Printf.sprintf
              "the victim primary commits %d-tuple batches (wal-sync always)"
              batch_size;
            "and acks each only after the replica applied it (semi-sync); it is";
            "SIGKILLed mid-load, the replica is promoted over the wire, and";
            "clients re-pointed; checks zero acked-commit loss, a bit-identical";
            "committed prefix, both directions of the epoch fence, and zero";
            "undetected torn pages in the promoted replica's directory";
          ],
          kill_header,
          "failover_chaos",
          [
            "fault_seed"; "kill_after_s"; "acked_batches"; "recovered_tuples";
            "epoch"; "fenced_sender"; "fenced_replica"; "match";
            "torn_undetected";
          ],
          List.map (fun seed -> failover_cell ~seed) seeds )
  in
  section title;
  List.iter (note "%s@.") intro;
  note "@.";
  print_header columns;
  let cells =
    List.map
      (fun run_cell ->
        let tl = { t0 = Unix.gettimeofday (); events = [] } in
        let c = run_cell tl in
        record bench c.row;
        print_columns columns c;
        (c, tl))
      cells
  in
  let path = write_schedule source header cells in
  note "@.wrote %s (%d cells)@." path (List.length cells);
  if not (verdict source (List.map fst cells)) then verdict_failed := true
  else
    match source with
    | Fault_plane -> ()
    | Crash -> note "all seeds recovered bit-identical committed prefixes@."
    | Failover ->
        note "zero acked-commit loss; promoted replicas served bit-identical@.";
        note "committed prefixes; stale primaries were fenced on both sides@."

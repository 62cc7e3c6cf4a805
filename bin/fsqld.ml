(** fsqld — the Fuzzy SQL daemon.

    Serves the paper's dating-service relations (F, M) plus a generated
    nested workload (R, S, T) over the {!Frepro.Server.Wire} protocol.
    Connect with [fsql --connect HOST:PORT].

    {v
    fsqld [--host H] [--port P] [--workers N] [--queue N]
          [--deadline-ms MS] [--seed N] [--trace DIR]
          [--fault-spec SPEC] [--fault-seed N] [--metrics-port P]
          [--query-log FILE] [--slow-ms MS] [--trace-ring N]
          [--data-dir DIR] [--wal-sync always|group|never]
          [--replica-of HOST:PORT] [--max-staleness-ms MS]
          [--promote]
    v}

    [--data-dir DIR] serves from durable storage: the main process opens
    (or initialises) the directory's data file + write-ahead log, runs
    crash recovery if the last shutdown was unclean, loads the demo
    relations durably on first use, checkpoints, and then serves with
    each worker holding its own read-only handles on the recovered
    directory. [--wal-sync] picks the commit durability discipline for
    that initial load (default [group]).

    [--workers N] (default 2) is the number of queries executing in
    parallel: N workers on any host, each with a private storage
    environment, worker 0 on the main domain and the others on a domain
    each; a query runs on one worker. More workers than cores only adds
    stop-the-world GC synchronisation. [--deadline-ms] sets a default
    deadline for clients that do not send one. [--trace DIR] writes one
    Chrome trace file per request to [DIR/req-N.json]. [--fault-spec]
    arms deterministic fault injection on every worker's storage (syntax
    in {!Frepro.Storage.Fault.parse_spec}, e.g.
    ["read:p=0.05;torn:nth=100"]) with per-worker seeds derived from
    [--fault-seed].

    Telemetry: [--metrics-port P] serves Prometheus text on
    [http://127.0.0.1:P/metrics] and a health check on [/healthz] (503
    when the breaker is open or the server is draining); [--query-log
    FILE] appends one JSONL record per finished request (rotated at 64 MB
    to [FILE.1]); [--slow-ms MS] logs only requests at least that slow;
    [--trace-ring N] keeps the last N requests' Chrome traces fetchable
    by request ID with [fsql \trace ID]. SIGINT / SIGTERM trigger a
    graceful drain; SIGHUP reopens the query log at its configured path
    (the logrotate handshake).

    Replication: with [--data-dir], a primary serves [Rep_subscribe]
    streams on its main port. [--replica-of HOST:PORT] (requires
    [--data-dir]) starts a replica instead: catch up from the primary
    (snapshot or local recovery), tail its WAL, and serve read-only
    queries; [--max-staleness-ms MS] rejects queries (retryably) when
    the applied state lags the primary by more than MS.
    [fsqld --promote] is an admin command: connect to [--host]/[--port],
    send [Promote] — the replica bumps and commits its replication
    epoch, fencing the old primary — print the new epoch, and exit. *)

open Frepro

let usage =
  "usage: fsqld [--host H] [--port P] [--workers N] [--queue N]\n\
  \             [--deadline-ms MS] [--seed N] [--trace DIR]\n\
  \             [--fault-spec SPEC] [--fault-seed N] [--metrics-port P]\n\
  \             [--query-log FILE] [--slow-ms MS] [--trace-ring N]\n\
  \             [--data-dir DIR] [--wal-sync always|group|never]\n\
  \             [--replica-of HOST:PORT] [--max-staleness-ms MS] [--promote]"

let () =
  let host = ref "127.0.0.1" in
  let port = ref 5499 in
  let workers = ref 2 in
  let queue = ref 16 in
  let deadline_ms = ref 0 in
  let seed = ref 11 in
  let trace_dir = ref None in
  let fault_spec = ref None in
  let fault_seed = ref 0 in
  let metrics_port = ref None in
  let query_log = ref None in
  let slow_ms = ref 0.0 in
  let trace_ring = ref 64 in
  let data_dir = ref None in
  let wal_sync = ref Storage.Wal.Group in
  let replica_of = ref None in
  let max_staleness_ms = ref None in
  let do_promote = ref false in
  let int_arg name n k rest =
    match int_of_string_opt n with
    | Some v when v >= 0 ->
        k v;
        rest
    | _ ->
        prerr_endline ("fsqld: " ^ name ^ " expects a non-negative integer");
        exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--host" :: h :: rest ->
        host := h;
        parse rest
    | "--port" :: n :: rest -> parse (int_arg "--port" n (( := ) port) rest)
    | "--workers" :: n :: rest ->
        parse (int_arg "--workers" n (( := ) workers) rest)
    | "--queue" :: n :: rest -> parse (int_arg "--queue" n (( := ) queue) rest)
    | "--deadline-ms" :: n :: rest ->
        parse (int_arg "--deadline-ms" n (( := ) deadline_ms) rest)
    | "--seed" :: n :: rest -> parse (int_arg "--seed" n (( := ) seed) rest)
    | "--trace" :: dir :: rest ->
        trace_dir := Some dir;
        parse rest
    | "--fault-spec" :: s :: rest ->
        (match Storage.Fault.parse_spec s with
        | Ok spec -> fault_spec := Some spec
        | Error m ->
            prerr_endline ("fsqld: bad --fault-spec: " ^ m);
            exit 2);
        parse rest
    | "--fault-seed" :: n :: rest ->
        parse (int_arg "--fault-seed" n (( := ) fault_seed) rest)
    | "--metrics-port" :: n :: rest ->
        parse
          (int_arg "--metrics-port" n (fun v -> metrics_port := Some v) rest)
    | "--query-log" :: path :: rest ->
        query_log := Some path;
        parse rest
    | "--slow-ms" :: n :: rest ->
        parse (int_arg "--slow-ms" n (fun v -> slow_ms := float_of_int v) rest)
    | "--trace-ring" :: n :: rest ->
        parse
          (int_arg "--trace-ring" n
             (fun v ->
               if v < 1 then begin
                 prerr_endline "fsqld: --trace-ring expects at least 1";
                 exit 2
               end;
               trace_ring := v)
             rest)
    | "--data-dir" :: dir :: rest ->
        data_dir := Some dir;
        parse rest
    | "--replica-of" :: addr :: rest ->
        replica_of := Some addr;
        parse rest
    | "--max-staleness-ms" :: n :: rest ->
        parse
          (int_arg "--max-staleness-ms" n
             (fun v -> max_staleness_ms := Some v)
             rest)
    | "--promote" :: rest ->
        do_promote := true;
        parse rest
    | "--wal-sync" :: s :: rest ->
        (match Storage.Wal.sync_mode_of_string s with
        | Some m -> wal_sync := m
        | None ->
            prerr_endline "fsqld: --wal-sync expects always, group or never";
            exit 2);
        parse rest
    | arg :: _ ->
        prerr_endline ("fsqld: unknown argument " ^ arg);
        prerr_endline usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !do_promote then begin
    (* Admin mode: ask the server at --host/--port to promote itself. *)
    match
      let c =
        Server.Client.connect ~host:!host ~timeout_ms:5000 ~port:!port ()
      in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () -> Server.Client.promote c)
    with
    | Ok epoch ->
        Printf.printf "fsqld: promoted; replication epoch is now %d\n%!" epoch;
        exit 0
    | Error m ->
        prerr_endline ("fsqld: promote refused: " ^ m);
        exit 1
    | exception e ->
        prerr_endline ("fsqld: promote failed: " ^ Printexc.to_string e);
        exit 1
  end;
  (match (!replica_of, !data_dir) with
  | Some _, None ->
      prerr_endline "fsqld: --replica-of requires --data-dir";
      exit 2
  | _ -> ());
  let on_trace =
    Option.map
      (fun dir ->
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
        let next = Atomic.make 0 in
        fun trace ->
          let n = Atomic.fetch_and_add next 1 in
          let path = Filename.concat dir (Printf.sprintf "req-%d.json" n) in
          Storage.Trace.write_chrome trace ~path)
      !trace_dir
  in
  (* Durable serving: recover (writable) in the main process, load the
     demo relations durably if the directory is fresh, checkpoint and
     close — then every shared-nothing worker opens its own read-only
     handles on the now-clean directory. *)
  let durable_setup env catalog =
    let durable = Relational.Catalog.load_durable env in
    List.iter
      (fun name ->
        match Relational.Catalog.find durable name with
        | Some rel -> Relational.Catalog.add catalog rel
        | None -> ())
      (Relational.Catalog.names durable)
  in
  let make_env, setup, sender, replica =
    match (!data_dir, !replica_of) with
    | None, _ -> (None, Server.Demo.server_setup ~seed:!seed (), None, None)
    | Some dir, None ->
        let env = Storage.Env.open_durable ~dir ~wal_sync:!wal_sync () in
        (match Storage.Env.recovery env with
        | Some r ->
            Printf.printf "fsqld: recovery: %s\n%!"
              (Format.asprintf "%a" Storage.Recovery.pp_report r)
        | None -> ());
        let catalog = Relational.Catalog.load_durable env in
        if Relational.Catalog.names catalog = [] then begin
          Server.Demo.server_setup ~durable:true ~seed:!seed () env
            (Relational.Catalog.create env);
          Storage.Env.commit env;
          Printf.printf "fsqld: initialised demo relations in %s\n%!" dir
        end;
        (* The environment stays open: the replication sender streams the
           live WAL from it. Workers still open their own read-only
           handles — the on-disk log is clean (committed) at this point. *)
        let sender = Server.Replication.Sender.create ~env in
        let make_env ~pool_pages =
          Storage.Env.open_durable ~dir ~readonly:true ~pool_pages ()
        in
        (Some make_env, durable_setup, Some sender, None)
    | Some dir, Some primary ->
        let replica = Server.Replication.Replica.create ~dir ~primary () in
        Server.Replication.Replica.start replica;
        Printf.printf "fsqld: replica of %s, syncing %s...\n%!" primary dir;
        if not (Server.Replication.Replica.wait_synced ~timeout_s:60.0 replica)
        then
          Printf.printf "fsqld: warning: initial catch-up has not completed; %s\n%!"
            (if Option.is_some !max_staleness_ms then
               "queries will be rejected as stale until it does"
             else "queries see whatever the replica has applied");
        let make_env ~pool_pages =
          Storage.Env.open_durable ~dir ~readonly:true ~pool_pages ()
        in
        (Some make_env, durable_setup, None, Some replica)
  in
  let daemon =
    Server.Daemon.start ~host:!host ~port:!port ~workers:!workers
      ~queue_capacity:!queue
      ?default_deadline_ms:
        (if !deadline_ms > 0 then Some !deadline_ms else None)
      ?on_trace ?fault_spec:!fault_spec
      ~fault_seed:!fault_seed ?metrics_port:!metrics_port
      ?query_log:!query_log
      ?slow_ms:(if !slow_ms > 0.0 then Some !slow_ms else None)
      ~trace_ring_capacity:!trace_ring ?make_env ?sender ?replica
      ?max_staleness_ms:!max_staleness_ms ~setup ()
  in
  Printf.printf
    "fsqld: listening on %s:%d (workers=%d, queue=%d%s%s%s%s)\n%!"
    !host
    (Server.Daemon.port daemon)
    (Server.Daemon.workers daemon)
    !queue
    (match !data_dir with
    | Some d ->
        Printf.sprintf ", data-dir=%s wal-sync=%s%s" d
          (Storage.Wal.sync_mode_name !wal_sync)
          (match !replica_of with
          | Some p -> ", replica-of=" ^ p
          | None -> ", primary")
    | None -> "")
    (if !deadline_ms > 0 then Printf.sprintf ", deadline=%dms" !deadline_ms
     else "")
    (match !trace_dir with Some d -> ", trace=" ^ d | None -> "")
    (match !fault_spec with
    | Some spec ->
        Printf.sprintf ", faults=%s seed=%d"
          (Storage.Fault.spec_to_string spec)
          !fault_seed
    | None -> "");
  (match Server.Daemon.metrics_port daemon with
  | Some p ->
      Printf.printf "fsqld: metrics on http://127.0.0.1:%d/metrics\n%!" p
  | None -> ());
  (match !query_log with
  | Some path ->
      Printf.printf "fsqld: query log at %s%s\n%!" path
        (if !slow_ms > 0.0 then Printf.sprintf " (slow-ms=%g)" !slow_ms else "")
  | None -> ());
  let stop = Atomic.make false in
  let hup = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  (* SIGHUP = logrotate's "I renamed your log, reopen it". The handler
     only sets a flag; the reopen itself runs on the main loop. *)
  (try Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> Atomic.set hup true))
   with Invalid_argument _ -> ());
  while not (Atomic.get stop) do
    if Atomic.compare_and_set hup true false then begin
      Server.Daemon.reopen_query_log daemon;
      print_string "fsqld: query log reopened\n";
      flush stdout
    end;
    Unix.sleepf 0.2
  done;
  print_string "fsqld: draining...\n";
  flush stdout;
  Server.Daemon.stop daemon;
  (match sender with
  | Some s -> Server.Replication.Sender.stop s
  | None -> ());
  (match replica with
  | Some r -> Server.Replication.Replica.stop r
  | None -> ());
  print_string "fsqld: clean shutdown\n";
  flush stdout

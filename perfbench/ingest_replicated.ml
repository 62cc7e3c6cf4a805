(** ingest-replicated: one writer on a durable environment
    ([Storage.Env.open_durable], real disk plus write-ahead log, [Group]
    sync as in fsqld) streaming its log to a semi-synchronous
    [Server.Replication.Replica] in the same process, served by
    [Sender.listen] as in the failover harness. One op is three calls:
    [Relation.insert] of a 64-tuple generated batch, [Env.commit], and
    [Sender.wait_applied] on the committed LSN. After every 16th op the
    writer runs the type J query over the relation it is writing.

    The writer fills one relation per round of 16 ops (1024 tuples x
    128 B = 16 of the pool's 256 pages), reads it, then starts a fresh
    one, so every read sees the same size whatever the throughput.
    Rounds are built from the same generated batches, so round 1 repeats
    exactly for a seed: its WAL bytes and read counters are the exact
    counters.

    After the timed region the run checks that the replica applied
    exactly the primary's committed log, that both hold every committed
    row, and that each read's answer equals the answer of the same
    committed prefix replayed in memory. *)

open Frepro
open Common
module Replication = Server.Replication

let batch = 64
let tuple_bytes = 128

type state = {
  dirs : string list;
  env : Storage.Env.t;
  wal : Storage.Wal.t;
  s : Relational.Relation.t;  (** the static inner relation *)
  batches : Relational.Ftuple.t list array;  (** one round's inserts *)
  sender : Replication.Sender.t;
  replica : Replication.Replica.t;
}

let specs ~round =
  let n_s = 1024 in
  let groups = n_s / 7 in
  ( { Workload.Gen.default_spec with n = round * batch; tuple_bytes; groups },
    { Workload.Gen.default_spec with n = n_s; tuple_bytes; groups } )

let builds = ref 0

let build ~seed ~round () =
  let t0 = now () in
  incr builds;
  let dir = fresh_dir (Printf.sprintf "ingest%d-primary" !builds) in
  let rdir = fresh_dir (Printf.sprintf "ingest%d-replica" !builds) in
  let env = Storage.Env.open_durable ~dir ~wal_sync:Storage.Wal.Group () in
  let wal = Option.get (Storage.Env.wal env) in
  let outer, inner = specs ~round in
  let template, s = Workload.Gen.join_pair env ~seed ~outer ~inner in
  let tuples = Array.of_list (Relational.Relation.to_list template) in
  Relational.Relation.destroy template;
  let batches =
    Array.init round (fun k -> Array.to_list (Array.sub tuples (k * batch) batch))
  in
  let t1 = now () in
  let sender = Replication.Sender.create ~env in
  let port = Replication.Sender.listen ~port:0 sender in
  let replica =
    Replication.Replica.create ~dir:rdir
      ~primary:(Printf.sprintf "127.0.0.1:%d" port) ()
  in
  Replication.Replica.start replica;
  if not (Replication.Replica.wait_synced ~timeout_s:60.0 replica) then
    failwith "replica never finished its first catch-up";
  ( { dirs = [ dir; rdir ]; env; wal; s; batches; sender; replica },
    [ ("setup.gen_s", t1 -. t0); ("setup.replica_sync_s", now () -. t1) ] )

let teardown st =
  Replication.Replica.stop st.replica;
  Replication.Sender.stop st.sender;
  Storage.Env.close st.env;
  List.iter rm_rf st.dirs

(* What the writer has done so far, across phases. *)
type log = {
  mutable ops : int;
  mutable failed : int;
  mutable rels : Relational.Relation.t list;  (** one per round, newest first *)
  mutable reads : float list;  (** answer checksum of every read *)
  mutable round1 : counters;  (** counters moved by round 1's read *)
  mutable round1_sum : float;  (** round 1's answer checksum *)
  mutable round1_wal : int;  (** WAL bytes appended by round 1, once over *)
}

(* The samples of one phase, newest first. *)
type samples = {
  mutable lats : float list;  (** op latencies of acknowledged ops *)
  mutable read_lats : float list;
  mutable lags : float list;  (** Sender.lag_bytes right after each commit *)
}

let read ?spans ~op st rel =
  let catalog = Relational.Catalog.create st.env in
  Relational.Catalog.add catalog st.s;
  Relational.Catalog.add catalog rel;
  Spans.span spans ~op "ingest.read" (fun root ->
      let q =
        Spans.span spans ~parent:root ~op "fuzzysql.bind" (fun _ ->
            Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper type_j_sql)
      in
      Spans.span spans ~parent:root ~op "unnest.run" (fun _ -> run_rows q))

(* Run ops until [duration] has passed, continuing the rounds in [log]. *)
let phase ?spans st log ~round ~duration =
  let stop_at = now () +. duration in
  let smp = { lats = []; read_lats = []; lags = [] } in
  while now () < stop_at do
    let k = log.ops mod round in
    if k = 0 then
      log.rels <-
        Relational.Relation.create ~pad_to:tuple_bytes ~durable:true st.env
          (Workload.Gen.schema ~name:"R")
        :: log.rels;
    let rel = List.hd log.rels in
    let first_round = log.ops < round in
    if first_round && k = 0 then log.round1_wal <- Storage.Wal.size st.wal;
    let op = log.ops in
    let t0 = now () in
    let applied =
      Spans.span spans ~op "ingest.op" (fun root ->
          Spans.span spans ~parent:root ~op "relation.insert" (fun _ ->
              List.iter (Relational.Relation.insert rel) st.batches.(k));
          Spans.span spans ~parent:root ~op "wal.commit" (fun _ ->
              Storage.Env.commit st.env);
          let lsn = Storage.Wal.committed_end st.wal in
          smp.lags <- float_of_int (Replication.Sender.lag_bytes st.sender) :: smp.lags;
          Spans.span spans ~parent:root ~op "replication.wait_applied" (fun _ ->
              Replication.Sender.wait_applied st.sender ~lsn ~timeout_s:10.0))
    in
    let lat = now () -. t0 in
    log.ops <- log.ops + 1;
    if applied then smp.lats <- lat :: smp.lats else log.failed <- log.failed + 1;
    if k = round - 1 then begin
      if first_round then log.round1_wal <- Storage.Wal.size st.wal - log.round1_wal;
      let t0 = now () in
      let rows, moved = measured st.env (fun () -> read ?spans ~op st rel) in
      smp.read_lats <- (now () -. t0) :: smp.read_lats;
      let sum = checksum [ rows ] in
      log.reads <- sum :: log.reads;
      if first_round then begin
        log.round1 <- moved;
        log.round1_sum <- sum
      end
    end
  done;
  smp

let count_rows env =
  List.fold_left
    (fun n (fid, meta, pages) ->
      if Bytes.length meta = 0 then n
      else
        n + Relational.Relation.cardinality (Relational.Relation.open_durable env ~fid ~meta ~pages))
    0 (Storage.Env.manifest env)

(* Everything the run checks once the timed region is over. *)
let verify ~seed ~round st log =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let committed = Storage.Wal.committed_end st.wal in
  let applied = Replication.Replica.applied_lsn st.replica in
  if applied <> committed then
    fail "replica applied LSN %d, primary committed end %d" applied committed;
  let rows_committed = batch * log.ops in
  let primary_rows = count_rows st.env in
  if primary_rows <> rows_committed then
    fail "primary holds %d rows, %d committed" primary_rows rows_committed;
  let replica_rows =
    Replication.Replica.with_read st.replica (fun () ->
        let env =
          Storage.Env.open_durable ~readonly:true ~dir:(Replication.Replica.dir st.replica) ()
        in
        Fun.protect ~finally:(fun () -> Storage.Env.close env) (fun () -> count_rows env))
  in
  if replica_rows <> rows_committed then
    fail "replica holds %d rows, %d committed" replica_rows rows_committed;
  (* Every read saw one whole round; replay that committed prefix in memory. *)
  let env = Storage.Env.create () in
  let outer, inner = specs ~round in
  let r, s = Workload.Gen.join_pair env ~seed ~outer ~inner in
  let catalog = Relational.Catalog.create env in
  Relational.Catalog.add catalog s;
  Relational.Catalog.add catalog r;
  let want =
    checksum
      [ run_rows (Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper type_j_sql) ]
  in
  List.iteri
    (fun i sum -> if sum <> want then fail "read %d: answer differs from the replayed prefix" i)
    (List.rev log.reads);
  List.rev !errors

let run ~seed ~seconds ~trace ~tiny =
  let round = if tiny then 4 else 16 in
  let st, setup_s, setup_parts = repeat_setup setups (build ~seed ~round) teardown in
  let log =
    { ops = 0; failed = 0; rels = []; reads = []; round1 = zero; round1_sum = 0.0; round1_wal = 0 }
  in
  let result =
    if not trace then begin
      let t0 = now () in
      let smp = phase st log ~round ~duration:seconds in
      let wall = now () -. t0 in
      let ok = log.ops - log.failed in
      ( [
          ("setup_s", setup_s);
          ("ops_per_s", float_of_int ok /. wall);
          ("read_p50_ms", ms (Stats.median smp.read_lats));
          ("ok_frac", float_of_int ok /. float_of_int log.ops);
          ("peak_rss_mb", peak_rss_mb ());
        ]
        @ latency_metrics smp.lats,
        None )
    end
    else begin
      let plain = phase st log ~round ~duration:(seconds /. 2.0) in
      let commits0 = Storage.Wal.commits st.wal and fsyncs0 = Storage.Wal.fsyncs st.wal in
      let spans = Spans.create () in
      let traced = phase ~spans st log ~round ~duration:(seconds /. 2.0) in
      let commits = Storage.Wal.commits st.wal - commits0 in
      let fsyncs = Storage.Wal.fsyncs st.wal - fsyncs0 in
      let med name = ms (Stats.median (Spans.durations spans name)) in
      let self name = ms (Stats.median (Spans.self_of spans name)) in
      let layers = [ "ingest.op"; "relation.insert"; "wal.commit"; "replication.wait_applied" ] in
      let p50 = ms (Stats.median plain.lats) in
      let user_bytes = round * batch * tuple_bytes in
      ( setup_parts
        @ [
            ("relation.insert_ms", med "relation.insert");
            ("wal.commit_ms", med "wal.commit");
            ("replication.wait_applied_ms", med "replication.wait_applied");
            ("wal.fsyncs_per_commit", float_of_int fsyncs /. float_of_int (Int.max 1 commits));
            ( "wal.bytes_per_user_byte",
              if log.ops < round then Float.nan
              else float_of_int log.round1_wal /. float_of_int user_bytes );
            ("replication.lag_bytes", Stats.median traced.lags);
            ("unnest.read_ms", med "unnest.run");
            ("fuzzysql.bind_us", 1000.0 *. med "fuzzysql.bind");
            ("external_sort.sort_s", log.round1.sort_s);
            ("join_merge.sweep_s", log.round1.merge_s);
            ("trace.residual_ms", Float.abs (p50 -. Stats.sum (List.map self layers)));
            ("trace.overhead_ms", ms (Stats.median traced.lats) -. p50);
            tail_metric plain.lats;
          ]
        @ exact_metrics log.round1 @ pool_metrics log.round1,
        Some spans )
    end
  in
  let errors = verify ~seed ~round st log in
  teardown st;
  let metrics, spans = result in
  ( { attempted = log.ops; failed = log.failed; errors; checksum = log.round1_sum; metrics },
    spans )

open Relational
module Cancel = Storage.Cancel
module Trace = Storage.Trace
module Metrics = Storage.Metrics
module Fault = Storage.Fault

type conn = {
  fd : Unix.file_descr;
  lock : Mutex.t;  (** guards [out], [fd] writes and the mutable fields *)
  out : Wire.writer;
      (** every frame to this client is encoded here and leaves on a
          flush: an answer's header and rows wait for its terminal frame
          (or for [flush_bytes]), so a small answer is one write *)
  mutable busy : bool;  (** a query admitted, terminal frame pending *)
  mutable current : Cancel.t option;
  mutable alive : bool;  (** false once the peer is gone: writes no-op *)
}

type job = {
  request_id : string;
      (** client-generated, or server-assigned ([srv-] prefix) for rev-1
          clients — every span tree in the trace ring has exactly one *)
  sql : string;
  cancel : Cancel.t;
  enqueued_at : float;
  trace : Trace.t;
      (** created at admission so its time origin covers the queue wait;
          handed off through the queue's mutex (single-threaded use) *)
  conn : conn;
}

(* One worker's private storage: built for its first query, again on
   each respawn and, in replica mode, whenever the replica's generation
   has moved. *)
type worker_state = {
  env : Storage.Env.t;
  check : Fuzzysql.Check.ctx;  (** built before the fault plane attaches *)
  gen : int;  (** the replica generation the build saw; 0 otherwise *)
}

type t = {
  listener : Listener.t;
  n_workers : int;
  default_deadline_ms : int option;
  mem_pages : int;
  make_state : int -> worker_state;
      (** build worker [i]'s state with the [setup] callback; in replica
          mode the caller holds the replica's read lock *)
  published : (int * Fuzzysql.Check.ctx) Atomic.t;
      (** the check context of the newest worker build, with the
          generation it saw: admission checks against it, lock-free *)
  on_trace : (Trace.t -> unit) option;
  queue : job Bounded_queue.t;
  metrics : Metrics.t;
  mlock : Mutex.t;  (** the registry is single-threaded; workers share it *)
  trace_ring : Telemetry.Ring.t;
  query_log : Telemetry.Query_log.t option;
  id_rng : Random.State.t;  (** server-assigned request IDs; under mlock *)
  inflight : int ref;  (** jobs between dequeue and terminal; under mlock *)
  retry : Retry.policy;
  breaker : Breaker.t;
  fault_seed : int;
  replica : Replication.Replica.t option;
      (** replica mode: workers serve read-only under the replica's lock
          and rebuild their environments as batches apply *)
  max_staleness_ms : int option;
      (** replica mode: admission rejects (retryably) when the applied
          state is staler than this *)
  mutable sender : Replication.Sender.t option;
      (** primary mode (or a promoted replica): serves [Rep_subscribe] *)
  promote_lock : Mutex.t;
  mutable draining : bool;
  mutable http : Telemetry.Http.t option;
  mutable runner : Thread.t option;  (** worker 0, on the calling domain *)
  mutable domains : unit Domain.t list;  (** workers 1 .. n-1 *)
}

let port t = Listener.port t.listener
let workers t = t.n_workers
let queue_length t = Bounded_queue.length t.queue

let count ?(by = 1) t name =
  Mutex.protect t.mlock (fun () -> Metrics.incr ~by (Metrics.counter t.metrics name))

let observe t name v =
  Mutex.protect t.mlock (fun () -> Metrics.observe (Metrics.histogram t.metrics name) v)

let counter_value t name =
  Mutex.protect t.mlock (fun () -> Metrics.counter_value (Metrics.counter t.metrics name))

let observe_window t name v =
  let now = Unix.gettimeofday () in
  Mutex.protect t.mlock (fun () ->
      Metrics.observe_window (Metrics.window_histogram t.metrics name) ~now v)

(* Gauges are point-in-time: refresh them at every snapshot (metrics
   dump, Prometheus scrape, \top) rather than on every state change. Call
   under [mlock]. *)
let refresh_gauges t =
  let now = Unix.gettimeofday () in
  Metrics.set_gauge
    (Metrics.gauge t.metrics "queue_depth")
    (float_of_int (Bounded_queue.length t.queue));
  Metrics.set_gauge
    (Metrics.gauge t.metrics "busy_workers")
    (float_of_int !(t.inflight));
  Metrics.set_gauge
    (Metrics.gauge t.metrics "breaker_open")
    (if Breaker.is_open t.breaker ~now then 1.0 else 0.0);
  Metrics.set_gauge
    (Metrics.gauge t.metrics "connections")
    (float_of_int (Listener.connections t.listener));
  let g name v = Metrics.set_gauge (Metrics.gauge t.metrics name) v in
  (match t.replica with
  | Some r ->
      let lag = float_of_int (Replication.Replica.lag_bytes r) in
      g "replication_epoch" (float_of_int (Replication.Replica.epoch r));
      g "replica_connected" (if Replication.Replica.connected r then 1.0 else 0.0);
      g "replication_lag_bytes" lag;
      (* LSNs are byte offsets into the shipped log, so LSN lag and byte
         lag coincide; both names are exposed for dashboards. *)
      g "replication_lag_lsn" lag;
      g "replication_applied_lsn"
        (float_of_int (Replication.Replica.applied_lsn r));
      g "replication_staleness_ms"
        (let s = Replication.Replica.stale_ms r in
         if Float.is_finite s then s else -1.0);
      g "replication_fenced_rejects"
        (float_of_int (Replication.Replica.fenced_rejects r))
  | None -> ());
  match t.sender with
  | Some s ->
      let lag = float_of_int (Replication.Sender.lag_bytes s) in
      g "replication_epoch" (float_of_int (Replication.Sender.epoch s));
      g "replication_subscribers"
        (float_of_int (Replication.Sender.connected s));
      g "replication_lag_bytes" lag;
      g "replication_lag_lsn" lag;
      g "replication_fenced" (float_of_int (Replication.Sender.fenced s));
      if Option.is_none t.replica then
        g "replica_connected" (float_of_int (Replication.Sender.connected s))
  | None -> ()

let metrics_json t =
  Mutex.protect t.mlock (fun () ->
      refresh_gauges t;
      Metrics.to_json t.metrics)

let top_text t =
  let now = Unix.gettimeofday () in
  Mutex.protect t.mlock (fun () ->
      refresh_gauges t;
      Telemetry.render_top t.metrics ~now)

let prometheus_text t =
  let now = Unix.gettimeofday () in
  Mutex.protect t.mlock (fun () ->
      refresh_gauges t;
      Telemetry.render_prometheus t.metrics ~now)

let trace_json t id = Telemetry.Ring.find t.trace_ring id
let trace_ring t = t.trace_ring
let query_log_written t = Option.map Telemetry.Query_log.written t.query_log
let metrics_port t = Option.map Telemetry.Http.port t.http
let sender t = t.sender

let reopen_query_log t =
  Option.iter Telemetry.Query_log.reopen t.query_log

let healthz_json t =
  let now = Unix.gettimeofday () in
  let open_ = Breaker.is_open t.breaker ~now in
  let depth = Bounded_queue.length t.queue in
  let busy = Mutex.protect t.mlock (fun () -> !(t.inflight)) in
  let ok = (not open_) && not t.draining in
  ( ok,
    Printf.sprintf
      "{\"status\":\"%s\",\"breaker_open\":%b,\"queue_depth\":%d,\
       \"busy_workers\":%d,\"draining\":%b}"
      (if ok then "ok" else "unavailable")
      open_ depth busy t.draining )

(* Frame writes are serialised per connection and silently dropped once
   the peer is gone — a disconnected client must not take its worker down
   (SIGPIPE is ignored at [start]; [Wire] surfaces the peer vanishing as
   [Connection_closed]). Call under [conn.lock]; a failed flush has
   already emptied the buffer. *)
let guarded conn f =
  if conn.alive then
    try f () with Wire.Connection_closed | Unix.Unix_error _ -> conn.alive <- false

(* One frame, written together with anything already buffered. *)
let write_now conn reply =
  guarded conn (fun () ->
      Wire.add_reply conn.out reply;
      Wire.flush conn.out conn.fd)

let send conn reply = Mutex.protect conn.lock (fun () -> write_now conn reply)

(* ------------------------------------------------------------------ *)
(* Worker side *)

(* An answer's header and rows are buffered, not written: the rest goes
   out with the terminal frame, so an answer under [flush_bytes] costs
   one write. Bigger answers are flushed as the buffer passes it, which
   bounds the buffer. *)
let flush_bytes = 64 * 1024

let send_answer conn cols rows =
  Mutex.protect conn.lock (fun () ->
      guarded conn (fun () ->
          Wire.add_reply conn.out (Wire.Header cols);
          List.iter
            (fun (degree_bits, values) ->
              Wire.add_reply conn.out (Wire.Row { degree_bits; values });
              if Wire.pending conn.out >= flush_bytes then
                Wire.flush conn.out conn.fd)
            rows))

(* The terminal frame of a request must be written in the same critical
   section that clears [busy]: a prompt client pipelines its next query
   right after reading the terminal frame, and if [busy] were cleared
   after the write the connection thread could reject that query as
   still-in-flight. The write carries whatever rows are still buffered. *)
let send_terminal conn reply =
  Mutex.protect conn.lock (fun () ->
      conn.busy <- false;
      conn.current <- None;
      write_now conn reply)

(* Materialise the answer into wire rows. This reads relation pages
   through the buffer pool, so under fault injection it can fault — which
   is exactly why it runs inside the retried attempt, before any frame is
   sent: a retry must never follow a half-streamed answer. *)
let collect_answer answer =
  let schema = Relation.schema answer in
  let cols = Array.to_list (Array.map fst (Schema.attrs schema)) in
  let arity = Schema.arity schema in
  let rows = ref [] in
  Relation.iter answer (fun tup ->
      rows :=
        ( Int64.bits_of_float (Ftuple.degree tup),
          List.init arity (fun i -> Value.to_string (Ftuple.value tup i)) )
        :: !rows);
  (cols, List.rev !rows)

let feed_breaker t ~ok =
  match Breaker.record t.breaker ~now:(Unix.gettimeofday ()) ~ok with
  | `Opened -> count t "breaker_opened"
  | `Stayed -> ()

(* One admitted query: plan + execute + collect under the retry loop,
   then stream the collected rows. Returns [true] when the worker's
   environment must be respawned (a fatal fault or an unclassified
   exception left it suspect). *)
(* "deadline exceeded" is set by [Storage.Cancel]'s deadline check;
   "cancelled by client" / "client disconnected" by the connection side.
   The split keeps the books honest: a latency SLO breach and a user
   pressing ^C are different operational signals. *)
let deadline_reason reason =
  let sub = "deadline" and n = String.length reason in
  let m = String.length sub in
  let rec go i = i + m <= n && (String.sub reason i m = sub || go (i + 1)) in
  go 0

(* The bound query, or the one rejection frame that admission and the
   worker's own check both send: the first error's code and every
   diagnostic rendered. [check_string] returns no query exactly when it
   found an Error; warnings alone never reject. *)
let check ctx sql =
  match Fuzzysql.Check.check_string ctx sql with
  | Some q, _ -> Ok q
  | None, diags ->
      let code = (List.hd (Fuzzysql.Diagnostic.errors diags)).code in
      Error
        (Wire.Rejected
           { code; diagnostics = Fuzzysql.Diagnostic.render_all ~source:sql diags })

exception Bad_query of Wire.reply
(** the client's mistake, raised inside an attempt *)

let handle_job t ~state ~rng job =
  let env = state.env and plane = Storage.Env.fault state.env in
  let dequeued = Unix.gettimeofday () in
  let tr = Some job.trace in
  let faults_before = match plane with Some p -> Fault.injected p | None -> 0 in
  let stats = env.Storage.Env.stats in
  let reads0 = Storage.Iostats.page_reads stats in
  let writes0 = Storage.Iostats.page_writes stats in
  let cmps0 = Storage.Iostats.comparisons stats in
  let fops0 = Storage.Iostats.fuzzy_ops stats in
  let retries_used = ref 0 in
  let attempt () =
    Cancel.raise_if_cancelled job.cancel;
    let q =
      Trace.with_span tr "plan" (fun () ->
          (* The check that guards admission, against this worker's own
             catalog. Admission skips it in replica mode while the
             published context is older than the applied data; then this
             check decides. *)
          match check state.check job.sql with
          | Ok q -> q
          | Error reply -> raise (Bad_query reply))
    in
    Trace.with_span tr ~stats "exec" (fun () ->
        let answer =
          Unnest.Planner.run ~mem_pages:t.mem_pages ~trace:job.trace
            ~cancel:job.cancel q
        in
        Fun.protect
          ~finally:(fun () -> Relation.destroy answer)
          (fun () -> collect_answer answer))
  in
  let rec attempts n =
    match attempt () with
    | v -> `Ok v
    | exception Cancel.Cancelled reason -> `Cancelled reason
    | exception Bad_query reply -> `Bad_query reply
    | exception Unnest.Planner.Unsupported m ->
        `Bad_query (Wire.Error ("unsupported: " ^ m))
    | exception (Fault.Injected { severity = Fault.Transient; _ } as e) ->
        let m = Printexc.to_string e in
        Trace.add_timed_span tr ("fault " ^ m) ~start_s:(Unix.gettimeofday ())
          ~dur_s:0.0;
        if n >= t.retry.Retry.max_attempts then
          `Gave_up ("transient fault, retries exhausted: " ^ m)
        else begin
          let delay = Retry.delay_for t.retry ~rng ~attempt:n in
          let now = Unix.gettimeofday () in
          let budget_ok =
            (* A retry must never start when the remaining deadline budget
               is smaller than the backoff sleep. *)
            match Cancel.deadline job.cancel with
            | Some d -> now +. delay <= d
            | None -> true
          in
          if not budget_ok then
            `Gave_up ("transient fault, no deadline budget left to retry: " ^ m)
          else begin
            count t "retries";
            incr retries_used;
            observe t "retry_backoff_s" delay;
            Trace.add_timed_span tr "retry-backoff" ~start_s:now ~dur_s:delay;
            match Retry.sleep ~cancel:job.cancel delay with
            | `Cancelled -> `Cancelled (Cancel.reason job.cancel)
            | `Slept -> attempts (n + 1)
          end
        end
    | exception (Fault.Injected { severity = Fault.Fatal; _ } as e) ->
        `Fatal ("fatal storage fault: " ^ Printexc.to_string e)
    | exception e ->
        (* Typed storage errors (Sim_disk.Bad_page, Write_size) and
           anything unclassified: the environment is suspect, answer and
           respawn. *)
        `Fatal ("internal error: " ^ Printexc.to_string e)
  in
  let respawn = ref false in
  let outcome = ref "ok" in
  let answer_rows = ref 0 in
  (* ALL bookkeeping — counters, breaker, histograms, trace ring, query
     log — lands before the terminal frame goes out (the one exception:
     [inflight], decremented by the caller). A client that reads its
     reply and immediately scrapes /metrics, fetches the trace, or tails
     the log must see this request already booked. *)
  let terminal = ref None in
  Trace.with_span tr "request" (fun () ->
      Trace.add_timed_span tr "queue-wait" ~start_s:job.enqueued_at
        ~dur_s:(dequeued -. job.enqueued_at);
      match attempts 1 with
      | `Ok (cols, rows) ->
          Trace.with_span tr "emit" (fun () -> send_answer job.conn cols rows);
          let elapsed_s = Unix.gettimeofday () -. job.enqueued_at in
          answer_rows := List.length rows;
          count t "requests_completed";
          feed_breaker t ~ok:true;
          terminal := Some (Wire.Done { rows = List.length rows; elapsed_s })
      | `Cancelled reason ->
          (* The aggregate stays (the books-balance identity and existing
             dashboards read it); the split attributes it. *)
          count t "requests_cancelled";
          if deadline_reason reason then begin
            count t "requests_cancelled_deadline";
            outcome := "cancelled_deadline"
          end
          else begin
            count t "requests_cancelled_client";
            outcome := "cancelled_client"
          end;
          terminal := Some (Wire.Cancelled reason)
      | `Bad_query reply ->
          (* The client's mistake, not server health: keep it out of the
             breaker's error budget. *)
          count t "requests_failed";
          outcome := "error";
          terminal := Some reply
      | `Gave_up m ->
          count t "requests_failed_transient";
          outcome := "failed_transient";
          feed_breaker t ~ok:false;
          terminal := Some (Wire.Retryable m)
      | `Fatal m ->
          count t "requests_failed";
          outcome := "error";
          feed_breaker t ~ok:false;
          respawn := true;
          terminal := Some (Wire.Error m));
  (match plane with
  | Some p ->
      let d = Fault.injected p - faults_before in
      if d > 0 then count ~by:d t "faults_injected"
  | None -> ());
  let now = Unix.gettimeofday () in
  let queue_wait_s = dequeued -. job.enqueued_at in
  let exec_s = now -. dequeued in
  observe t "queue_wait_s" queue_wait_s;
  observe t "exec_s" exec_s;
  observe t "latency_s" (now -. job.enqueued_at);
  observe_window t "queue_wait_s" queue_wait_s;
  observe_window t "exec_s" exec_s;
  observe_window t "latency_s" (now -. job.enqueued_at);
  (match t.on_trace with Some f -> f job.trace | None -> ());
  Telemetry.Ring.add t.trace_ring ~id:job.request_id
    ~json:(Trace.to_chrome_json job.trace);
  (match t.query_log with
  | Some log ->
      Telemetry.Query_log.log log
        {
          Telemetry.Query_log.ts = now;
          request_id = job.request_id;
          shape = Telemetry.normalize_sql job.sql;
          queue_wait_s;
          exec_s;
          page_reads = Storage.Iostats.page_reads stats - reads0;
          page_writes = Storage.Iostats.page_writes stats - writes0;
          comparisons = Storage.Iostats.comparisons stats - cmps0;
          fuzzy_ops = Storage.Iostats.fuzzy_ops stats - fops0;
          rows = !answer_rows;
          retries = !retries_used;
          outcome = !outcome;
        }
  | None -> ());
  (match !terminal with
  | Some reply -> send_terminal job.conn reply
  | None -> ());
  !respawn

(* In replica mode, [f] under the read side of the replica's lock: the
   applier swaps no file and writes no page while it runs. *)
let reading replica f =
  match replica with
  | Some r -> Replication.Replica.with_read r f
  | None -> f ()

(* Generations only grow, so a build that lost the race to a newer one
   leaves the newer context published. *)
let rec publish t s =
  let ((gen, _) as cur) = Atomic.get t.published in
  if s.gen >= gen && not (Atomic.compare_and_set t.published cur (s.gen, s.check))
  then publish t s

(* Shared-nothing: a private environment and catalog per worker domain
   (the storage layer is single-threaded by design). Worker 0's first
   state is built by [start]; every other build happens here and is
   published for admission. *)
let worker_loop t widx first () =
  let rng = Random.State.make [| 0xB0FF; t.fault_seed; widx |] in
  let build () =
    let s = t.make_state widx in
    publish t s;
    s
  in
  let state =
    ref (match first with Some s -> s | None -> reading t.replica build)
  in
  (* The old environment is closed first: in replica mode its fds point
     at applied-over or renamed-away files. *)
  let rebuild () =
    (try Storage.Env.close !state.env with _ -> ());
    state := build ()
  in
  (* In replica mode a query runs under the read side of the replica's
     lock, so the applier never swaps files or writes pages mid-query;
     when the apply generation has moved, the worker first rebuilds. *)
  let run_job job =
    match t.replica with
    | None -> handle_job t ~state:!state ~rng job
    | Some r ->
        Replication.Replica.with_read r (fun () ->
            if Replication.Replica.generation r <> !state.gen then rebuild ();
            handle_job t ~state:!state ~rng job)
  in
  let rec loop () =
    match Bounded_queue.pop t.queue with
    | None -> ()
    | Some job ->
        Mutex.protect t.mlock (fun () -> incr t.inflight);
        let finally () = Mutex.protect t.mlock (fun () -> decr t.inflight) in
        let respawn =
          try Fun.protect ~finally (fun () -> run_job job)
          with e ->
            (* handle_job classifies everything; if it still raised (a
               poisoned query broke an invariant), answer the query and
               rebuild rather than letting the worker die. *)
            send_terminal job.conn
              (Wire.Error ("internal error: " ^ Printexc.to_string e));
            count t "requests_failed";
            feed_breaker t ~ok:false;
            true
        in
        if respawn then begin
          count t "workers_respawned";
          reading t.replica rebuild
        end;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Connection side *)

(* A statically-invalid query never reaches the worker queue: the check
   runs on the connection thread against the newest worker-built context
   (read-only, and checking does no storage I/O, so no lock), and the
   rejection is terminal and non-retryable. In replica mode a context
   built before the replica's current generation may miss relations the
   replica has applied since: the query goes through, and the worker,
   which rebuilds first, decides. *)
let static_reject t sql =
  let gen, ctx = Atomic.get t.published in
  match t.replica with
  | Some r when gen <> Replication.Replica.generation r -> None
  | _ -> ( match check ctx sql with Ok _ -> None | Error reply -> Some reply)

let admit t conn ~request_id ~deadline_ms sql =
  let now = Unix.gettimeofday () in
  let request_id =
    (* Rev-1 clients send no ID; assign one so the trace ring and query
       log still have a handle for every request. The [srv-] prefix makes
       the provenance visible in the log. *)
    if request_id <> "" then request_id
    else
      "srv-" ^ Mutex.protect t.mlock (fun () -> Telemetry.gen_request_id t.id_rng)
  in
  (* Cheap connection-state verdicts first; the static check (a parse
     plus catalog lookups) runs only for queries that could be admitted.
     [admit] is the only writer of [busy] and runs on the one connection
     thread, so the state cannot flip between these sections. *)
  let pre =
    Mutex.protect conn.lock (fun () ->
        if conn.busy then `Busy else if t.draining then `Draining else `Go)
  in
  let pre =
    (* Replica-mode staleness admission: a replica that has fallen more
       than [max_staleness_ms] behind (or is still in its first catch-up)
       rejects retryably — clients with a retry policy ride it out, and a
       promoted replica never rejects. *)
    match (pre, t.replica, t.max_staleness_ms) with
    | `Go, Some r, Some max_ms when not (Replication.Replica.promoted r) ->
        let s = Replication.Replica.stale_ms r in
        if s > float_of_int max_ms then `Stale s else `Go
    | _ -> pre
  in
  match pre with
  | `Busy ->
      send conn (Wire.Error "a query is already in flight on this connection")
  | `Draining -> send conn (Wire.Error "server is shutting down")
  | `Stale s ->
      count t "requests_rejected_stale";
      send conn
        (Wire.Retryable
           (if Float.is_finite s then
              Printf.sprintf
                "replica is %.0f ms stale (max-staleness %d ms); retry" s
                (Option.value t.max_staleness_ms ~default:0)
            else "replica has not completed its first catch-up; retry"))
  | `Go -> (
      match static_reject t sql with
      | Some reply ->
          count t "requests_rejected_static";
          (match t.query_log with
          | Some log ->
              Telemetry.Query_log.log log
                {
                  Telemetry.Query_log.ts = now;
                  request_id;
                  shape = Telemetry.normalize_sql sql;
                  queue_wait_s = 0.;
                  exec_s = 0.;
                  page_reads = 0;
                  page_writes = 0;
                  comparisons = 0;
                  fuzzy_ops = 0;
                  rows = 0;
                  retries = 0;
                  outcome = "rejected_static";
                }
          | None -> ());
          send conn reply
      | None -> (
          let deadline_ms =
            if deadline_ms > 0 then Some deadline_ms else t.default_deadline_ms
          in
          let cancel =
            match deadline_ms with
            | Some ms ->
                Cancel.create ~deadline:(now +. (float_of_int ms /. 1000.0)) ()
            | None -> Cancel.create ()
          in
          let job =
            {
              request_id;
              sql;
              cancel;
              enqueued_at = now;
              trace = Trace.create ();
              conn;
            }
          in
          let verdict =
            Mutex.protect conn.lock (fun () ->
                if t.draining then `Draining
                else if not (Breaker.allow t.breaker ~now) then `Shed
                else if Bounded_queue.try_push t.queue job then begin
                  conn.busy <- true;
                  conn.current <- Some cancel;
                  `Accepted
                end
                else `Full)
          in
          match verdict with
          | `Accepted -> count t "requests_accepted"
          | `Full ->
              count t "requests_rejected_overload";
              send conn Wire.Overloaded
          | `Shed ->
              (* Error budget exhausted: shed before the queue, same reply
                 as a full queue so clients back off identically. *)
              count t "requests_shed_breaker";
              send conn Wire.Overloaded
          | `Draining -> send conn (Wire.Error "server is shutting down")))

(* A replication subscriber's stream is written by a sender thread; it
   must fail loudly (ending the stream) when the peer is gone, unlike
   [send] which drops silently on behalf of workers. *)
let rep_send conn reply =
  Mutex.protect conn.lock (fun () ->
      if not conn.alive then raise Wire.Connection_closed;
      Wire.add_reply conn.out reply;
      Wire.flush conn.out conn.fd)

(* Promotion is idempotent and serialised: bump the replica's epoch, then
   stand up a sender over the promoted directory so further replicas can
   chain off the new primary. *)
let promote t =
  match t.replica with
  | None -> Error "this server is not a replica"
  | Some r ->
      let epoch =
        Mutex.protect t.promote_lock (fun () ->
            let e = Replication.Replica.promote r in
            (match t.sender with
            | None ->
                t.sender <-
                  Some
                    (Replication.Sender.create_for_dir
                       ~dir:(Replication.Replica.dir r))
            | Some _ -> ());
            e)
      in
      count t "promotions";
      Ok epoch

let conn_loop t fd =
  let conn =
    { fd; lock = Mutex.create (); out = Wire.writer (); busy = false;
      current = None; alive = true }
  in
  let rep = Replication.Sender.peer ~send:(rep_send conn) in
  let rd = Wire.reader fd in
  (try
     let rec loop () =
       (match Wire.read_request rd with
       | Wire.Query { request_id; deadline_ms; domains = _; sql } ->
           admit t conn ~request_id ~deadline_ms sql
       | Wire.Cancel -> (
           match Mutex.protect conn.lock (fun () -> conn.current) with
           | Some c -> Cancel.cancel ~reason:"cancelled by client" c
           | None -> ())
       | Wire.Metrics -> send conn (Wire.Metrics_json (metrics_json t))
       | Wire.Trace_get id -> send conn (Wire.Trace_json (trace_json t id))
       | Wire.Top -> send conn (Wire.Top_text (top_text t))
       | Wire.Promote -> (
           match promote t with
           | Ok epoch -> send conn (Wire.Promoted { epoch })
           | Error m -> send conn (Wire.Error m))
       | Wire.Rep_subscribe _ when Option.is_none t.sender ->
           send conn (Wire.Error "replication is not enabled")
       | (Wire.Rep_subscribe _ | Wire.Rep_ack _) as r ->
           Option.iter (fun s -> Replication.Sender.handle s rep r) t.sender);
       loop ()
     in
     loop ()
   with
  | Wire.Connection_closed | Unix.Unix_error _ | Wire.Protocol_error _ -> ()
  | e ->
      (* Anything else is a fault in a request handler. The client gets an
         answer rather than a silent hang, the event is counted, and the
         connection still goes through the cleanup below. *)
      count t "connection_errors";
      (try send conn (Wire.Error ("internal error: " ^ Printexc.to_string e))
       with _ -> ()));
  Option.iter (fun s -> Replication.Sender.disconnect s rep) t.sender;
  (* Peer gone (or the daemon shut the socket down): cancel any in-flight
     query so its worker frees up and wait for the terminal no-op send;
     only then may the listener close the descriptor — closing while a
     worker still writes would race the fd number. *)
  Mutex.protect conn.lock (fun () ->
      conn.alive <- false;
      match conn.current with
      | Some c -> Cancel.cancel ~reason:"client disconnected" c
      | None -> ());
  while Mutex.protect conn.lock (fun () -> conn.busy) do
    Thread.yield ();
    Thread.delay 0.002
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let start ?(host = "127.0.0.1") ?(port = 0) ?(workers = 2)
    ?(queue_capacity = 16) ?default_deadline_ms
    ?(mem_pages = Unnest.Planner.default_mem_pages)
    ?(terms = Fuzzy.Term.paper) ?on_trace ?(retry = Retry.default) ?breaker
    ?fault_spec ?(fault_seed = 0) ?metrics_port ?query_log ?slow_ms
    ?(trace_ring_capacity = 64) ?make_env ?sender ?replica ?max_staleness_ms
    ~setup () =
  if workers < 1 then invalid_arg "Daemon.start: workers < 1";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listener = Listener.bind ~host ~port () in
  let make_env =
    match make_env with
    | Some f -> fun () -> f ~pool_pages:mem_pages
    | None -> fun () -> Storage.Env.create ~pool_pages:mem_pages ()
  in
  (* The fault plane attaches only after [setup] has loaded the catalog
     and the check context has scanned it, so neither ever faults; each
     worker's plane gets its own seed stream. *)
  let make_state widx =
    let gen =
      match replica with Some r -> Replication.Replica.generation r | None -> 0
    in
    let env = make_env () in
    let catalog = Catalog.create env in
    setup env catalog;
    let check = Fuzzysql.Check.ctx ~catalog ~terms in
    Storage.Env.set_fault env
      (Option.map (fun spec -> Fault.create ~seed:(fault_seed + widx) spec) fault_spec);
    { env; check; gen }
  in
  (* Worker 0's first state, built here so a raising [setup] raises from
     [start] and admission has a context before the first connection. *)
  let first =
    match reading replica (fun () -> make_state 0) with
    | s -> s
    | exception e ->
        Listener.stop listener;
        raise e
  in
  let t =
    {
      listener;
      n_workers = workers;
      default_deadline_ms;
      mem_pages;
      make_state;
      published = Atomic.make (first.gen, first.check);
      on_trace;
      queue = Bounded_queue.create ~capacity:queue_capacity;
      metrics = Metrics.create ();
      mlock = Mutex.create ();
      trace_ring = Telemetry.Ring.create trace_ring_capacity;
      query_log =
        Option.map (fun path -> Telemetry.Query_log.create ?slow_ms path)
          query_log;
      id_rng = Random.State.make [| 0x5EED; fault_seed; Listener.port listener |];
      inflight = ref 0;
      retry;
      breaker = (match breaker with Some b -> b | None -> Breaker.create ());
      fault_seed;
      replica;
      max_staleness_ms;
      sender;
      promote_lock = Mutex.create ();
      draining = false;
      http = None;
      runner = None;
      domains = [];
    }
  in
  (* Worker 0 runs on a thread of the calling domain, so a 1-worker
     server spawns no domain; workers 1 .. n-1 get a domain each. A
     failed spawn undoes what started, as a raising [setup] does. *)
  t.runner <- Some (Thread.create (worker_loop t 0 (Some first)) ());
  (try
     for i = 1 to workers - 1 do
       t.domains <- Domain.spawn (worker_loop t i None) :: t.domains
     done
   with e ->
     Bounded_queue.close t.queue;
     Option.iter Thread.join t.runner;
     List.iter (fun d -> try Domain.join d with _ -> ()) t.domains;
     Listener.stop listener;
     Option.iter Telemetry.Query_log.close t.query_log;
     raise e);
  Listener.serve listener (conn_loop t) ~on_retry:(fun () ->
      count t "accept_errors");
  (match metrics_port with
  | None -> ()
  | Some mport ->
      let handler path =
        match path with
        | "/metrics" ->
            Some (200, "text/plain; version=0.0.4", prometheus_text t)
        | "/healthz" ->
            let ok, body = healthz_json t in
            Some ((if ok then 200 else 503), "application/json", body)
        | _ -> None
      in
      t.http <- Some (Telemetry.Http.start ~port:mport handler));
  t

let stop t =
  if not t.draining then begin
    t.draining <- true;
    Listener.stop_accepting t.listener;
    (* Drain: admitted jobs are still popped and answered; then the
       workers see [None] and exit. A worker whose rebuild raised has
       already died; its exception is not the caller's. *)
    Bounded_queue.close t.queue;
    Option.iter Thread.join t.runner;
    t.runner <- None;
    List.iter (fun d -> try Domain.join d with _ -> ()) t.domains;
    t.domains <- [];
    (* Unblock every connection reader and join the threads. *)
    Listener.close_connections t.listener;
    (* Telemetry last: the final requests' log records and traces land
       before the log closes and the scrape endpoint disappears. *)
    (match t.http with
    | Some h ->
        Telemetry.Http.stop h;
        t.http <- None
    | None -> ());
    Option.iter Telemetry.Query_log.close t.query_log
  end

(** Tests for the fault-tolerance plane: the deterministic fault-injection
    spec and its typed [Injected] exception, the typed storage errors, the
    exception-safe external sort (no leaked run pages on abort),
    retry/backoff, the admission circuit breaker, and the daemon's
    fault-tolerant serving path end to end — retries return bit-identical
    answers, retries never start without deadline budget, cancels abort a
    backoff promptly, fatal faults respawn the worker, and the breaker
    sheds when the error budget is gone. *)

open Frepro
open Frepro.Storage

let tc = Alcotest.test_case

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let fspec s =
  match Fault.parse_spec s with
  | Ok spec -> spec
  | Error m -> Alcotest.failf "bad spec %S: %s" s m

(* ------------------------------------------------------------------ *)
(* Spec syntax *)

let spec_tests =
  [
    tc "parse / print / reparse roundtrip" `Quick (fun () ->
        let s =
          "read:p=0.05;write:nth=100:fatal;torn:every=7;alloc:p=0.01;latency:p=0.02:ms=5"
        in
        let spec = fspec s in
        Alcotest.(check int) "five rules" 5 (List.length spec);
        let printed = Fault.spec_to_string spec in
        Alcotest.(check bool)
          "reparse is identical" true
          (fspec printed = spec));
    tc "defaults: transient severity, 1ms latency" `Quick (fun () ->
        (match fspec "read:nth=3" with
        | [ r ] ->
            Alcotest.(check bool) "transient" true (r.Fault.severity = Fault.Transient);
            Alcotest.(check bool) "nth" true (r.Fault.trigger = Fault.Nth 3)
        | _ -> Alcotest.fail "one rule expected");
        match fspec "latency:every=10" with
        | [ r ] ->
            Alcotest.(check (float 1e-9)) "1ms default" 0.001 r.Fault.delay_s
        | _ -> Alcotest.fail "one rule expected");
    tc "bad specs are rejected" `Quick (fun () ->
        List.iter
          (fun bad ->
            match Fault.parse_spec bad with
            | Ok _ -> Alcotest.failf "accepted %S" bad
            | Error _ -> ())
          [
            ""; "bogus:p=0.1"; "read"; "read:p=oops"; "read:nth=0";
            "read:p=1.5"; "read:p=0.1:wat"; "read:p=0.1:ms=-3";
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Injection at the Sim_disk sites *)

let fresh_disk ?(page_size = 16) () =
  let stats = Iostats.create () in
  Sim_disk.create ~page_size stats

let plane_tests =
  [
    tc "nth read fires exactly once, with page id and counters" `Quick
      (fun () ->
        let disk = fresh_disk () in
        let p = Sim_disk.alloc disk in
        Sim_disk.write disk p (Bytes.make 16 'a');
        let plane = Fault.create ~seed:1 (fspec "read:nth=2") in
        Sim_disk.set_fault disk (Some plane);
        ignore (Sim_disk.read disk p);
        (try
           ignore (Sim_disk.read disk p);
           Alcotest.fail "second read should fault"
         with
        | Fault.Injected
            { kind = Fault.Read_fault; severity = Fault.Transient; page } ->
            Alcotest.(check (option int)) "page id" (Some p) page);
        ignore (Sim_disk.read disk p) (* third read: nth fired, never again *);
        Alcotest.(check int) "one injection" 1 (Fault.injected plane);
        Alcotest.(check int)
          "read counter" 1
          (List.assoc "fault_read" (Fault.counters plane)));
    tc "write fault leaves the page untouched; torn write tears it" `Quick
      (fun () ->
        let disk = fresh_disk () in
        let p = Sim_disk.alloc disk in
        Sim_disk.set_fault disk (Some (Fault.create (fspec "write:nth=1")));
        (try
           Sim_disk.write disk p (Bytes.make 16 'A');
           Alcotest.fail "write should fault"
         with Fault.Injected { kind = Fault.Write_fault; _ } -> ());
        Alcotest.(check bytes)
          "no byte reached the page" (Bytes.make 16 '\000')
          (Sim_disk.read disk p);
        Sim_disk.set_fault disk (Some (Fault.create (fspec "torn:nth=1:fatal")));
        (try
           Sim_disk.write disk p (Bytes.make 16 'B');
           Alcotest.fail "torn write should fault"
         with Fault.Injected { kind = Fault.Torn_write; severity = Fault.Fatal; _ }
         -> ());
        let torn = Bytes.make 16 '\000' in
        Bytes.fill torn 0 8 'B';
        Alcotest.(check bytes)
          "half the buffer persisted" torn (Sim_disk.read disk p);
        (* a freed-then-recycled torn page comes back zeroed, so stale torn
           bytes can never poison a retried query *)
        Sim_disk.set_fault disk None;
        Sim_disk.free disk [ p ];
        let p2 = Sim_disk.alloc disk in
        Alcotest.(check int) "page recycled" p p2;
        Alcotest.(check bytes)
          "recycled page zeroed" (Bytes.make 16 '\000') (Sim_disk.read disk p2));
    tc "alloc fault leaves the disk unchanged" `Quick (fun () ->
        let disk = fresh_disk () in
        Sim_disk.set_fault disk (Some (Fault.create (fspec "alloc:nth=1")));
        (try
           ignore (Sim_disk.alloc disk);
           Alcotest.fail "alloc should fault"
         with Fault.Injected { kind = Fault.Alloc_fault; page = None; _ } -> ());
        Alcotest.(check int) "no page leaked" 0 (Sim_disk.live_pages disk);
        let p = Sim_disk.alloc disk in
        Alcotest.(check int) "next alloc succeeds" 0 p);
    tc "latency rules delay but never raise" `Quick (fun () ->
        let disk = fresh_disk () in
        let p = Sim_disk.alloc disk in
        Sim_disk.write disk p (Bytes.make 16 'x');
        let plane = Fault.create (fspec "latency:every=1:ms=0") in
        Sim_disk.set_fault disk (Some plane);
        ignore (Sim_disk.read disk p);
        ignore (Sim_disk.read disk p);
        Alcotest.(check int) "two latency events" 2 (Fault.latency_events plane);
        Alcotest.(check int) "no injections" 0 (Fault.injected plane));
    tc "typed storage errors carry their context" `Quick (fun () ->
        let disk = fresh_disk () in
        let p = Sim_disk.alloc disk in
        (try
           Sim_disk.write disk p (Bytes.make 9 'x');
           Alcotest.fail "short buffer should be rejected"
         with Sim_disk.Write_size { page; expected; got } ->
           Alcotest.(check int) "page" p page;
           Alcotest.(check int) "expected" 16 expected;
           Alcotest.(check int) "got" 9 got));
  ]

let determinism_prop =
  QCheck.Test.make ~count:50
    ~name:"same seed + same spec + same operations = same fault schedule"
    QCheck.small_int
    (fun seed ->
      let spec = fspec "read:p=0.3;write:p=0.2" in
      let run () =
        let disk = fresh_disk () in
        let p = Sim_disk.alloc disk in
        Sim_disk.write disk p (Bytes.make 16 'd');
        Sim_disk.set_fault disk (Some (Fault.create ~seed spec));
        let fired = ref [] in
        for i = 1 to 40 do
          (try ignore (Sim_disk.read disk p)
           with Fault.Injected _ -> fired := (`R, i) :: !fired);
          try Sim_disk.write disk p (Bytes.make 16 'd')
          with Fault.Injected _ -> fired := (`W, i) :: !fired
        done;
        !fired
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* External sort never leaks run pages on abort *)

(* 300 records of 14 bytes at 256-byte pages: 6 runs against 3 pages of
   memory, so the sort forms runs, then merges some in intermediate
   passes. The input is flushed so every later write is the sort's. *)
let sort_input () =
  let env = Env.create ~page_size:256 ~pool_pages:8 () in
  let records =
    List.init 300 (fun i -> Test_util.sort_record ~lo:(300 - i) ~hi:(300 - i) ~tag:i)
  in
  let input = Test_util.heap_file env records in
  Env.flush env;
  (env, input)

(* Page writes of a clean sort of [sort_input]: in run formation, and in
   the intermediate passes ([k-way-merge] is the only root span not named
   after an input). *)
let sort_writes () =
  let _, input = sort_input () in
  let trace = Trace.create () in
  ignore (Test_util.sort_file ~trace ~mem_pages:3 input);
  List.fold_left
    (fun (rf, mp) sp ->
      if Trace.span_name sp = "k-way-merge" then (rf, mp + Trace.span_writes sp)
      else (rf + Trace.span_writes sp, mp))
    (0, 0) (Trace.roots trace)

(* The sort of [sort_input] raises [expect] with the [arm]ed environment,
   then the disk holds only the input again and the input still sorts. *)
let sort_aborts ~arm ?cancel expect =
  let env, input = sort_input () in
  let baseline = Disk.live_pages env.Env.disk in
  arm env;
  (match Test_util.sort_file ?cancel ~mem_pages:3 input with
  | _ -> Alcotest.fail "expected the sort to abort"
  | exception e when expect e -> ());
  Env.set_fault env None;
  Alcotest.(check int) "live pages back to baseline" baseline
    (Disk.live_pages env.Env.disk);
  Alcotest.(check int) "records survived" 300
    (List.length (Test_util.sort_file ~mem_pages:3 input));
  Alcotest.(check int) "runs freed after a clean sort too" baseline
    (Disk.live_pages env.Env.disk)

let write_fault_at nth env =
  Env.set_fault env (Some (Fault.create (fspec (Printf.sprintf "write:nth=%d" nth))))

let is_write_fault = function
  | Fault.Injected { kind = Fault.Write_fault; _ } -> true
  | _ -> false

(* A write fault at each of the writes [first .. last] in turn. *)
let sort_aborts_at_each_write first last =
  for nth = first to last do
    sort_aborts ~arm:(write_fault_at nth) is_write_fault
  done

let sort_leak_tests =
  [
    tc "aborted sort frees its run pages (injected fault)" `Quick (fun () ->
        let rf, _ = sort_writes () in
        Alcotest.(check bool) "run formation writes pages" true (rf >= 2);
        sort_aborts_at_each_write 1 rf);
    tc "aborted sort frees its run pages (injected fault, intermediate pass)"
      `Quick (fun () ->
        let rf, mp = sort_writes () in
        Alcotest.(check bool) "the intermediate passes write pages" true (mp >= 2);
        sort_aborts_at_each_write (rf + 1) (rf + mp));
    tc "aborted sort frees its run pages (cancellation)" `Quick (fun () ->
        let cancel = Cancel.create () in
        Cancel.cancel ~reason:"test" cancel;
        sort_aborts ~cancel ~arm:ignore (function
          | Cancel.Cancelled _ -> true
          | _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Retry policy *)

let retry_tests =
  [
    tc "delay doubles then caps; no jitter means exact" `Quick (fun () ->
        let p =
          { Server.Retry.max_attempts = 5; base_delay_s = 0.01;
            max_delay_s = 0.04; jitter = 0.0 }
        in
        let rng = Random.State.make [| 7 |] in
        List.iter2
          (fun attempt want ->
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "attempt %d" attempt)
              want
              (Server.Retry.delay_for p ~rng ~attempt))
          [ 1; 2; 3; 4 ] [ 0.01; 0.02; 0.04; 0.04 ]);
    tc "jitter stays in [1-j, 1+j] and is rng-deterministic" `Quick (fun () ->
        let p =
          { Server.Retry.max_attempts = 3; base_delay_s = 0.1;
            max_delay_s = 1.0; jitter = 0.5 }
        in
        let draw () =
          let rng = Random.State.make [| 42 |] in
          List.init 20 (fun i ->
              Server.Retry.delay_for p ~rng ~attempt:(1 + (i mod 3)))
        in
        let a = draw () and b = draw () in
        Alcotest.(check bool) "deterministic" true (a = b);
        List.iteri
          (fun i d ->
            let base = 0.1 *. (2.0 ** float_of_int (i mod 3)) in
            let base = Float.min base 1.0 in
            Alcotest.(check bool)
              (Printf.sprintf "delay %d in bounds" i)
              true
              (d >= (0.5 *. base) -. 1e-9 && d <= (1.5 *. base) +. 1e-9))
          a);
    tc "sleep completes when uncancelled" `Quick (fun () ->
        Alcotest.(check bool)
          "slept" true
          (Server.Retry.sleep 0.01 = `Slept));
    tc "cancel aborts a long backoff sleep promptly" `Quick (fun () ->
        let cancel = Cancel.create () in
        let _killer =
          Thread.create
            (fun () ->
              Thread.delay 0.05;
              Cancel.cancel ~reason:"test" cancel)
            ()
        in
        let t0 = Unix.gettimeofday () in
        let r = Server.Retry.sleep ~cancel 5.0 in
        let elapsed = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) "cancelled" true (r = `Cancelled);
        Alcotest.(check bool)
          (Printf.sprintf "returned in %.3fs, well before the 5s sleep" elapsed)
          true (elapsed < 1.0));
  ]

(* ------------------------------------------------------------------ *)
(* Circuit breaker (clock driven by the test) *)

let breaker_tests =
  [
    tc "opens at the threshold, sheds for the cooldown, then resets" `Quick
      (fun () ->
        let b =
          Server.Breaker.create ~window:8 ~threshold:0.5 ~min_samples:4
            ~cooldown_s:10.0 ()
        in
        Alcotest.(check bool) "starts closed" true (Server.Breaker.allow b ~now:0.0);
        Alcotest.(check bool) "fail 1" true
          (Server.Breaker.record b ~now:0.0 ~ok:false = `Stayed);
        Alcotest.(check bool) "ok" true
          (Server.Breaker.record b ~now:0.1 ~ok:true = `Stayed);
        Alcotest.(check bool) "fail 2 (3 samples < min)" true
          (Server.Breaker.record b ~now:0.2 ~ok:false = `Stayed);
        Alcotest.(check bool) "fail 3 opens (3/4 >= 0.5)" true
          (Server.Breaker.record b ~now:0.3 ~ok:false = `Opened);
        Alcotest.(check bool) "open during cooldown" true
          (Server.Breaker.is_open b ~now:5.0);
        Alcotest.(check bool) "sheds during cooldown" false
          (Server.Breaker.allow b ~now:5.0);
        Alcotest.(check bool) "allows after cooldown" true
          (Server.Breaker.allow b ~now:10.4);
        Alcotest.(check int) "opened once" 1 (Server.Breaker.opened_count b);
        (* opening cleared the window: one new failure is not enough *)
        Alcotest.(check bool) "fresh judgement" true
          (Server.Breaker.record b ~now:10.5 ~ok:false = `Stayed);
        Alcotest.(check bool) "still closed" true
          (Server.Breaker.allow b ~now:10.6));
    tc "failure rate slides with the window" `Quick (fun () ->
        (* min_samples above the window: the breaker can never open, so
           the sliding rate itself is observable *)
        let b =
          Server.Breaker.create ~window:4 ~threshold:0.9 ~min_samples:5
            ~cooldown_s:1.0 ()
        in
        List.iter
          (fun ok -> ignore (Server.Breaker.record b ~now:0.0 ~ok))
          [ false; false; false; false ];
        Alcotest.(check (float 1e-9)) "all failing" 1.0
          (Server.Breaker.failure_rate b);
        List.iter
          (fun ok -> ignore (Server.Breaker.record b ~now:0.0 ~ok))
          [ true; true; true; true ];
        Alcotest.(check (float 1e-9)) "old outcomes evicted" 0.0
          (Server.Breaker.failure_rate b));
  ]

(* ------------------------------------------------------------------ *)
(* Daemon end to end: the fault-tolerant serving path *)

let setup = Server.Demo.server_setup ~seed:11 ()

(* On a fresh environment the J shape reads and writes no disk page: its
   sort streams into the sweep and keeps these small inputs in memory, so
   it writes no temporaries, and its answer's pages start as zeroed
   frames. Its only storage operations are the allocations of its
   answer's pages, so the transient-fault tests below trip on [alloc]. A
   bare projection of T reads no page and writes 1. *)
let j_sql = "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V <= R.U)"
let t_sql = "SELECT T.ID FROM T"

let normal_of_relation rel =
  let arity = Relational.Schema.arity (Relational.Relation.schema rel) in
  let rows = ref [] in
  Relational.Relation.iter rel (fun t ->
      rows :=
        ( List.init arity (fun i ->
              Relational.Value.to_string (Relational.Ftuple.value t i)),
          Int64.bits_of_float (Relational.Ftuple.degree t) )
        :: !rows);
  List.sort compare !rows

let expected_answer sql =
  let env = Env.create () in
  let catalog = Relational.Catalog.create env in
  setup env catalog;
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
  normal_of_relation (Unnest.Planner.run q)

let normal_of_answer rows =
  List.sort compare
    (List.map
       (fun (r : Server.Client.row) -> (r.values, Int64.bits_of_float r.degree))
       rows)

let fast_retry =
  { Server.Retry.max_attempts = 3; base_delay_s = 0.001; max_delay_s = 0.01;
    jitter = 0.0 }

let wait_for ?(timeout = 10.0) what f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let daemon_fault_tests =
  [
    tc "transient fault is retried; the answer is bit-identical" `Quick
      (fun () ->
        let daemon =
          Server.Daemon.start ~workers:1 ~retry:fast_retry
            ~fault_spec:(fspec "alloc:nth=1") ~fault_seed:7 ~setup ()
        in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        (match Server.Client.query client j_sql with
        | Server.Client.Answer { rows; _ } ->
            Alcotest.(check bool)
              "bit-identical to the fault-free sequential engine" true
              (normal_of_answer rows = expected_answer j_sql)
        | _ -> Alcotest.fail "expected an answer after one retry");
        Server.Client.close client;
        Server.Daemon.stop daemon;
        let c = Server.Daemon.counter_value daemon in
        Alcotest.(check int) "one injected fault" 1 (c "faults_injected");
        Alcotest.(check int) "one retry" 1 (c "retries");
        Alcotest.(check int) "completed" 1 (c "requests_completed");
        Alcotest.(check int) "no transient give-up" 0
          (c "requests_failed_transient"));
    tc "no retry starts when the deadline budget is below the backoff" `Quick
      (fun () ->
        (* every allocation faults, and the policy's backoff (10 s) dwarfs the
           150 ms deadline: the daemon must answer Retryable immediately
           instead of sleeping into a guaranteed deadline miss. *)
        let daemon =
          Server.Daemon.start ~workers:1
            ~retry:
              { Server.Retry.max_attempts = 5; base_delay_s = 10.0;
                max_delay_s = 10.0; jitter = 0.0 }
            ~fault_spec:(fspec "alloc:p=1") ~setup ()
        in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        let t0 = Unix.gettimeofday () in
        (match Server.Client.query ~deadline_ms:150 client j_sql with
        | Server.Client.Retryable m ->
            Alcotest.(check bool)
              "reply explains the budget" true (contains m "budget")
        | _ -> Alcotest.fail "expected Retryable");
        let elapsed = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf "no backoff sleep happened (%.3fs)" elapsed)
          true (elapsed < 5.0);
        Server.Client.close client;
        Server.Daemon.stop daemon;
        Alcotest.(check int)
          "zero retries" 0
          (Server.Daemon.counter_value daemon "retries");
        Alcotest.(check int)
          "gave up transiently" 1
          (Server.Daemon.counter_value daemon "requests_failed_transient"));
    tc "cancel during a backoff sleep aborts promptly" `Quick (fun () ->
        let daemon =
          Server.Daemon.start ~workers:1
            ~retry:
              { Server.Retry.max_attempts = 3; base_delay_s = 30.0;
                max_delay_s = 30.0; jitter = 0.0 }
            ~fault_spec:(fspec "alloc:p=1") ~setup ()
        in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        let reply = ref None in
        let t0 = Unix.gettimeofday () in
        let th =
          Thread.create
            (fun () -> reply := Some (Server.Client.query client j_sql))
            ()
        in
        (* the retries counter is bumped just before the backoff sleep *)
        wait_for "the worker to enter its backoff" (fun () ->
            Server.Daemon.counter_value daemon "retries" >= 1);
        Server.Client.cancel client;
        Thread.join th;
        let elapsed = Unix.gettimeofday () -. t0 in
        (match !reply with
        | Some (Server.Client.Cancelled reason) ->
            Alcotest.(check bool)
              "reason names the client" true (contains reason "client")
        | _ -> Alcotest.fail "expected Cancelled");
        Alcotest.(check bool)
          (Printf.sprintf "aborted the 30s sleep in %.3fs" elapsed)
          true (elapsed < 10.0);
        Server.Client.close client;
        Server.Daemon.stop daemon;
        Alcotest.(check int)
          "cancel counted" 1
          (Server.Daemon.counter_value daemon "requests_cancelled"));
    tc "fatal fault answers Error, respawns the worker, keeps serving" `Quick
      (fun () ->
        (* write:nth=1: the T projection writes a page on a fresh
           environment, so it trips the fault; the J query writes none, so
           it stays under the trigger of the respawned (restarted)
           schedule. *)
        let daemon =
          Server.Daemon.start ~workers:1 ~retry:fast_retry
            ~fault_spec:(fspec "write:nth=1:fatal") ~setup ()
        in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        (match Server.Client.query client t_sql with
        | Server.Client.Failed m ->
            Alcotest.(check bool) "names the fatal fault" true (contains m "fatal")
        | _ -> Alcotest.fail "expected Failed on the fatal fault");
        (* The respawned plane restarts its schedule, so the probe query
           must do zero disk writes — the J query does. *)
        (match Server.Client.query client j_sql with
        | Server.Client.Answer { rows; _ } ->
            Alcotest.(check bool)
              "respawned worker serves correct answers" true
              (normal_of_answer rows = expected_answer j_sql)
        | _ -> Alcotest.fail "expected an answer from the respawned worker");
        Server.Client.close client;
        Server.Daemon.stop daemon;
        let c = Server.Daemon.counter_value daemon in
        Alcotest.(check int) "one respawn" 1 (c "workers_respawned");
        Alcotest.(check int) "one failure" 1 (c "requests_failed");
        Alcotest.(check int) "one completion" 1 (c "requests_completed"));
    tc "breaker opens on repeated give-ups and sheds with Overloaded" `Quick
      (fun () ->
        let daemon =
          Server.Daemon.start ~workers:1
            ~retry:
              { Server.Retry.max_attempts = 1; base_delay_s = 0.001;
                max_delay_s = 0.001; jitter = 0.0 }
            ~breaker:
              (Server.Breaker.create ~window:8 ~threshold:0.5 ~min_samples:4
                 ~cooldown_s:30.0 ())
            ~fault_spec:(fspec "alloc:p=1") ~setup ()
        in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        for i = 1 to 4 do
          match Server.Client.query client j_sql with
          | Server.Client.Retryable _ -> ()
          | _ -> Alcotest.failf "query %d: expected Retryable" i
        done;
        (match Server.Client.query client j_sql with
        | Server.Client.Overloaded -> ()
        | _ -> Alcotest.fail "expected the open breaker to shed");
        Server.Client.close client;
        Server.Daemon.stop daemon;
        let c = Server.Daemon.counter_value daemon in
        Alcotest.(check int) "breaker opened" 1 (c "breaker_opened");
        Alcotest.(check bool) "shed counted" true (c "requests_shed_breaker" >= 1);
        Alcotest.(check int) "four transient failures" 4
          (c "requests_failed_transient"));
    tc "client-side retry turns a server give-up into an answer" `Quick
      (fun () ->
        (* The server gives up instantly (one attempt), but the fault is a
           one-shot: the client's second submission runs clean. *)
        let daemon =
          Server.Daemon.start ~workers:1
            ~retry:
              { Server.Retry.max_attempts = 1; base_delay_s = 0.001;
                max_delay_s = 0.001; jitter = 0.0 }
            ~fault_spec:(fspec "alloc:nth=1") ~setup ()
        in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        (match Server.Client.query ~retry:fast_retry client j_sql with
        | Server.Client.Answer { rows; _ } ->
            Alcotest.(check bool)
              "second submission is bit-identical" true
              (normal_of_answer rows = expected_answer j_sql)
        | _ -> Alcotest.fail "expected the client retry to recover");
        Server.Client.close client;
        Server.Daemon.stop daemon;
        let c = Server.Daemon.counter_value daemon in
        Alcotest.(check int) "one give-up" 1 (c "requests_failed_transient");
        Alcotest.(check int) "one completion" 1 (c "requests_completed"));
  ]

(* ------------------------------------------------------------------ *)
(* Engine-level chaos equivalence: under any fault seed, an execution
   that eventually succeeds is bit-identical to the fault-free answer. *)

let equivalence_prop =
  let expected = lazy (expected_answer j_sql) in
  QCheck.Test.make ~count:12
    ~name:"retried executions under random fault seeds are bit-identical"
    QCheck.small_int
    (fun seed ->
      let env = Env.create () in
      let catalog = Relational.Catalog.create env in
      setup env catalog;
      let q =
        Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper j_sql
      in
      Env.set_fault env
        (Some
           (Fault.create ~seed
              (fspec "read:p=0.15;write:p=0.1;alloc:p=0.05;torn:p=0.05")));
      let rec attempt n =
        match Unnest.Planner.run q with
        | answer -> Some (normal_of_relation answer)
        | exception Fault.Injected _ -> if n >= 6 then None else attempt (n + 1)
      in
      match attempt 1 with
      | None -> true (* exhausted: acceptable, only answers must be exact *)
      | Some got -> got = Lazy.force expected)

let suites =
  [
    ("fault spec", spec_tests);
    ("fault plane", plane_tests @ [ QCheck_alcotest.to_alcotest determinism_prop ]);
    ("fault sort-leaks", sort_leak_tests);
    ("fault retry", retry_tests);
    ("fault breaker", breaker_tests);
    ("fault daemon", daemon_fault_tests);
    ("fault equivalence", [ QCheck_alcotest.to_alcotest equivalence_prop ]);
  ]

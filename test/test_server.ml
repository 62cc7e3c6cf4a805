(** Tests for the serving layer: wire-protocol round-trips, the bounded
    admission queue, and the daemon end-to-end over real sockets —
    concurrent clients get bit-identical answers to the sequential
    engine, deadlines and explicit cancels return [Cancelled] and free
    the worker, queue overflow returns [Overloaded], every request
    produces a trace with queue-wait/plan/exec/emit children, and shutdown
    drains cleanly. *)

open Frepro
open Frepro.Relational

let tc = Alcotest.test_case

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

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

(* ------------------------------------------------------------------ *)
(* Wire protocol round-trips through a real pipe.                      *)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let roundtrip_request req =
  let r, w = Unix.pipe () in
  Server.Wire.write_request w req;
  let got = Server.Wire.read_request (Server.Wire.reader r) in
  close_noerr w;
  close_noerr r;
  got

let roundtrip_reply reply =
  let r, w = Unix.pipe () in
  Server.Wire.write_reply w reply;
  let got = Server.Wire.read_reply (Server.Wire.reader r) in
  close_noerr w;
  close_noerr r;
  got

let wire_tests =
  [
    tc "requests round-trip" `Quick (fun () ->
        let q =
          Server.Wire.Query
            {
              request_id = "";
              deadline_ms = 250;
              domains = 4;
              sql = "SELECT R.ID FROM R";
            }
        in
        Alcotest.(check bool) "query" true (roundtrip_request q = q);
        Alcotest.(check bool)
          "cancel" true
          (roundtrip_request Server.Wire.Cancel = Server.Wire.Cancel);
        Alcotest.(check bool)
          "metrics" true
          (roundtrip_request Server.Wire.Metrics = Server.Wire.Metrics));
    tc "replies round-trip with exact degree bits" `Quick (fun () ->
        let row =
          Server.Wire.Row
            {
              degree_bits = Int64.bits_of_float 0.7000000000000001;
              values = [ "\"Ann\""; "35" ];
            }
        in
        List.iter
          (fun reply ->
            Alcotest.(check bool) "roundtrip" true (roundtrip_reply reply = reply))
          [
            Server.Wire.Header [ "NAME"; "AGE" ];
            row;
            Server.Wire.Done { rows = 3; elapsed_s = 0.0421 };
            Server.Wire.Error "parse error: ...";
            Server.Wire.Retryable "transient fault, retries exhausted";
            Server.Wire.Overloaded;
            Server.Wire.Cancelled "deadline exceeded";
            Server.Wire.Metrics_json "{}";
          ]);
    tc "request-ID frames round-trip; \\trace and \\top frames too" `Quick
      (fun () ->
        let q =
          Server.Wire.Query
            {
              request_id = "a3f09b1c77d2e845";
              deadline_ms = 250;
              domains = 4;
              sql = "SELECT R.ID FROM R";
            }
        in
        Alcotest.(check bool) "query with ID" true (roundtrip_request q = q);
        Alcotest.(check bool)
          "trace fetch" true
          (roundtrip_request (Server.Wire.Trace_get "a3f09b1c77d2e845")
          = Server.Wire.Trace_get "a3f09b1c77d2e845");
        Alcotest.(check bool)
          "top" true
          (roundtrip_request Server.Wire.Top = Server.Wire.Top);
        List.iter
          (fun reply ->
            Alcotest.(check bool)
              "telemetry reply" true
              (roundtrip_reply reply = reply))
          [
            Server.Wire.Trace_json None;
            Server.Wire.Trace_json (Some "{\"traceEvents\":[]}");
            Server.Wire.Top_text "fsqld top\n";
          ])
      ;
    tc "old client / new server: rev-1 query frames still decode" `Quick
      (fun () ->
        (* A rev-1 'Q' frame crafted byte by byte: tag, u32 deadline, u32
           domains, u32-length-prefixed SQL — no request ID field. *)
        let sql = "SELECT R.ID FROM R" in
        let payload = Buffer.create 64 in
        Buffer.add_char payload 'Q';
        let u32 n =
          Buffer.add_char payload (Char.chr ((n lsr 24) land 0xff));
          Buffer.add_char payload (Char.chr ((n lsr 16) land 0xff));
          Buffer.add_char payload (Char.chr ((n lsr 8) land 0xff));
          Buffer.add_char payload (Char.chr (n land 0xff))
        in
        u32 250;
        u32 4;
        u32 (String.length sql);
        Buffer.add_string payload sql;
        let frame = Buffer.create 64 in
        let n = Buffer.length payload in
        Buffer.add_char frame (Char.chr ((n lsr 24) land 0xff));
        Buffer.add_char frame (Char.chr ((n lsr 16) land 0xff));
        Buffer.add_char frame (Char.chr ((n lsr 8) land 0xff));
        Buffer.add_char frame (Char.chr (n land 0xff));
        Buffer.add_buffer frame payload;
        let raw = Buffer.contents frame in
        let r, w = Unix.pipe () in
        assert (
          Unix.write w (Bytes.of_string raw) 0 (String.length raw)
          = String.length raw);
        let got = Server.Wire.read_request (Server.Wire.reader r) in
        Alcotest.(check bool)
          "decodes with an empty request ID (server assigns)" true
          (got
          = Server.Wire.Query { request_id = ""; deadline_ms = 250; domains = 4; sql });
        (* new client / old server: the empty-ID encoding is byte-identical
           to that rev-1 frame, so an old server never sees a new tag *)
        Server.Wire.write_request w got;
        let echoed = Bytes.create (String.length raw) in
        let rec read_exact off len =
          if len > 0 then begin
            let k = Unix.read r echoed off len in
            assert (k > 0);
            read_exact (off + k) (len - k)
          end
        in
        read_exact 0 (String.length raw);
        Alcotest.(check string)
          "re-encoding is byte-identical to the rev-1 frame" raw
          (Bytes.to_string echoed);
        close_noerr w;
        close_noerr r);
    tc "oversized and empty frames are protocol errors" `Quick (fun () ->
        let r, w = Unix.pipe () in
        (* length header far above max_frame *)
        let hdr = Bytes.of_string "\xff\xff\xff\xff" in
        assert (Unix.write w hdr 0 4 = 4);
        (try
           ignore (Server.Wire.read_reply (Server.Wire.reader r));
           Alcotest.fail "expected Protocol_error"
         with Server.Wire.Protocol_error _ -> ());
        close_noerr w;
        close_noerr r);
    tc "EOF mid-stream raises Connection_closed, not a decode error" `Quick
      (fun () ->
        (* peer vanished before any frame *)
        let r, w = Unix.pipe () in
        Unix.close w;
        (try
           ignore (Server.Wire.read_reply (Server.Wire.reader r));
           Alcotest.fail "expected Connection_closed"
         with Server.Wire.Connection_closed -> ());
        close_noerr r;
        (* peer vanished after half a length header *)
        let r, w = Unix.pipe () in
        assert (Unix.write w (Bytes.of_string "\x00\x00") 0 2 = 2);
        Unix.close w;
        (try
           ignore (Server.Wire.read_reply (Server.Wire.reader r));
           Alcotest.fail "expected Connection_closed"
         with Server.Wire.Connection_closed -> ());
        close_noerr r;
        (* writing into a closed pipe surfaces the same way (EPIPE; ignore
           SIGPIPE first, as Daemon.start/Client.connect would) *)
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
         with Invalid_argument _ -> ());
        let r, w = Unix.pipe () in
        Unix.close r;
        (try
           Server.Wire.write_reply w Server.Wire.Overloaded;
           Alcotest.fail "expected Connection_closed"
         with Server.Wire.Connection_closed -> ());
        close_noerr w);
  ]

(* ------------------------------------------------------------------ *)
(* Bounded queue.                                                      *)

let queue_tests =
  [
    tc "try_push respects capacity; pop drains after close" `Quick (fun () ->
        let q = Server.Bounded_queue.create ~capacity:2 in
        Alcotest.(check bool) "push 1" true (Server.Bounded_queue.try_push q 1);
        Alcotest.(check bool) "push 2" true (Server.Bounded_queue.try_push q 2);
        Alcotest.(check bool) "full" false (Server.Bounded_queue.try_push q 3);
        Alcotest.(check int) "length" 2 (Server.Bounded_queue.length q);
        Server.Bounded_queue.close q;
        Alcotest.(check bool) "closed" false (Server.Bounded_queue.try_push q 4);
        Alcotest.(check (option int)) "drain 1" (Some 1) (Server.Bounded_queue.pop q);
        Alcotest.(check (option int)) "drain 2" (Some 2) (Server.Bounded_queue.pop q);
        Alcotest.(check (option int)) "end" None (Server.Bounded_queue.pop q));
    tc "pop blocks until push" `Quick (fun () ->
        let q = Server.Bounded_queue.create ~capacity:1 in
        let got = ref None in
        let th = Thread.create (fun () -> got := Server.Bounded_queue.pop q) () in
        Thread.delay 0.02;
        Alcotest.(check bool) "still blocked" true (!got = None);
        Alcotest.(check bool) "push" true (Server.Bounded_queue.try_push q 42);
        Thread.join th;
        Alcotest.(check (option int)) "received" (Some 42) !got);
  ]

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end.                                                  *)

(* Answers in normal form: rows sorted, degrees as IEEE-754 bits, values
   as their printed strings (what the wire carries). *)
let normal_of_relation rel =
  let arity = Schema.arity (Relation.schema rel) in
  let rows = ref [] in
  Relation.iter rel (fun t ->
      rows :=
        ( List.init arity (fun i -> Value.to_string (Ftuple.value t i)),
          Int64.bits_of_float (Ftuple.degree t) )
        :: !rows);
  List.sort compare !rows

let normal_of_reply name = function
  | Server.Client.Answer { rows; _ } ->
      List.sort compare
        (List.map
           (fun (r : Server.Client.row) ->
             (r.values, Int64.bits_of_float r.degree))
           rows)
  | Server.Client.Failed m -> Alcotest.failf "%s failed: %s" name m
  | Server.Client.Rejected { diagnostics; _ } ->
      Alcotest.failf "%s rejected: %s" name diagnostics
  | Server.Client.Retryable m -> Alcotest.failf "%s transient: %s" name m
  | Server.Client.Overloaded -> Alcotest.failf "%s overloaded" name
  | Server.Client.Cancelled r -> Alcotest.failf "%s cancelled: %s" name r

(* Every nesting shape of the paper over the demo R/S/T, including a
   correlated 3-block chain (same template as the equivalence suite). *)
let shapes =
  [
    ("N", "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V >= 20)");
    ("J", "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V <= R.U)");
    ( "JX",
      "SELECT R.ID FROM R WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V >= \
       R.U)" );
    ( "JA",
      "SELECT R.ID FROM R WHERE R.Y >= (SELECT MAX(S.Z) FROM S WHERE S.V = \
       R.U)" );
    ( "JALL",
      "SELECT R.ID FROM R WHERE R.Y <= ALL (SELECT S.Z FROM S WHERE S.V = \
       R.U)" );
    ( "chain",
      "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.Z IN \
       (SELECT T.W FROM T))" );
    ( "chain-corr",
      "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V <= R.U \
       AND S.Z IN (SELECT T.W FROM T WHERE T.P = S.V AND T.W >= R.Y))" );
  ]

let setup = Server.Demo.server_setup ~seed:11 ()

(* Sequential ground truth with the same loader and planner defaults the
   daemon uses. *)
let expected_answers () =
  let env = Storage.Env.create () in
  let catalog = Catalog.create env in
  setup env catalog;
  List.map
    (fun (name, sql) ->
      let q =
        Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql
      in
      (name, normal_of_relation (Unnest.Planner.run q)))
    shapes

(* The blocked nested loop over 2000x2000 tuples runs for seconds and
   polls its cancel token per inner tuple — the workhorse for the
   deadline / cancel / overload tests. *)
let slow_sql = "SELECT R.ID FROM R WHERE R.Y > SOME (SELECT S.Z FROM S WHERE S.V <= R.U)"
let slow_setup = Server.Demo.server_setup ~seed:3 ~n_r:2000 ~n_s:2000 ()

(* Every simulated disk operation of a worker sleeps 50 ms. The slow query
   performs a few dozen of them, so it runs for seconds instead of ~0.3 s
   and is provably still executing when a cancel sent a few client round
   trips after its admission arrives. *)
let stalled_disk =
  [
    {
      Storage.Fault.kind = Storage.Fault.Latency;
      trigger = Storage.Fault.Every 1;
      severity = Storage.Fault.Transient;
      delay_s = 0.05;
    };
  ]

let show_reply = function
  | None -> "no reply"
  | Some (Server.Client.Answer { rows; _ }) ->
      Printf.sprintf "Answer (%d rows)" (List.length rows)
  | Some (Server.Client.Failed m) -> "Failed: " ^ m
  | Some (Server.Client.Retryable m) -> "Retryable: " ^ m
  | Some Server.Client.Overloaded -> "Overloaded"
  | Some (Server.Client.Rejected { code; _ }) -> "Rejected " ^ code
  | Some (Server.Client.Cancelled m) -> "Cancelled: " ^ m

(* A rev-2 ['q'] query frame crafted byte by byte (tag, u32-length-prefixed
   request ID, u32 deadline, u32 domains, u32-length-prefixed SQL) and sent
   on a raw socket; returns the answer rows as (values, degree bits),
   sorted. *)
let raw_rev2_query ~port ~domains sql =
  let u32 buf n =
    Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (n land 0xff))
  in
  let payload = Buffer.create 128 in
  Buffer.add_char payload 'q';
  let request_id = Printf.sprintf "raw-domains-%d" domains in
  u32 payload (String.length request_id);
  Buffer.add_string payload request_id;
  u32 payload 0;
  u32 payload domains;
  u32 payload (String.length sql);
  Buffer.add_string payload sql;
  let frame = Buffer.create 128 in
  u32 frame (Buffer.length payload);
  Buffer.add_buffer frame payload;
  let raw = Buffer.to_bytes frame in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> close_noerr fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  assert (Unix.write fd raw 0 (Bytes.length raw) = Bytes.length raw);
  let rd = Server.Wire.reader fd in
  let rec read rows =
    match Server.Wire.read_reply rd with
    | Server.Wire.Header _ -> read rows
    | Server.Wire.Row { degree_bits; values } -> read ((values, degree_bits) :: rows)
    | Server.Wire.Done _ -> List.sort compare rows
    | _ -> Alcotest.failf "unexpected reply to the domains=%d frame" domains
  in
  read []

(* One gauge's value in a [Metrics.to_json] dump. *)
let gauge_value json name =
  let key = Printf.sprintf "\"%s\": " name in
  let nk = String.length key and nj = String.length json in
  let rec find i =
    if i + nk > nj then Alcotest.failf "no gauge %s in %s" name json
    else if String.sub json i nk = key then i + nk
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < nj && not (String.contains ",}" json.[!stop]) do
    incr stop
  done;
  float_of_string (String.sub json start (!stop - start))

let daemon_tests =
  [
    tc "concurrent clients match the sequential engine bit-for-bit" `Slow
      (fun () ->
        let expected = expected_answers () in
        let daemon = Server.Daemon.start ~workers:4 ~queue_capacity:32 ~setup () in
        let port = Server.Daemon.port daemon in
        let n_clients = 8 in
        let failures = Mutex.create () in
        let failed = ref [] in
        let client_run idx () =
          try
            let client = Server.Client.connect ~port () in
            (* stagger the shape order per client *)
            let rotated =
              let k = idx mod List.length shapes in
              let rec rot n l =
                if n = 0 then l
                else match l with [] -> [] | x :: tl -> rot (n - 1) (tl @ [ x ])
              in
              rot k shapes
            in
            List.iter
              (fun (name, sql) ->
                let got = normal_of_reply name (Server.Client.query client sql) in
                if got <> List.assoc name expected then
                  Alcotest.failf "client %d: %s diverged from sequential" idx
                    name)
              rotated;
            Server.Client.close client
          with e ->
            Mutex.lock failures;
            failed := Printexc.to_string e :: !failed;
            Mutex.unlock failures
        in
        let threads =
          List.init n_clients (fun i -> Thread.create (client_run i) ())
        in
        List.iter Thread.join threads;
        Server.Daemon.stop daemon;
        (match !failed with
        | [] -> ()
        | es -> Alcotest.failf "client failures: %s" (String.concat " | " es));
        Alcotest.(check int)
          "every query completed"
          (n_clients * List.length shapes)
          (Server.Daemon.counter_value daemon "requests_completed"));
    tc "deadline-exceeded returns Cancelled and frees the worker" `Slow
      (fun () ->
        let daemon =
          Server.Daemon.start ~workers:1 ~queue_capacity:4 ~setup:slow_setup ()
        in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        (match Server.Client.query ~deadline_ms:150 client slow_sql with
        | Server.Client.Cancelled reason ->
            Alcotest.(check bool)
              "reason mentions the deadline" true
              (contains reason "deadline")
        | _ -> Alcotest.fail "expected Cancelled");
        (* The worker must be free again: a fast query on the same
           connection completes. *)
        (match Server.Client.query client "SELECT T.ID FROM T WHERE T.W >= 0" with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "worker not freed after deadline cancel");
        Alcotest.(check int)
          "one cancelled" 1
          (Server.Daemon.counter_value daemon "requests_cancelled");
        Server.Client.close client;
        Server.Daemon.stop daemon);
    tc "queue overflow returns Overloaded; explicit cancel unwinds" `Slow
      (fun () ->
        let daemon =
          Server.Daemon.start ~workers:1 ~queue_capacity:1
            ~fault_spec:stalled_disk ~setup:slow_setup ()
        in
        let port = Server.Daemon.port daemon in
        let a = Server.Client.connect ~port () in
        let b = Server.Client.connect ~port () in
        let c = Server.Client.connect ~port () in
        let reply_a = ref None and reply_b = ref None in
        let th_a =
          Thread.create (fun () -> reply_a := Some (Server.Client.query a slow_sql)) ()
        in
        (* wait until A's query is on the worker (queue drained again) *)
        wait_for "A accepted" (fun () ->
            Server.Daemon.counter_value daemon "requests_accepted" >= 1
            && Server.Daemon.queue_length daemon = 0);
        let th_b =
          Thread.create (fun () -> reply_b := Some (Server.Client.query b slow_sql)) ()
        in
        wait_for "B queued" (fun () -> Server.Daemon.queue_length daemon = 1);
        (* worker busy with A, queue holds B: C must be rejected *)
        (match Server.Client.query c slow_sql with
        | Server.Client.Overloaded -> ()
        | _ -> Alcotest.fail "expected Overloaded");
        Alcotest.(check bool)
          "overload counted" true
          (Server.Daemon.counter_value daemon "requests_rejected_overload" >= 1);
        (* explicit cancels unwind both the running and the queued query *)
        Server.Client.cancel a;
        Server.Client.cancel b;
        Thread.join th_a;
        Thread.join th_b;
        (match (!reply_a, !reply_b) with
        | Some (Server.Client.Cancelled ra), Some (Server.Client.Cancelled rb) ->
            Alcotest.(check bool)
              "reasons mention the client" true
              (contains ra "client" && contains rb "client")
        | ra, rb ->
            Alcotest.failf "expected both slow queries cancelled; A: %s, B: %s"
              (show_reply ra) (show_reply rb));
        List.iter Server.Client.close [ a; b; c ];
        Server.Daemon.stop daemon);
    tc "every request produces a trace with queue-wait/plan/exec/emit" `Quick
      (fun () ->
        let traces = ref [] in
        let tlock = Mutex.create () in
        let daemon =
          Server.Daemon.start ~workers:1 ~setup
            ~on_trace:(fun tr ->
              Mutex.lock tlock;
              traces := tr :: !traces;
              Mutex.unlock tlock)
            ()
        in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        (match Server.Client.query client (List.assoc "J" shapes) with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "expected an answer");
        (* on_trace fires just after the terminal frame *)
        wait_for "trace delivery" (fun () ->
            Mutex.lock tlock;
            let n = List.length !traces in
            Mutex.unlock tlock;
            n >= 1);
        let tr = List.hd !traces in
        let names = ref [] in
        Storage.Trace.iter_spans tr (fun sp ->
            names := Storage.Trace.span_name sp :: !names);
        List.iter
          (fun required ->
            Alcotest.(check bool)
              (required ^ " span present")
              true
              (List.mem required !names))
          [ "request"; "queue-wait"; "plan"; "exec"; "emit" ];
        Alcotest.(check bool)
          "engine operator spans nest under exec" true
          (List.mem "sort" !names || List.mem "sweep" !names);
        Server.Client.close client;
        Server.Daemon.stop daemon);
    tc "metrics over the wire; per-daemon registries are isolated" `Quick
      (fun () ->
        let d1 = Server.Daemon.start ~workers:1 ~setup () in
        let d2 = Server.Daemon.start ~workers:1 ~setup () in
        let client = Server.Client.connect ~port:(Server.Daemon.port d1) () in
        (match Server.Client.query client (List.assoc "N" shapes) with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "expected an answer");
        let json = Server.Client.metrics_json client in
        Alcotest.(check bool)
          "d1 metrics show the request" true
          (contains json "requests_accepted");
        Alcotest.(check int)
          "d1 counted" 1
          (Server.Daemon.counter_value d1 "requests_accepted");
        Alcotest.(check int)
          "d2 untouched" 0
          (Server.Daemon.counter_value d2 "requests_accepted");
        Server.Client.close client;
        Server.Daemon.stop d1;
        Server.Daemon.stop d2);
    tc "statically invalid queries are rejected at admission" `Quick
      (fun () ->
        let daemon = Server.Daemon.start ~workers:2 ~queue_capacity:8 ~setup () in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        (* one good query so the books carry accepted traffic too *)
        (match Server.Client.query client (List.assoc "N" shapes) with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "expected an answer");
        (* semantic error: rejected with the analyzer's stable code *)
        (match Server.Client.query client "SELECT R.NOPE FROM R" with
        | Server.Client.Rejected { code; diagnostics } ->
            Alcotest.(check string) "code" "FSQL011" code;
            Alcotest.(check bool) "caret render" true
              (contains diagnostics "error[FSQL011]")
        | _ -> Alcotest.fail "expected Rejected for unknown attribute");
        (* parse error: same path, different code *)
        (match Server.Client.query client "SELECT FROM R" with
        | Server.Client.Rejected { code; _ } ->
            Alcotest.(check string) "code" "FSQL002" code
        | _ -> Alcotest.fail "expected Rejected for parse error");
        Server.Client.close client;
        Server.Daemon.stop daemon;
        let c name = Server.Daemon.counter_value daemon name in
        Alcotest.(check int) "rejections counted" 2 (c "requests_rejected_static");
        (* rejection happens before admission: the books still balance *)
        Alcotest.(check int) "accepted only the good query" 1
          (c "requests_accepted");
        Alcotest.(check int) "books balance"
          (c "requests_accepted")
          (c "requests_completed" + c "requests_cancelled"
         + c "requests_failed" + c "requests_failed_transient"));
    tc "start builds one environment per worker; a raising setup raises" `Quick
      (fun () ->
        List.iter
          (fun workers ->
            let builds = Atomic.make 0 in
            let make_env ~pool_pages =
              Atomic.incr builds;
              Storage.Env.create ~pool_pages ()
            in
            let daemon = Server.Daemon.start ~workers ~make_env ~setup () in
            let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
            (match Server.Client.query client "SELECT R.NOPE FROM R" with
            | Server.Client.Rejected { code = "FSQL011"; _ } -> ()
            | _ -> Alcotest.fail "expected Rejected FSQL011 at admission");
            (match Server.Client.query client (List.assoc "N" shapes) with
            | Server.Client.Answer _ -> ()
            | _ -> Alcotest.fail "expected an answer");
            Server.Client.close client;
            (* every worker builds its environment as it starts, while
               the daemon serves; none is left for [stop] *)
            wait_for ~timeout:5.0
              (Printf.sprintf "%d make_env calls" workers)
              (fun () -> Atomic.get builds >= workers);
            Alcotest.(check int)
              (Printf.sprintf "make_env calls, %d workers" workers)
              workers (Atomic.get builds);
            Server.Daemon.stop daemon;
            Alcotest.(check int) "no build in stop" workers (Atomic.get builds))
          [ 1; 2; 3 ];
        match
          Server.Daemon.start ~workers:2 ~setup:(fun _ _ -> failwith "no data") ()
        with
        | exception Failure m -> Alcotest.(check string) "setup's exception" "no data" m
        | daemon ->
            Server.Daemon.stop daemon;
            Alcotest.fail "start returned although setup raised");
    tc "graceful shutdown drains and is idempotent" `Quick (fun () ->
        let daemon = Server.Daemon.start ~workers:2 ~setup () in
        let port = Server.Daemon.port daemon in
        let client = Server.Client.connect ~port () in
        (match Server.Client.query client (List.assoc "N" shapes) with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "expected an answer");
        Server.Daemon.stop daemon;
        Server.Daemon.stop daemon;
        (* the listener is gone *)
        (match Server.Client.connect ~port () with
        | exception Unix.Unix_error _ -> ()
        | c ->
            (* a TIME_WAIT accept race can let one connect through, but no
               request may complete *)
            (match Server.Client.query c "SELECT T.ID FROM T" with
            | exception _ -> Server.Client.close c
            | Server.Client.Failed _ -> Server.Client.close c
            | _ -> Alcotest.fail "server answered after stop")));
    tc "a 5,000-row answer arrives whole and in order; cancel still works" `Slow
      (fun () ->
        (* About 120 KB of rows: the daemon flushes its buffer once it
           passes 64 KiB and sends the rest with [Done]. *)
        let big_setup = Server.Demo.server_setup ~seed:3 ~n_r:2000 ~n_s:2000 ~n_t:5000 () in
        let sql = "SELECT T.ID, T.W FROM T" in
        let expected =
          let env = Storage.Env.create () in
          let catalog = Catalog.create env in
          big_setup env catalog;
          let answer =
            Unnest.Planner.run
              (Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql)
          in
          let rows = ref [] in
          Relation.iter answer (fun t ->
              rows :=
                Server.Wire.Row
                  {
                    degree_bits = Int64.bits_of_float (Ftuple.degree t);
                    values = List.init 2 (fun i -> Value.to_string (Ftuple.value t i));
                  }
                :: !rows);
          List.rev !rows
        in
        Alcotest.(check int) "5,000 rows expected" 5000 (List.length expected);
        let daemon = Server.Daemon.start ~workers:1 ~setup:big_setup () in
        Fun.protect ~finally:(fun () -> Server.Daemon.stop daemon) @@ fun () ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> close_noerr fd) @@ fun () ->
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.Daemon.port daemon));
        let rd = Server.Wire.reader fd in
        let query sql =
          Server.Wire.write_request fd
            (Server.Wire.Query { request_id = ""; deadline_ms = 0; domains = 0; sql })
        in
        (* every frame up to and including the terminal one *)
        let rec frames acc =
          match Server.Wire.read_reply rd with
          | (Server.Wire.Header _ | Server.Wire.Row _) as f -> frames (f :: acc)
          | f -> List.rev (f :: acc)
        in
        query sql;
        (match frames [] with
        | Server.Wire.Header cols :: rest ->
            Alcotest.(check (list string)) "header" [ "T.ID"; "T.W" ] cols;
            let rows = List.filteri (fun i _ -> i < List.length rest - 1) rest in
            Alcotest.(check int) "every row" 5000 (List.length rows);
            Alcotest.(check bool) "rows in order, degree bits exact" true
              (rows = expected);
            (match List.nth rest (List.length rest - 1) with
            | Server.Wire.Done { rows = 5000; _ } -> ()
            | _ -> Alcotest.fail "expected Done { rows = 5000 } last")
        | _ -> Alcotest.fail "expected the header first");
        (* Mid-query cancel on the same connection: the nested loop runs
           for seconds, so it is still executing when the cancel lands. *)
        query slow_sql;
        Thread.delay 0.05;
        Server.Wire.write_request fd Server.Wire.Cancel;
        (match frames [] with
        | [ Server.Wire.Cancelled reason ] ->
            Alcotest.(check bool) "cancelled by the client" true
              (contains reason "client")
        | fs -> Alcotest.failf "expected one Cancelled frame, got %d frames" (List.length fs));
        (* and the connection still serves a whole answer *)
        query sql;
        Alcotest.(check int) "header + rows + Done" 5002 (List.length (frames [])));
    tc "a rev-2 frame's domains field does not change the answer" `Quick
      (fun () ->
        let daemon = Server.Daemon.start ~workers:1 ~setup () in
        Fun.protect ~finally:(fun () -> Server.Daemon.stop daemon) @@ fun () ->
        let port = Server.Daemon.port daemon in
        List.iter
          (fun name ->
            let sql = List.assoc name shapes in
            let zero = raw_rev2_query ~port ~domains:0 sql in
            let four = raw_rev2_query ~port ~domains:4 sql in
            Alcotest.(check bool) (name ^ ": answer is not empty") true (zero <> []);
            Alcotest.(check bool)
              (name ^ ": same rows and degree bits at domains 0 and 4")
              true (zero = four))
          [ "J"; "chain" ]);
    tc "a malformed fuzzy literal is Rejected and the connection serves on" `Quick
      (fun () ->
        let daemon = Server.Daemon.start ~workers:1 ~setup () in
        Fun.protect ~finally:(fun () -> Server.Daemon.stop daemon) @@ fun () ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> close_noerr fd) @@ fun () ->
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.Daemon.port daemon));
        let rd = Server.Wire.reader fd in
        let query sql =
          Server.Wire.write_request fd
            (Server.Wire.Query { request_id = ""; deadline_ms = 0; domains = 0; sql });
          let rec frames acc =
            match Server.Wire.read_reply rd with
            | (Server.Wire.Header _ | Server.Wire.Row _) as f -> frames (f :: acc)
            | f -> (f, List.length acc)
          in
          frames []
        in
        let good = List.assoc "N" shapes in
        let want_rows =
          match query good with
          | Server.Wire.Done { rows; _ }, _ -> rows
          | _ -> Alcotest.fail "expected Done for the good query"
        in
        List.iter
          (fun lit ->
            (match query ("SELECT R.ID FROM R WHERE R.Y = " ^ lit) with
            | Server.Wire.Rejected { code; diagnostics }, 0 ->
                Alcotest.(check string) (lit ^ ": code") "FSQL028" code;
                Alcotest.(check bool) (lit ^ ": caret render") true
                  (contains diagnostics "error[FSQL028]")
            | _ -> Alcotest.failf "%s: expected one Rejected frame" lit);
            match query good with
            | Server.Wire.Done { rows; _ }, n ->
                Alcotest.(check int) (lit ^ ": then a whole answer") want_rows rows;
                Alcotest.(check int) (lit ^ ": header + rows") (rows + 1) n
            | _ -> Alcotest.failf "%s: the connection stopped serving" lit)
          [ "TRAP(1,2,30, 2)"; "DIST(1:0.0)" ];
        Alcotest.(check int) "rejected statically" 2
          (Server.Daemon.counter_value daemon "requests_rejected_static");
        Alcotest.(check int) "no connection error" 0
          (Server.Daemon.counter_value daemon "connection_errors"));
    tc "start runs every worker it is asked for, on any host" `Quick
      (fun () ->
        (* one worker more than the host's recommended domain count: a
           core cap would leave the last worker to run only in [stop] *)
        let workers = min (Domain.recommended_domain_count () + 1) 8 in
        let builds = Atomic.make 0 in
        let make_env ~pool_pages =
          Atomic.incr builds;
          Storage.Env.create ~pool_pages ()
        in
        let daemon = Server.Daemon.start ~workers ~make_env ~setup () in
        Fun.protect ~finally:(fun () -> Server.Daemon.stop daemon) (fun () ->
            wait_for ~timeout:5.0
              (Printf.sprintf "%d make_env calls" workers)
              (fun () -> Atomic.get builds >= workers);
            Alcotest.(check int) "one build per worker" workers (Atomic.get builds);
            Alcotest.(check int) "Daemon.workers" workers
              (Server.Daemon.workers daemon));
        match Server.Daemon.start ~workers:0 ~setup () with
        | exception Invalid_argument _ -> ()
        | daemon ->
            Server.Daemon.stop daemon;
            Alcotest.fail "start accepted ~workers:0");
    tc "every worker runs a query at once, more workers than cores included"
      `Slow (fun () ->
        let workers = min (Domain.recommended_domain_count () + 1) 8 in
        let daemon =
          Server.Daemon.start ~workers ~queue_capacity:workers
            ~fault_spec:stalled_disk ~setup:slow_setup ()
        in
        let port = Server.Daemon.port daemon in
        let clients = List.init workers (fun _ -> Server.Client.connect ~port ()) in
        let threads =
          List.map
            (fun c -> Thread.create (fun () -> ignore (Server.Client.query c slow_sql)) ())
            clients
        in
        let busy () =
          gauge_value (Server.Daemon.metrics_json daemon) "busy_workers"
        in
        Fun.protect
          ~finally:(fun () ->
            List.iter Server.Client.cancel clients;
            List.iter Thread.join threads;
            List.iter Server.Client.close clients;
            Server.Daemon.stop daemon)
          (fun () ->
            wait_for ~timeout:5.0
              (Printf.sprintf "%d busy workers" workers)
              (fun () -> busy () = float_of_int workers)));
    tc "finished connections leave the daemon; the connections gauge reads 0"
      `Quick (fun () ->
        let daemon = Server.Daemon.start ~workers:2 ~setup () in
        let port = Server.Daemon.port daemon in
        let connections () =
          gauge_value (Server.Daemon.metrics_json daemon) "connections"
        in
        let cycle () =
          let client = Server.Client.connect ~port () in
          (match Server.Client.query client (List.assoc "N" shapes) with
          | Server.Client.Answer _ -> ()
          | _ -> Alcotest.fail "expected an answer");
          client
        in
        let open_client = cycle () in
        Alcotest.(check (float 0.0)) "one live connection" 1.0 (connections ());
        Server.Client.close open_client;
        for _ = 1 to 50 do
          Server.Client.close (cycle ())
        done;
        wait_for ~timeout:5.0 "the connections gauge to read 0" (fun () ->
            connections () = 0.0);
        Server.Daemon.stop daemon);
    tc "stalled peers declaring 64 MB frames do not grow the daemon's heap"
      `Quick (fun () ->
        let daemon = Server.Daemon.start ~workers:1 ~setup () in
        let port = Server.Daemon.port daemon in
        let heap_mb () =
          float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))
          /. 1048576.0
        in
        let before = heap_mb () in
        (* Each peer sends a length prefix of max_frame (64 MB), then
           nothing: its connection thread waits for the payload. *)
        let peers =
          List.init 8 (fun _ ->
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              assert (Unix.write_substring fd "\x04\x00\x00\x00" 0 4 = 4);
              fd)
        in
        wait_for ~timeout:5.0 "8 connections" (fun () ->
            gauge_value (Server.Daemon.metrics_json daemon) "connections" = 8.0);
        (* time for every connection thread to read its prefix *)
        Thread.delay 0.3;
        let grown = heap_mb () -. before in
        Alcotest.(check bool)
          (Printf.sprintf "major heap grew %.1f MB, under 1 MB per connection" grown)
          true (grown < 8.0);
        let client = Server.Client.connect ~port () in
        (match Server.Client.query client (List.assoc "N" shapes) with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "expected an answer beside the stalled peers");
        Server.Client.close client;
        List.iter close_noerr peers;
        Server.Daemon.stop daemon);
  ]

(* ------------------------------------------------------------------ *)
(* Buffered framing: the output buffer and the frame reader.           *)

(* Every reply tag, a frame past the reader's 8 KiB buffer among them. *)
let sample_replies =
  [
    Server.Wire.Header [ "NAME"; "AGE" ];
    Server.Wire.Row
      { degree_bits = Int64.bits_of_float 0.7000000000000001; values = [ "\"Ann\""; "35" ] };
    Server.Wire.Row { degree_bits = 0L; values = [] };
    Server.Wire.Done { rows = 2; elapsed_s = 0.0421 };
    Server.Wire.Error "parse error: ...";
    Server.Wire.Retryable "transient fault";
    Server.Wire.Overloaded;
    Server.Wire.Rejected { code = "FSQL002"; diagnostics = "error[FSQL002]" };
    Server.Wire.Cancelled "deadline exceeded";
    Server.Wire.Metrics_json (String.make 20_000 'm');
    Server.Wire.Trace_json None;
    Server.Wire.Trace_json (Some "{}");
    Server.Wire.Top_text "fsqld top\n";
    Server.Wire.Rep_hello
      { epoch = 2; stream_id = 7L; page_size = 8192; snapshot = true; start_lsn = 16;
        data_len = 4096 };
    Server.Wire.Rep_chunk { kind = Server.Wire.Wal_chunk; off = 3; data = "abc" };
    Server.Wire.Rep_wal { epoch = 2; start_lsn = 16; primary_end = 99; data = "" };
    Server.Wire.Rep_fence { epoch = 3 };
    Server.Wire.Promoted { epoch = 4 };
  ]

(* Everything [write] puts into a fresh socketpair, read back whole by a
   second thread (a socket buffer holds less than a big frame). *)
let bytes_written write =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let out = Buffer.create 4096 in
  let drain =
    Thread.create
      (fun () ->
        let b = Bytes.create 65536 in
        let rec go () =
          match Unix.read r b 0 65536 with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes out b 0 n;
              go ()
        in
        go ())
      ()
  in
  write w;
  Unix.shutdown w Unix.SHUTDOWN_SEND;
  Thread.join drain;
  close_noerr w;
  close_noerr r;
  Buffer.contents out

(* Decode every reply frame in [raw], fed to a reader through a
   socketpair [chunk] bytes per write by a second thread. *)
let replies_fed ~chunk raw n =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let feeder =
    Thread.create
      (fun () ->
        let b = Bytes.of_string raw in
        let rec go off =
          if off < Bytes.length b then begin
            let k = min chunk (Bytes.length b - off) in
            let k = Unix.write w b off k in
            go (off + k)
          end
        in
        go 0;
        Unix.shutdown w Unix.SHUTDOWN_SEND)
      ()
  in
  let rd = Server.Wire.reader r in
  let got = List.init n (fun _ -> Server.Wire.read_reply rd) in
  let eof =
    match Server.Wire.read_reply rd with
    | _ -> false
    | exception Server.Wire.Connection_closed -> true
  in
  Thread.join feeder;
  close_noerr w;
  close_noerr r;
  (got, eof)

let framing_tests =
  [
    tc "a coalesced reply sequence is the concatenation of per-frame writes"
      `Quick (fun () ->
        let coalesced =
          bytes_written (fun fd ->
              let w = Server.Wire.writer () in
              List.iter (Server.Wire.add_reply w) sample_replies;
              Server.Wire.flush w fd;
              Alcotest.(check int) "flush empties the buffer" 0
                (Server.Wire.pending w))
        in
        let per_frame =
          bytes_written (fun fd -> List.iter (Server.Wire.write_reply fd) sample_replies)
        in
        Alcotest.(check int) "same length" (String.length per_frame)
          (String.length coalesced);
        Alcotest.(check bool) "byte for byte" true (coalesced = per_frame);
        (* an encoder that raises leaves no partial frame behind *)
        let w = Server.Wire.writer () in
        Server.Wire.add_reply w Server.Wire.Overloaded;
        (match Server.Wire.add_reply w (Server.Wire.Done { rows = -1; elapsed_s = 0. }) with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
        Alcotest.(check int) "only the first frame is buffered" 5
          (Server.Wire.pending w));
    tc "frames decode the same fed 1 byte per write and many per read" `Quick
      (fun () ->
        (* past the sample, ~20 KB of small frames: frames straddle the
           reader's buffer end many times over *)
        let stream =
          sample_replies
          @ List.init 1000 (fun i ->
                Server.Wire.Row { degree_bits = Int64.of_int i; values = [ string_of_int i ] })
        in
        let raw =
          bytes_written (fun fd -> List.iter (Server.Wire.write_reply fd) stream)
        in
        let n = List.length stream in
        List.iter
          (fun chunk ->
            let got, eof = replies_fed ~chunk raw n in
            Alcotest.(check bool)
              (Printf.sprintf "%d-byte writes: every frame decodes" chunk)
              true (got = stream);
            Alcotest.(check bool)
              (Printf.sprintf "%d-byte writes: EOF after the last frame" chunk)
              true eof)
          [ 1; 3; 4096; String.length raw ];
        (* EOF inside a frame's payload, not just its header *)
        let cut = String.sub raw 0 (String.length raw - 1) in
        match replies_fed ~chunk:4096 cut (n - 1) with
        | _, true -> ()
        | _, false -> Alcotest.fail "a truncated last frame must not decode");
    tc "a 1 MiB Rep_chunk frame decodes" `Quick (fun () ->
        let data = String.init (1 lsl 20) (fun i -> Char.chr (i * 7 land 0xff)) in
        let big = Server.Wire.Rep_chunk { kind = Server.Wire.Data_chunk; off = 8192; data } in
        let seq = [ Server.Wire.Overloaded; big; Server.Wire.Promoted { epoch = 1 } ] in
        let raw = bytes_written (fun fd -> List.iter (Server.Wire.write_reply fd) seq) in
        let got, eof = replies_fed ~chunk:65536 raw 3 in
        Alcotest.(check bool) "small, 1 MiB, small" true (got = seq);
        Alcotest.(check bool) "then EOF" true eof);
    tc "an oversized length raises Protocol_error before allocating" `Quick
      (fun () ->
        List.iter
          (fun hdr ->
            let r, w = Unix.pipe () in
            let rd = Server.Wire.reader r in
            assert (Unix.write_substring w hdr 0 4 = 4);
            let before = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
            (match Server.Wire.read_reply rd with
            | _ -> Alcotest.fail "expected Protocol_error"
            | exception Server.Wire.Protocol_error _ -> ());
            let after = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
            (* a few words for the exception and the counters themselves;
               the frame would have been 8 M words *)
            Alcotest.(check bool)
              (Printf.sprintf "allocated %.0f words" (after -. before))
              true
              (after -. before < 256.);
            close_noerr w;
            close_noerr r)
          [ "\xff\xff\xff\xff"; "\x04\x00\x00\x01" (* max_frame + 1 *) ]);
  ]

(* Every data socket runs without Nagle: a small reply frame would
   otherwise wait for the peer's delayed ACK. *)
let nodelay_tests =
  [
    tc "Client.connect and Wire.set_nodelay set TCP_NODELAY" `Quick
      (fun () ->
        let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> close_noerr lfd) @@ fun () ->
        Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen lfd 1;
        let port =
          match Unix.getsockname lfd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> Alcotest.fail "not an inet socket"
        in
        let c = Server.Client.connect ~port () in
        Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
        Alcotest.(check bool) "client socket" true
          (Unix.getsockopt (Server.Client.fd c) Unix.TCP_NODELAY);
        let afd, _ = Unix.accept lfd in
        Fun.protect ~finally:(fun () -> close_noerr afd) @@ fun () ->
        Alcotest.(check bool) "accepted socket starts with Nagle on" false
          (Unix.getsockopt afd Unix.TCP_NODELAY);
        Server.Wire.set_nodelay afd;
        Alcotest.(check bool) "accepted socket after the helper" true
          (Unix.getsockopt afd Unix.TCP_NODELAY));
  ]

(* ------------------------------------------------------------------ *)
(* Fuzzing the decoders: bytes from a peer fail only with a typed error. *)

(* One valid request of every constructor, both query tags included. *)
let sample_requests =
  [
    Server.Wire.Query { request_id = ""; deadline_ms = 0; domains = 0; sql = "SELECT T.ID FROM T" };
    Server.Wire.Query
      { request_id = "req-1"; deadline_ms = 250; domains = 4; sql = "SELECT R.ID FROM R" };
    Server.Wire.Cancel;
    Server.Wire.Metrics;
    Server.Wire.Trace_get "req-1";
    Server.Wire.Top;
    Server.Wire.Rep_subscribe { epoch = 2; stream_id = 7L; from_lsn = 4096 };
    Server.Wire.Rep_ack { epoch = 2; applied_lsn = 8192 };
    Server.Wire.Promote;
  ]

(* 1-5 changed bytes, a cut tail, or a rewritten length prefix. *)
let mutate rng raw =
  let n = String.length raw in
  let b = Bytes.of_string raw in
  match Random.State.int rng 3 with
  | 0 ->
      for _ = 1 to 1 + Random.State.int rng 5 do
        let i = Random.State.int rng n in
        Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 + Random.State.int rng 255))
      done;
      Bytes.to_string b
  | 1 -> String.sub raw 0 (Random.State.int rng n)
  | _ ->
      let len = n - 4 in
      let lens =
        [| 0; 1; len - 1; len + 1; 2 * len; 8193; Server.Wire.max_frame + 1;
           0xFFFF_FFFF; Random.State.int rng ((2 * len) + 16) |]
      in
      Bytes.set_int32_be b 0
        (Int32.of_int lens.(Random.State.int rng (Array.length lens)));
      Bytes.to_string b

(* Decode frames from [raw], then EOF, through a fresh reader until the
   first exception; [Some e] when it is not one of the wire's own. *)
let decode_until_error read raw =
  let r, w = Unix.pipe () in
  Fun.protect ~finally:(fun () -> close_noerr r) @@ fun () ->
  let n = String.length raw in
  assert (Unix.write_substring w raw 0 n = n);
  close_noerr w;
  let rd = Server.Wire.reader r in
  let rec go () : exn option =
    ignore (read rd);
    go ()
  in
  try go () with
  | Server.Wire.Protocol_error _ | Server.Wire.Connection_closed -> None
  | e -> Some e

let fuzz_tests =
  [
    tc "20,000 mutated frames: the decoders raise only their typed errors"
      `Quick (fun () ->
        let encodings =
          Array.of_list
            (List.map
               (fun q ->
                 ( "request",
                   (fun rd -> ignore (Server.Wire.read_request rd)),
                   bytes_written (fun fd -> Server.Wire.write_request fd q) ))
               sample_requests
            @ List.map
                (fun r ->
                  ( "reply",
                    (fun rd -> ignore (Server.Wire.read_reply rd)),
                    bytes_written (fun fd -> Server.Wire.write_reply fd r) ))
                sample_replies)
        in
        let rng = Random.State.make [| 0xF022 |] in
        for i = 1 to 20_000 do
          let what, read, raw =
            encodings.(Random.State.int rng (Array.length encodings))
          in
          let m = mutate rng raw in
          match decode_until_error read m with
          | None -> ()
          | Some e ->
              Alcotest.failf "mutant %d of a %s frame raised %s: %S" i what
                (Printexc.to_string e)
                (if String.length m > 64 then String.sub m 0 64 else m)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* The listener: every connection on its own thread, so an idle       *)
(* client holds up neither another client nor a stop.                 *)

let listener_tests =
  [
    tc "an idle client blocks no query, no scrape and no stop" `Quick
      (fun () ->
        let daemon = Server.Daemon.start ~workers:1 ~metrics_port:0 ~setup () in
        let port = Server.Daemon.port daemon in
        let mport = Option.get (Server.Daemon.metrics_port daemon) in
        let idle = [ Test_util.idle_connect port; Test_util.idle_connect mport ] in
        let closed = ref false in
        let unblock () =
          if not !closed then begin
            closed := true;
            List.iter close_noerr idle
          end
        in
        Fun.protect
          ~finally:(fun () ->
            unblock ();
            Server.Daemon.stop daemon)
          (fun () ->
            let name, sql = List.hd shapes in
            Test_util.within ~unblock "a query beside idle clients" (fun () ->
                let client = Server.Client.connect ~port () in
                Fun.protect
                  ~finally:(fun () -> Server.Client.close client)
                  (fun () ->
                    ignore (normal_of_reply name (Server.Client.query client sql))));
            let status, _ =
              Test_util.within ~unblock "a scrape beside idle clients" (fun () ->
                  Server.Telemetry.Http.get ~port:mport "/healthz")
            in
            Alcotest.(check int) "healthz answered" 200 status;
            Test_util.within ~unblock "Daemon.stop beside idle clients" (fun () ->
                Server.Daemon.stop daemon)));
    tc "stop_accepting keeps live connections; close_connections ends them"
      `Quick (fun () ->
        (* An echo handler: one byte back for each byte in, until EOF. *)
        let echo fd =
          let b = Bytes.create 1 in
          let rec go () =
            match Unix.read fd b 0 1 with
            | 1 when Unix.write fd b 0 1 = 1 -> go ()
            | _ | (exception Unix.Unix_error _) -> ()
          in
          go ()
        in
        let l = Server.Listener.bind ~port:0 () in
        Server.Listener.serve l echo;
        let port = Server.Listener.port l in
        let client = Test_util.idle_connect port in
        let unblock () =
          (try Unix.shutdown client Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
          Server.Listener.stop l
        in
        Fun.protect
          ~finally:(fun () ->
            unblock ();
            close_noerr client)
          (fun () ->
            let round c =
              Test_util.within ~unblock (Printf.sprintf "echo of %C" c) (fun () ->
                  ignore (Unix.write_substring client (String.make 1 c) 0 1);
                  let b = Bytes.create 1 in
                  match Unix.read client b 0 1 with
                  | 1 -> Bytes.get b 0
                  | _ -> Alcotest.fail "connection closed")
            in
            Alcotest.(check char) "echo before stop" 'a' (round 'a');
            Alcotest.(check int) "one live connection" 1
              (Server.Listener.connections l);
            Test_util.within ~unblock "stop_accepting" (fun () ->
                Server.Listener.stop_accepting l);
            Alcotest.(check char) "echo after stop_accepting" 'b' (round 'b');
            Alcotest.(check bool) "new connections refused" true
              (match Test_util.idle_connect port with
              | fd ->
                  close_noerr fd;
                  false
              | exception Unix.Unix_error (ECONNREFUSED, _, _) -> true);
            Test_util.within ~unblock "close_connections" (fun () ->
                Server.Listener.close_connections l);
            Alcotest.(check int) "no live connection" 0
              (Server.Listener.connections l);
            let eof =
              Test_util.within ~unblock "EOF after close_connections" (fun () ->
                  match Unix.read client (Bytes.create 1) 0 1 with
                  | n -> n = 0
                  | exception Unix.Unix_error _ -> true)
            in
            Alcotest.(check bool) "client sees the connection end" true eof));
    tc "a handler's return closes its connection" `Quick (fun () ->
        let l = Server.Listener.bind ~port:0 () in
        let served = Atomic.make 0 in
        Server.Listener.serve l (fun _ -> Atomic.incr served);
        let clients = List.init 3 (fun _ -> Test_util.idle_connect (Server.Listener.port l)) in
        let unblock () = Server.Listener.stop l in
        Fun.protect
          ~finally:(fun () ->
            unblock ();
            List.iter close_noerr clients)
          (fun () ->
            List.iter
              (fun fd ->
                let n =
                  Test_util.within ~unblock "EOF from a finished handler"
                    (fun () -> Unix.read fd (Bytes.create 1) 0 1)
                in
                Alcotest.(check int) "EOF" 0 n)
              clients;
            wait_for "the registry to empty" (fun () ->
                Server.Listener.connections l = 0);
            Alcotest.(check int) "every connection served" 3 (Atomic.get served)));
    tc "bind reports a port that is already listening" `Quick (fun () ->
        let l = Server.Listener.bind ~port:0 () in
        Fun.protect
          ~finally:(fun () -> Server.Listener.stop l)
          (fun () ->
            Alcotest.(check bool) "EADDRINUSE" true
              (match Server.Listener.bind ~port:(Server.Listener.port l) () with
              | l2 ->
                  Server.Listener.stop l2;
                  false
              | exception Unix.Unix_error (EADDRINUSE, _, _) -> true);
            Alcotest.(check bool) "dotted address resolves" true
              (Server.Listener.resolve "127.0.0.1" = Unix.inet_addr_loopback)));
  ]

let suites =
  [
    ("server wire", wire_tests @ framing_tests @ nodelay_tests @ fuzz_tests);
    ("server queue", queue_tests);
    ("server daemon", daemon_tests);
    ("server listener", listener_tests);
  ]

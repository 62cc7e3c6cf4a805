(** Tests for the telemetry spine (PR 7): request IDs and the trace
    ring, SQL shape normalization, the rotating query log, Prometheus /
    [\top] rendering, the metrics HTTP listener, quantile edge cases on
    plain and sliding-window histograms (qcheck: window quantiles agree
    with lifetime quantiles while everything is in-window, and expiry
    really drops old observations), and the daemon wired end-to-end —
    request IDs on the wire, [\trace] fetch, the deadline/client split of
    the cancelled counter, and query-log/trace-ring agreement. *)

open Frepro

let tc = Alcotest.test_case

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in %S" what needle hay

(* ------------------------------------------------------------------ *)
(* Request IDs and the trace ring.                                     *)

let ring_tests =
  [
    tc "request IDs are 16 hex chars and distinct" `Quick (fun () ->
        let rng = Random.State.make [| 7 |] in
        let ids = List.init 100 (fun _ -> Server.Telemetry.gen_request_id rng) in
        List.iter
          (fun id ->
            Alcotest.(check int) "length" 16 (String.length id);
            String.iter
              (fun c ->
                if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then
                  Alcotest.failf "non-hex char %C in %s" c id)
              id)
          ids;
        Alcotest.(check int)
          "no duplicates in 100 draws" 100
          (List.length (List.sort_uniq compare ids)));
    tc "ring stores, finds, and evicts in completion order" `Quick (fun () ->
        let r = Server.Telemetry.Ring.create 3 in
        Alcotest.(check int) "capacity" 3 (Server.Telemetry.Ring.capacity r);
        Alcotest.(check (option string)) "miss on empty" None
          (Server.Telemetry.Ring.find r "nope");
        List.iter
          (fun i ->
            Server.Telemetry.Ring.add r
              ~id:(Printf.sprintf "id-%d" i)
              ~json:(Printf.sprintf "{\"n\":%d}" i))
          [ 1; 2; 3 ];
        Alcotest.(check (option string)) "find 1" (Some "{\"n\":1}")
          (Server.Telemetry.Ring.find r "id-1");
        (* a 4th insert overwrites the oldest *)
        Server.Telemetry.Ring.add r ~id:"id-4" ~json:"{\"n\":4}";
        Alcotest.(check (option string)) "1 evicted" None
          (Server.Telemetry.Ring.find r "id-1");
        Alcotest.(check (option string)) "2 live" (Some "{\"n\":2}")
          (Server.Telemetry.Ring.find r "id-2");
        Alcotest.(check (option string)) "4 live" (Some "{\"n\":4}")
          (Server.Telemetry.Ring.find r "id-4");
        Alcotest.(check (list string)) "ids oldest first"
          [ "id-2"; "id-3"; "id-4" ]
          (Server.Telemetry.Ring.ids r);
        Alcotest.(check int) "length" 3 (Server.Telemetry.Ring.length r);
        Alcotest.(check int) "stored counts lifetime inserts" 4
          (Server.Telemetry.Ring.stored r));
    tc "a reused ID resolves to its most recent trace" `Quick (fun () ->
        let r = Server.Telemetry.Ring.create 4 in
        Server.Telemetry.Ring.add r ~id:"dup" ~json:"old";
        Server.Telemetry.Ring.add r ~id:"other" ~json:"x";
        Server.Telemetry.Ring.add r ~id:"dup" ~json:"new";
        Alcotest.(check (option string)) "latest wins" (Some "new")
          (Server.Telemetry.Ring.find r "dup"));
  ]

(* ------------------------------------------------------------------ *)
(* SQL shape normalization.                                            *)

let normalize_tests =
  [
    tc "literals become ?, whitespace collapses" `Quick (fun () ->
        let n = Server.Telemetry.normalize_sql in
        Alcotest.(check string) "numbers"
          "SELECT R.ID FROM R WHERE R.X >= ?"
          (n "SELECT R.ID  FROM R\n WHERE R.X >= 42");
        Alcotest.(check string) "strings"
          "SELECT R.ID FROM R WHERE R.NAME = ?"
          (n "SELECT R.ID FROM R WHERE R.NAME = 'Ann'");
        Alcotest.(check string) "escaped quote stays one literal"
          "SELECT R.ID FROM R WHERE R.NAME = ?"
          (n "SELECT R.ID FROM R WHERE R.NAME = 'O''Brien'");
        Alcotest.(check string) "floats"
          "SELECT R.ID FROM R WHERE R.X <= ?" (n "SELECT R.ID FROM R WHERE R.X <= 3.5"));
    tc "digits inside identifiers survive" `Quick (fun () ->
        Alcotest.(check string) "R2 is a name, 2 is a literal"
          "SELECT R2.ID FROM R2 WHERE R2.X = ?"
          (Server.Telemetry.normalize_sql "SELECT R2.ID FROM R2 WHERE R2.X = 2"));
    tc "identical shapes normalize identically" `Quick (fun () ->
        let a =
          Server.Telemetry.normalize_sql
            "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V >= 20)"
        and b =
          Server.Telemetry.normalize_sql
            "SELECT R.ID FROM R   WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V >= \
             99)"
        in
        Alcotest.(check string) "same shape" a b);
    tc "token-stream rebase: canonical keyword case" `Quick (fun () ->
        Alcotest.(check string) "keywords uppercase, identifiers keep case"
          "SELECT r.id FROM r WHERE r.x >= ?"
          (Server.Telemetry.normalize_sql "select r.id from r where r.x >= 42");
        Alcotest.(check bool) "identifier case preserved" true
          (String.length
             (Server.Telemetry.normalize_sql "select MixedCase.ID from MixedCase")
          > 0
          &&
          Server.Telemetry.normalize_sql "select MixedCase.ID from MixedCase"
          = "SELECT MixedCase.ID FROM MixedCase"));
    tc "token-stream rebase: comments are dropped" `Quick (fun () ->
        Alcotest.(check string) "line comment vanishes"
          "SELECT R.ID FROM R WHERE R.X = ?"
          (Server.Telemetry.normalize_sql
             "SELECT R.ID -- project the key\nFROM R WHERE R.X = 7"));
    tc "token-stream rebase: paren and comma spacing" `Quick (fun () ->
        Alcotest.(check string) "subquery shape"
          "SELECT R.ID, R.Y FROM R WHERE R.Y IN (SELECT S.Z FROM S)"
          (Server.Telemetry.normalize_sql
             "SELECT R.ID,R.Y FROM R WHERE R.Y IN ( SELECT S.Z FROM S )"));
    tc "lexer-refused statements fall back to the char scrub" `Quick
      (fun () ->
        let n = Server.Telemetry.normalize_sql in
        (* unterminated string: still scrubbed, never raises *)
        let s = n "SELECT R.ID FROM R WHERE R.NAME = 'oops" in
        Alcotest.(check bool) "literal text scrubbed" true
          (not
             (let rec has i =
                i + 4 <= String.length s
                && (String.sub s i 4 = "oops" || has (i + 1))
              in
              has 0)));
  ]

(* ------------------------------------------------------------------ *)
(* Query log: records, slow threshold, rotation.                       *)

let mk_record ?(exec_s = 0.01) ?(id = "abc") () =
  {
    Server.Telemetry.Query_log.ts = 1700000000.0;
    request_id = id;
    shape = "SELECT R.ID FROM R WHERE R.X >= ?";
    queue_wait_s = 0.001;
    exec_s;
    page_reads = 12;
    page_writes = 3;
    comparisons = 400;
    fuzzy_ops = 40;
    rows = 7;
    retries = 1;
    outcome = "ok";
  }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_temp_log f =
  let path = Filename.temp_file "fsql_test_qlog" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".1") with Sys_error _ -> ())
    (fun () -> f path)

let query_log_tests =
  [
    tc "one JSONL record per request, flushed, with every field" `Quick
      (fun () ->
        with_temp_log (fun path ->
            let log = Server.Telemetry.Query_log.create path in
            Server.Telemetry.Query_log.log log (mk_record ~id:"req-1" ());
            Server.Telemetry.Query_log.log log (mk_record ~id:"req-2" ());
            Alcotest.(check int) "written" 2
              (Server.Telemetry.Query_log.written log);
            (* flushed per record: readable before close *)
            let body = read_file path in
            let lines =
              List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
            in
            Alcotest.(check int) "two lines" 2 (List.length lines);
            let l = List.hd lines in
            List.iter
              (check_contains "record" l)
              [
                "\"request_id\":\"req-1\"";
                "\"shape\":\"SELECT R.ID FROM R WHERE R.X >= ?\"";
                "\"queue_wait_s\":";
                "\"exec_s\":";
                "\"page_reads\":12";
                "\"page_writes\":3";
                "\"comparisons\":400";
                "\"fuzzy_ops\":40";
                "\"rows\":7";
                "\"retries\":1";
                "\"outcome\":\"ok\"";
              ];
            Server.Telemetry.Query_log.close log));
    tc "slow-ms threshold drops fast queries" `Quick (fun () ->
        with_temp_log (fun path ->
            let log = Server.Telemetry.Query_log.create ~slow_ms:50.0 path in
            Server.Telemetry.Query_log.log log (mk_record ~exec_s:0.010 ());
            Server.Telemetry.Query_log.log log (mk_record ~exec_s:0.200 ());
            Alcotest.(check int) "only the slow one" 1
              (Server.Telemetry.Query_log.written log);
            Server.Telemetry.Query_log.close log));
    tc "reopen after an external rename (SIGHUP/logrotate handshake)" `Quick
      (fun () ->
        with_temp_log (fun path ->
            let log = Server.Telemetry.Query_log.create path in
            Server.Telemetry.Query_log.log log (mk_record ~id:"before-1" ());
            Server.Telemetry.Query_log.log log (mk_record ~id:"before-2" ());
            (* logrotate renames the live file, then signals the daemon;
               records logged in between must land in the renamed file
               (the fd follows the inode), never be lost. *)
            Sys.rename path (path ^ ".1");
            Server.Telemetry.Query_log.log log (mk_record ~id:"between" ());
            Server.Telemetry.Query_log.reopen log;
            Server.Telemetry.Query_log.log log (mk_record ~id:"after" ());
            Alcotest.(check int) "no record dropped" 4
              (Server.Telemetry.Query_log.written log);
            Server.Telemetry.Query_log.close log;
            let rotated = read_file (path ^ ".1") and live = read_file path in
            List.iter (check_contains "rotated" rotated)
              [ "before-1"; "before-2"; "between" ];
            check_contains "live" live "after";
            Alcotest.(check bool) "live file holds only post-reopen records"
              true
              (not
                 (List.exists
                    (fun id ->
                      let n = String.length id and h = String.length live in
                      let rec has i =
                        i + n <= h && (String.sub live i n = id || has (i + 1))
                      in
                      has 0)
                    [ "before-1"; "before-2"; "between" ]));
            (* reopen on an un-rotated log is a harmless no-op *)
            let log2 = Server.Telemetry.Query_log.create path in
            Server.Telemetry.Query_log.reopen log2;
            Server.Telemetry.Query_log.log log2 (mk_record ~id:"steady" ());
            Server.Telemetry.Query_log.close log2;
            check_contains "append preserved" (read_file path) "after"));
    tc "rotation renames to .1 and starts fresh" `Quick (fun () ->
        with_temp_log (fun path ->
            let log = Server.Telemetry.Query_log.create ~max_bytes:400 path in
            for i = 1 to 10 do
              Server.Telemetry.Query_log.log log
                (mk_record ~id:(Printf.sprintf "req-%d" i) ())
            done;
            Server.Telemetry.Query_log.close log;
            Alcotest.(check bool) "rotated file exists" true
              (Sys.file_exists (path ^ ".1"));
            let live = read_file path and old = read_file (path ^ ".1") in
            Alcotest.(check bool) "live file below the cap + one record" true
              (String.length live <= 400 + 400);
            (* only one rotation generation is kept, so older chunks may be
               gone — but what remains must be a contiguous, newest-last
               suffix of the stream: [.1] immediately precedes the live
               file and the live file ends at req-10 *)
            let nums s =
              List.filter_map
                (fun l ->
                  if l = "" then None
                  else
                    let key = "\"request_id\":\"req-" in
                    let rec find i =
                      if i + String.length key > String.length l then None
                      else if String.sub l i (String.length key) = key then
                        let start = i + String.length key in
                        let j = String.index_from l start '"' in
                        int_of_string_opt (String.sub l start (j - start))
                      else find (i + 1)
                    in
                    find 0)
                (String.split_on_char '\n' s)
            in
            let tail = nums old @ nums live in
            Alcotest.(check bool) "suffix is non-empty" true (tail <> []);
            let first = List.hd tail in
            Alcotest.(check (list int))
              "contiguous suffix ending at the newest record"
              (List.init (10 - first + 1) (fun i -> first + i))
              tail));
  ]

(* ------------------------------------------------------------------ *)
(* Prometheus and \top rendering.                                      *)

let render_tests =
  [
    tc "prometheus text: counters, gauges, summaries, NaN when empty" `Quick
      (fun () ->
        let m = Storage.Metrics.create () in
        Storage.Metrics.incr ~by:3
          (Storage.Metrics.counter m "requests_completed");
        Storage.Metrics.set_gauge (Storage.Metrics.gauge m "queue_depth") 2.0;
        let h = Storage.Metrics.histogram m "latency_s" in
        Storage.Metrics.observe h 0.25;
        let w = Storage.Metrics.window_histogram m "exec_s" in
        ignore w;
        let text = Server.Telemetry.render_prometheus m ~now:1000.0 in
        List.iter
          (check_contains "prometheus" text)
          [
            "# TYPE fsqld_requests_completed counter";
            "fsqld_requests_completed 3";
            "# TYPE fsqld_queue_depth gauge";
            "fsqld_queue_depth 2";
            "# TYPE fsqld_latency_s summary";
            "fsqld_latency_s{quantile=\"0.5\"}";
            "fsqld_latency_s_count 1";
            (* the registered-but-empty window renders NaN quantiles *)
            "fsqld_exec_s_window{quantile=\"0.99\"} NaN";
          ];
        (* every line is a comment or "name{labels} value" with a sane name *)
        List.iter
          (fun line ->
            if line <> "" && line.[0] <> '#' then
              match line.[0] with
              | 'a' .. 'z' | 'A' .. 'Z' | '_' -> ()
              | c -> Alcotest.failf "bad metric line start %C: %s" c line)
          (String.split_on_char '\n' text));
    tc "metric names are sanitised" `Quick (fun () ->
        let m = Storage.Metrics.create () in
        Storage.Metrics.incr (Storage.Metrics.counter m "weird.name-with ops");
        let text = Server.Telemetry.render_prometheus m ~now:0.0 in
        check_contains "sanitised" text "fsqld_weird_name_with_ops 1");
    tc "top snapshot: gauges, window table with - for empty, counters" `Quick
      (fun () ->
        let m = Storage.Metrics.create () in
        Storage.Metrics.set_gauge (Storage.Metrics.gauge m "busy_workers") 1.0;
        Storage.Metrics.incr ~by:5
          (Storage.Metrics.counter m "requests_accepted");
        let w = Storage.Metrics.window_histogram m "latency_s" in
        Storage.Metrics.observe_window w ~now:100.0 0.02;
        let empty = Storage.Metrics.window_histogram m "queue_wait_s" in
        ignore empty;
        let text = Server.Telemetry.render_top m ~now:100.1 in
        List.iter
          (check_contains "top" text)
          [ "busy_workers"; "requests_accepted"; "latency_s"; "queue_wait_s" ];
        (* the empty window's quantile cells render as "-", not "nan" *)
        Alcotest.(check bool) "no bare nan" false (contains text "nan"));
  ]

(* ------------------------------------------------------------------ *)
(* HTTP listener.                                                      *)

let http_tests =
  [
    tc "serves GETs on an ephemeral port; unknown paths 404" `Quick (fun () ->
        let srv =
          Server.Telemetry.Http.start ~port:0 (fun path ->
              if path = "/metrics" then
                Some (200, "text/plain; version=0.0.4", "fsqld_up 1\n")
              else None)
        in
        let port = Server.Telemetry.Http.port srv in
        Alcotest.(check bool) "ephemeral port bound" true (port > 0);
        let status, body = Server.Telemetry.Http.get ~port "/metrics" in
        Alcotest.(check int) "200" 200 status;
        Alcotest.(check string) "body" "fsqld_up 1\n" body;
        let status, _ = Server.Telemetry.Http.get ~port "/nope" in
        Alcotest.(check int) "404" 404 status;
        (* one request per connection: a second GET still works *)
        let status, _ = Server.Telemetry.Http.get ~port "/metrics" in
        Alcotest.(check int) "second scrape" 200 status;
        Server.Telemetry.Http.stop srv;
        match Server.Telemetry.Http.get ~port "/metrics" with
        | exception Unix.Unix_error _ -> ()
        | status, _ ->
            Alcotest.(check bool) "no 200 after stop" true (status <> 200));
  ]

(* ------------------------------------------------------------------ *)
(* Quantile edge cases (satellite: empty -> nan, single -> exact).     *)

let quantile_tests =
  [
    tc "empty histogram quantiles are nan, never invented" `Quick (fun () ->
        let m = Storage.Metrics.create () in
        let h = Storage.Metrics.histogram m "h" in
        List.iter
          (fun q ->
            Alcotest.(check bool)
              (Printf.sprintf "q=%g nan" q)
              true
              (Float.is_nan (Storage.Metrics.hist_quantile h q)))
          [ 0.0; 0.5; 0.99; 1.0 ];
        let w = Storage.Metrics.window_histogram m "w" in
        Alcotest.(check bool) "window p50 nan" true
          (Float.is_nan (Storage.Metrics.window_quantile w ~now:10.0 0.5));
        Alcotest.(check bool) "window max nan" true
          (Float.is_nan (Storage.Metrics.window_max w ~now:10.0)));
    tc "single observation is exact at every quantile" `Quick (fun () ->
        let m = Storage.Metrics.create () in
        let h = Storage.Metrics.histogram m "h" in
        Storage.Metrics.observe h 0.037;
        List.iter
          (fun q ->
            Alcotest.(check (float 1e-12))
              (Printf.sprintf "q=%g exact" q)
              0.037
              (Storage.Metrics.hist_quantile h q))
          [ 0.0; 0.5; 0.99; 1.0 ];
        let w = Storage.Metrics.window_histogram m "w" in
        Storage.Metrics.observe_window w ~now:5.0 0.037;
        Alcotest.(check (float 1e-12))
          "window p99 exact" 0.037
          (Storage.Metrics.window_quantile w ~now:5.5 0.99));
  ]

(* qcheck: while every observation is inside one live window, windowed
   quantiles must agree with the lifetime histogram's; and after the
   window passes, they are all gone. *)
let window_agreement_prop =
  QCheck.Test.make ~count:200
    ~name:"window quantiles = lifetime quantiles inside one window; expiry \
           drops all"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 64) (float_bound_exclusive 1000.0))
        (float_bound_exclusive 0.99))
    (fun (obs, q) ->
      let obs = List.map Float.abs obs in
      let m = Storage.Metrics.create () in
      let h = Storage.Metrics.histogram m "h" in
      let w = Storage.Metrics.window_histogram m "w" in
      let t0 = 1000.0 in
      (* all observations land within one 5 s slot *)
      List.iter
        (fun v ->
          Storage.Metrics.observe h v;
          Storage.Metrics.observe_window w ~now:t0 v)
        obs;
      let lifetime = Storage.Metrics.hist_quantile h q in
      let windowed = Storage.Metrics.window_quantile w ~now:(t0 +. 1.0) q in
      let agree =
        if Float.is_nan lifetime then Float.is_nan windowed
        else Float.abs (lifetime -. windowed) <= 1e-9 *. Float.abs lifetime
      in
      if not agree then
        QCheck.Test.fail_reportf
          "in-window disagreement at q=%g: lifetime %g, windowed %g" q lifetime
          windowed;
      (* drive the clock past the whole span: everything expires *)
      let later = t0 +. Storage.Metrics.window_span_s w +. 1.0 in
      let expired = Storage.Metrics.window_quantile w ~now:later q in
      if not (Float.is_nan expired) then
        QCheck.Test.fail_reportf "q=%g still %g after expiry" q expired;
      if Storage.Metrics.window_count w ~now:later <> 0 then
        QCheck.Test.fail_reportf "window count nonzero after expiry";
      true)

(* ------------------------------------------------------------------ *)
(* Daemon integration: IDs over the wire, \trace, the cancelled split,  *)
(* log/ring agreement, and the HTTP endpoints.                          *)

let setup = Server.Demo.server_setup ~seed:11 ()
let slow_setup = Server.Demo.server_setup ~seed:3 ~n_r:2000 ~n_s:2000 ()

let slow_sql =
  "SELECT R.ID FROM R WHERE R.Y > SOME (SELECT S.Z FROM S WHERE S.V <= R.U)"

let log_lines path =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))

(* The terminal frame is written before the worker files the trace and
   the log record, so a client can observe its answer a beat before the
   telemetry lands — poll instead of asserting instantly. *)
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

let daemon_tests =
  [
    tc "request IDs correlate replies, \\trace, the ring, and the log" `Quick
      (fun () ->
        with_temp_log (fun path ->
            let daemon =
              Server.Daemon.start ~workers:1 ~setup ~query_log:path ()
            in
            let client =
              Server.Client.connect ~port:(Server.Daemon.port daemon) ()
            in
            Alcotest.(check string) "no ID before the first query" ""
              (Server.Client.last_request_id client);
            (match
               Server.Client.query client
                 "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE \
                  S.V >= 20)"
             with
            | Server.Client.Answer _ -> ()
            | _ -> Alcotest.fail "expected an answer");
            let id = Server.Client.last_request_id client in
            Alcotest.(check int) "client generated a real ID" 16
              (String.length id);
            (* the trace is fetchable by that ID, over the wire *)
            wait_for "trace in the ring" (fun () ->
                Server.Daemon.trace_json daemon id <> None);
            (match Server.Client.trace_json client id with
            | Some json ->
                check_contains "trace json" json "\"name\": \"request\"";
                check_contains "trace json" json "exec"
            | None -> Alcotest.fail "trace missing from the ring");
            Alcotest.(check (option string)) "unknown ID is None" None
              (Server.Client.trace_json client "deadbeefdeadbeef");
            (* a statically-invalid query is rejected at admission: it
               still gets an ID and a log record (outcome
               "rejected_static"), but never a worker or a ring entry *)
            (match Server.Client.query client "SELECT FROM WHERE" with
            | Server.Client.Rejected { code; diagnostics } ->
                Alcotest.(check string) "primary code" "FSQL002" code;
                check_contains "rendered diagnostics" diagnostics
                  "error[FSQL002]"
            | _ -> Alcotest.fail "expected Rejected");
            let bad_id = Server.Client.last_request_id client in
            Alcotest.(check bool) "fresh ID per query" true (bad_id <> id);
            Alcotest.(check int) "rejected counted" 1
              (Server.Daemon.counter_value daemon "requests_rejected_static");
            Alcotest.(check (option string)) "no span tree for a rejection"
              None
              (Server.Daemon.trace_json daemon bad_id);
            Server.Client.close client;
            Server.Daemon.stop daemon;
            (* log/ring agreement: one record per accepted or rejected
               request; accepted IDs match the ring's span trees *)
            let accepted =
              Server.Daemon.counter_value daemon "requests_accepted"
            in
            Alcotest.(check (option int)) "log count = accepted + rejected"
              (Some (accepted + 1))
              (Server.Daemon.query_log_written daemon);
            let ring_ids =
              List.sort compare
                (Server.Telemetry.Ring.ids (Server.Daemon.trace_ring daemon))
            in
            let logged_ids =
              List.sort compare
                (List.filter_map
                   (fun line ->
                     let key = "\"request_id\":\"" in
                     let rec find i =
                       if i + String.length key > String.length line then None
                       else if String.sub line i (String.length key) = key then
                         let start = i + String.length key in
                         let j = String.index_from line start '"' in
                         Some (String.sub line start (j - start))
                       else find (i + 1)
                     in
                     find 0)
                   (log_lines path))
            in
            Alcotest.(check (list string))
              "every accepted logged ID has exactly one span tree" ring_ids
              (List.filter (fun i -> i <> bad_id) logged_ids);
            Alcotest.(check bool) "the rejection is logged too" true
              (List.mem bad_id logged_ids);
            let outcomes = String.concat "\n" (log_lines path) in
            check_contains "rejected_static outcome logged" outcomes
              "\"outcome\":\"rejected_static\""));
    tc "the cancelled counter splits into deadline vs client" `Slow (fun () ->
        let daemon =
          Server.Daemon.start ~workers:1 ~queue_capacity:4 ~setup:slow_setup ()
        in
        let client =
          Server.Client.connect ~port:(Server.Daemon.port daemon) ()
        in
        (* 1: deadline *)
        (match Server.Client.query ~deadline_ms:150 client slow_sql with
        | Server.Client.Cancelled _ -> ()
        | _ -> Alcotest.fail "expected deadline Cancelled");
        (* 2: explicit client cancel *)
        let reply = ref None in
        let th =
          Thread.create
            (fun () -> reply := Some (Server.Client.query client slow_sql))
            ()
        in
        let deadline = Unix.gettimeofday () +. 10.0 in
        while
          Server.Daemon.counter_value daemon "requests_accepted" < 2
          && Unix.gettimeofday () < deadline
        do
          Thread.delay 0.005
        done;
        Server.Client.cancel client;
        Thread.join th;
        (match !reply with
        | Some (Server.Client.Cancelled _) -> ()
        | _ -> Alcotest.fail "expected client Cancelled");
        (* the terminal frame races the counter bump: wait for the books *)
        let deadline = Unix.gettimeofday () +. 10.0 in
        while
          Server.Daemon.counter_value daemon "requests_cancelled" < 2
          && Unix.gettimeofday () < deadline
        do
          Thread.delay 0.005
        done;
        let c = Server.Daemon.counter_value daemon in
        Alcotest.(check int) "deadline split" 1 (c "requests_cancelled_deadline");
        Alcotest.(check int) "client split" 1 (c "requests_cancelled_client");
        Alcotest.(check int)
          "aggregate = deadline + client" (c "requests_cancelled")
          (c "requests_cancelled_deadline" + c "requests_cancelled_client");
        Server.Client.close client;
        Server.Daemon.stop daemon);
    tc "\\top over the wire shows windowed stats and gauges" `Quick (fun () ->
        let daemon = Server.Daemon.start ~workers:1 ~setup () in
        let client =
          Server.Client.connect ~port:(Server.Daemon.port daemon) ()
        in
        (match Server.Client.query client "SELECT T.ID FROM T WHERE T.W >= 0" with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "expected an answer");
        let text = Server.Client.top_text client in
        List.iter
          (check_contains "top" text)
          [ "latency_s"; "queue_depth"; "busy_workers"; "requests_completed" ];
        Server.Client.close client;
        Server.Daemon.stop daemon);
    tc "/metrics and /healthz serve a live daemon" `Quick (fun () ->
        let daemon = Server.Daemon.start ~workers:1 ~setup ~metrics_port:0 () in
        let mport =
          match Server.Daemon.metrics_port daemon with
          | Some p -> p
          | None -> Alcotest.fail "metrics port not bound"
        in
        let client =
          Server.Client.connect ~port:(Server.Daemon.port daemon) ()
        in
        (match Server.Client.query client "SELECT T.ID FROM T WHERE T.W >= 0" with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "expected an answer");
        let status, body = Server.Telemetry.Http.get ~port:mport "/metrics" in
        Alcotest.(check int) "/metrics 200" 200 status;
        List.iter
          (check_contains "/metrics" body)
          [
            "# TYPE fsqld_requests_completed counter";
            "fsqld_requests_completed 1";
            "fsqld_latency_s_window{quantile=\"0.5\"}";
            "fsqld_queue_depth";
          ];
        let status, body = Server.Telemetry.Http.get ~port:mport "/healthz" in
        Alcotest.(check int) "/healthz 200" 200 status;
        check_contains "/healthz" body "\"status\":\"ok\"";
        let status, _ = Server.Telemetry.Http.get ~port:mport "/favicon.ico" in
        Alcotest.(check int) "404 elsewhere" 404 status;
        Server.Client.close client;
        Server.Daemon.stop daemon;
        (* the listener dies with the daemon *)
        match Server.Telemetry.Http.get ~port:mport "/metrics" with
        | exception Unix.Unix_error _ -> ()
        | status, _ ->
            Alcotest.(check bool) "no scrape after stop" true (status <> 200));
  ]

let suites =
  [
    ("telemetry ring", ring_tests);
    ("telemetry normalize", normalize_tests);
    ("telemetry query log", query_log_tests);
    ("telemetry rendering", render_tests);
    ("telemetry http", http_tests);
    ( "telemetry quantiles",
      quantile_tests @ [ QCheck_alcotest.to_alcotest window_agreement_prop ] );
    ("telemetry daemon", daemon_tests);
  ]

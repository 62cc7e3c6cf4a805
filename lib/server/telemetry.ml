(* Production telemetry for the serving path: request IDs, a bounded ring
   of recent request traces, SQL shape normalization, a rotating JSONL
   query log, Prometheus text exposition, and the tiny HTTP endpoint that
   serves it. Pure plumbing — no engine types leak in here, so the
   subsystem is reusable by any later serving tier (scatter-gather,
   caches) that wants the same observability spine. *)

(* ------------------------------------------------------------------ *)
(* Request IDs *)

let gen_request_id rng =
  (* 64 random bits as 16 hex chars: short enough to read aloud, wide
     enough that a busy server won't collide within a trace-ring
     lifetime. *)
  let b = Buffer.create 16 in
  for _ = 1 to 4 do
    Buffer.add_string b (Printf.sprintf "%04x" (Random.State.int rng 0x10000))
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Trace ring: the last [capacity] completed requests' Chrome traces,
   keyed by request ID. Bounded memory; old entries are overwritten in
   arrival order. Thread-safe (workers insert, conn threads look up). *)

module Ring = struct
  type entry = { e_id : string; e_json : string }

  type t = {
    lock : Mutex.t;
    slots : entry option array;
    mutable next : int;  (* next slot to overwrite *)
    mutable stored : int;  (* lifetime inserts, for tests *)
  }

  let create capacity =
    if capacity <= 0 then invalid_arg "Telemetry.Ring.create: capacity";
    {
      lock = Mutex.create ();
      slots = Array.make capacity None;
      next = 0;
      stored = 0;
    }

  let capacity t = Array.length t.slots

  let add t ~id ~json =
    Mutex.protect t.lock (fun () ->
        t.slots.(t.next) <- Some { e_id = id; e_json = json };
        t.next <- (t.next + 1) mod Array.length t.slots;
        t.stored <- t.stored + 1)

  let find t id =
    Mutex.protect t.lock (fun () ->
        (* Scan backwards from the most recent insert so a duplicated ID
           (client retry reusing one) resolves to the latest trace. *)
        let n = Array.length t.slots in
        let rec go i =
          if i >= n then None
          else
            let slot = (t.next - 1 - i + (2 * n)) mod n in
            match t.slots.(slot) with
            | Some e when String.equal e.e_id id -> Some e.e_json
            | _ -> go (i + 1)
        in
        go 0)

  let ids t =
    Mutex.protect t.lock (fun () ->
        let n = Array.length t.slots in
        let acc = ref [] in
        for i = 0 to n - 1 do
          let slot = (t.next - 1 - i + (2 * n)) mod n in
          (* i = 0 is the most recent insert; prepending as we walk
             backwards leaves the list oldest-first. *)
          match t.slots.(slot) with
          | Some e -> acc := e.e_id :: !acc
          | None -> ()
        done;
        !acc)

  let length t =
    Mutex.protect t.lock (fun () ->
        Array.fold_left
          (fun n -> function Some _ -> n + 1 | None -> n)
          0 t.slots)

  let stored t = Mutex.protect t.lock (fun () -> t.stored)
end

(* ------------------------------------------------------------------ *)
(* SQL shape normalization: literals become [?], whitespace collapses,
   so the query log groups structurally identical statements without
   storing user data.

   The shape is rebuilt from the real lexer's token stream, so it stays
   in lockstep with the grammar (a new literal form can never leak user
   data because anything the lexer calls STRING/NUMBER becomes [?]).
   Statements the lexer refuses still need a shape — the log records
   rejected requests too — so those fall back to the old character-level
   scrubber below. *)

let normalize_fallback sql =
  let b = Buffer.create (String.length sql) in
  let n = String.length sql in
  let is_ident c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_'
  in
  let last_space = ref true (* collapse leading space too *) in
  let emit c =
    if c = ' ' then (if not !last_space then Buffer.add_char b ' ')
    else Buffer.add_char b c;
    last_space := c = ' '
  in
  let i = ref 0 in
  while !i < n do
    let c = sql.[!i] in
    if c = '\'' then begin
      (* string literal, '' escapes a quote *)
      emit '?';
      incr i;
      let stop = ref false in
      while (not !stop) && !i < n do
        if sql.[!i] = '\'' then
          if !i + 1 < n && sql.[!i + 1] = '\'' then i := !i + 2
          else begin
            stop := true;
            incr i
          end
        else incr i
      done
    end
    else if
      (c >= '0' && c <= '9')
      && ((!i = 0) || not (is_ident sql.[!i - 1]))
    then begin
      (* numeric literal (int or decimal), but not a digit inside an
         identifier like t1 *)
      emit '?';
      while
        !i < n
        && ((sql.[!i] >= '0' && sql.[!i] <= '9') || sql.[!i] = '.')
      do
        incr i
      done
    end
    else begin
      emit (if c = '\n' || c = '\t' || c = '\r' then ' ' else c);
      incr i
    end
  done;
  (* trim trailing space *)
  let s = Buffer.contents b in
  let len = String.length s in
  if len > 0 && s.[len - 1] = ' ' then String.sub s 0 (len - 1) else s

let normalize_sql sql =
  match Fuzzysql.Lexer.tokenize sql with
  | exception Fuzzysql.Lexer.Error _ -> normalize_fallback sql
  | tokens ->
      let module T = Fuzzysql.Token in
      let text = function
        | T.IDENT s -> s
        | T.STRING _ | T.NUMBER _ -> "?"
        | T.OP op -> Fuzzy.Fuzzy_compare.op_to_string op
        | t -> T.to_string t
      in
      let no_space_before = function
        | T.RPAREN | T.COMMA | T.COLON -> true
        | _ -> false
      in
      let no_space_after = function
        | T.LPAREN | T.COLON -> true
        | _ -> false
      in
      let b = Buffer.create (String.length sql) in
      let rec go prev = function
        | [] | T.EOF :: _ -> ()
        | T.STRING _ :: rest
          when match prev with Some (T.STRING _) -> true | _ -> false ->
            (* the lexer splits ['O''Brien'] at the doubled quote; both
               halves are one literal, one [?] *)
            go prev rest
        | tok :: rest ->
            (match prev with
            | Some p when not (no_space_after p || no_space_before tok) ->
                Buffer.add_char b ' '
            | _ -> ());
            Buffer.add_string b (text tok);
            go (Some tok) rest
      in
      go None tokens;
      Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Query log: one JSON object per line per finished request, with size
   rotation (file -> file.1) so an unattended server never fills the
   disk. [slow_ms] filters at the source: 0 logs everything. *)

module Query_log = struct
  type record = {
    ts : float;
    request_id : string;
    shape : string;
    queue_wait_s : float;
    exec_s : float;
    page_reads : int;
    page_writes : int;
    comparisons : int;
    fuzzy_ops : int;
    rows : int;
    retries : int;
    outcome : string;
  }

  type t = {
    path : string;
    max_bytes : int;
    slow_ms : float;
    lock : Mutex.t;
    mutable oc : out_channel;
    mutable bytes : int;
    mutable written : int;
    mutable closed : bool;
  }

  let open_out_at path =
    open_out_gen [ Open_append; Open_creat ] 0o644 path

  let create ?(max_bytes = 64 * 1024 * 1024) ?(slow_ms = 0.0) path =
    let oc = open_out_at path in
    {
      path;
      max_bytes;
      slow_ms;
      lock = Mutex.create ();
      oc;
      bytes = out_channel_length oc;
      written = 0;
      closed = false;
    }

  let render r =
    let esc = Storage.Metrics.json_escape in
    Printf.sprintf
      "{\"ts\":%.6f,\"request_id\":\"%s\",\"shape\":\"%s\",\
       \"queue_wait_s\":%.6f,\"exec_s\":%.6f,\"page_reads\":%d,\
       \"page_writes\":%d,\"comparisons\":%d,\"fuzzy_ops\":%d,\"rows\":%d,\
       \"retries\":%d,\"outcome\":\"%s\"}"
      r.ts (esc r.request_id) (esc r.shape) r.queue_wait_s
      r.exec_s r.page_reads r.page_writes r.comparisons r.fuzzy_ops r.rows
      r.retries (esc r.outcome)

  let rotate t =
    (* fsync the outgoing file before it becomes [.1]: rotation must not
       turn a crash into lost records that [log] already acknowledged by
       returning. *)
    flush t.oc;
    (try Unix.fsync (Unix.descr_of_out_channel t.oc)
     with Unix.Unix_error _ | Sys_error _ -> ());
    close_out_noerr t.oc;
    (try Sys.rename t.path (t.path ^ ".1") with Sys_error _ -> ());
    t.oc <- open_out_at t.path;
    t.bytes <- 0

  (* Logrotate compatibility: after an external rename, reopening at the
     configured path starts a fresh file; records keep flowing with none
     lost in between (the swap happens under the log's lock). *)
  let reopen t =
    Mutex.protect t.lock (fun () ->
        if not t.closed then begin
          flush t.oc;
          close_out_noerr t.oc;
          t.oc <- open_out_at t.path;
          t.bytes <- out_channel_length t.oc
        end)

  let log t r =
    if r.exec_s *. 1000.0 >= t.slow_ms then
      Mutex.protect t.lock (fun () ->
          if not t.closed then begin
            if t.bytes >= t.max_bytes then rotate t;
            let line = render r in
            output_string t.oc line;
            output_char t.oc '\n';
            flush t.oc;
            t.bytes <- t.bytes + String.length line + 1;
            t.written <- t.written + 1
          end)

  let written t = Mutex.protect t.lock (fun () -> t.written)

  let close t =
    Mutex.protect t.lock (fun () ->
        if not t.closed then begin
          t.closed <- true;
          close_out_noerr t.oc
        end)
end

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (format 0.0.4). Counters map to counters,
   gauges to gauges, lifetime histograms and window snapshots to
   summaries (quantile-labelled series) — the log2-bucket layout is ours,
   so we export computed quantiles rather than raw buckets. *)

let prom_name name =
  let b = Buffer.create (String.length name + 6) in
  Buffer.add_string b "fsqld_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" v

let render_prometheus metrics ~now =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun c ->
      let n = prom_name (Storage.Metrics.counter_name c) in
      line "# TYPE %s counter" n;
      line "%s %d" n (Storage.Metrics.counter_value c))
    (Storage.Metrics.counters metrics);
  List.iter
    (fun g ->
      let n = prom_name (Storage.Metrics.gauge_name g) in
      line "# TYPE %s gauge" n;
      line "%s %s" n (prom_float (Storage.Metrics.gauge_value g)))
    (Storage.Metrics.gauges metrics);
  List.iter
    (fun h ->
      let n = prom_name (Storage.Metrics.hist_name h) in
      line "# TYPE %s summary" n;
      List.iter
        (fun q ->
          line "%s{quantile=\"%g\"} %s" n q
            (prom_float (Storage.Metrics.hist_quantile h q)))
        [ 0.5; 0.95; 0.99 ];
      line "%s_sum %s" n (prom_float (Storage.Metrics.hist_sum h));
      line "%s_count %d" n (Storage.Metrics.hist_count h))
    (Storage.Metrics.histograms metrics);
  List.iter
    (fun w ->
      let n = prom_name (Storage.Metrics.window_name w) ^ "_window" in
      line "# TYPE %s summary" n;
      List.iter
        (fun q ->
          line "%s{quantile=\"%g\"} %s" n q
            (prom_float (Storage.Metrics.window_quantile w ~now q)))
        [ 0.5; 0.99 ];
      line "%s_sum %s" n (prom_float (Storage.Metrics.window_sum w ~now));
      line "%s_count %d" n (Storage.Metrics.window_count w ~now);
      line "# TYPE %s_rate gauge" n;
      line "%s_rate %s" n (prom_float (Storage.Metrics.window_rate w ~now)))
    (Storage.Metrics.window_histograms metrics);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* \top rendering: a terminal snapshot of the windowed serving state.
   Rendered server-side so old/new clients need no JSON parser. *)

let render_top metrics ~now =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let fnum v = if Float.is_nan v then "-" else Printf.sprintf "%.3g" v in
  let gauges = Storage.Metrics.gauges metrics in
  if gauges <> [] then begin
    line "gauges:";
    List.iter
      (fun g ->
        line "  %-28s %s"
          (Storage.Metrics.gauge_name g)
          (fnum (Storage.Metrics.gauge_value g)))
      gauges
  end;
  let windows = Storage.Metrics.window_histograms metrics in
  if windows <> [] then begin
    line "last %gs:" (Storage.Metrics.window_span_s (List.hd windows));
    line "  %-28s %8s %8s %8s %8s %8s" "window" "count" "rate/s" "p50" "p99"
      "max";
    List.iter
      (fun w ->
        line "  %-28s %8d %8s %8s %8s %8s"
          (Storage.Metrics.window_name w)
          (Storage.Metrics.window_count w ~now)
          (fnum (Storage.Metrics.window_rate w ~now))
          (fnum (Storage.Metrics.window_quantile w ~now 0.5))
          (fnum (Storage.Metrics.window_quantile w ~now 0.99))
          (fnum (Storage.Metrics.window_max w ~now)))
      windows
  end;
  let counters = Storage.Metrics.counters metrics in
  if counters <> [] then begin
    line "lifetime:";
    List.iter
      (fun c ->
        line "  %-28s %d"
          (Storage.Metrics.counter_name c)
          (Storage.Metrics.counter_value c))
      counters
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* HTTP listener: one thread, one request per connection, HTTP/1.0 with
   Connection: close. Deliberately minimal — it serves two read-only
   endpoints to a scraper on a trusted port, not the internet. *)

module Http = struct
  type t = Listener.t

  let respond fd status content_type body =
    let reason = match status with
      | 200 -> "OK"
      | 404 -> "Not Found"
      | 503 -> "Service Unavailable"
      | _ -> "Error"
    in
    let head =
      Printf.sprintf
        "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
         Connection: close\r\n\r\n"
        status reason content_type (String.length body)
    in
    let payload = Bytes.of_string (head ^ body) in
    try Storage.Fd_io.write_all fd payload 0 (Bytes.length payload)
    with Unix.Unix_error _ -> ()

  let read_request_path fd =
    (* Read until the end of headers or 8 KB, then parse the request
       line. Anything malformed is just a closed connection. *)
    let buf = Buffer.create 256 in
    let chunk = Bytes.create 512 in
    let rec go () =
      if Buffer.length buf < 8192 then
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            let s = Buffer.contents buf in
            let have_headers =
              let rec scan i =
                i + 3 < String.length s
                && ((s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
                     && s.[i + 3] = '\n')
                   || scan (i + 1))
              in
              scan 0
            in
            if not have_headers then go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> ()
    in
    go ();
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | None -> None
    | Some eol -> (
        let first = String.trim (String.sub s 0 eol) in
        match String.split_on_char ' ' first with
        | meth :: path :: _ when String.uppercase_ascii meth = "GET" ->
            Some path
        | _ -> None)

  (* The listener closes [fd] once this returns. *)
  let serve_conn handler fd =
    match read_request_path fd with
    | Some path -> (
        match handler path with
        | Some (status, content_type, body) ->
            respond fd status content_type body
        | None -> respond fd 404 "text/plain" "not found\n")
    | None -> ()

  let start ~port handler =
    let l = Listener.bind ~port () in
    Listener.serve l (serve_conn handler);
    l

  let port = Listener.port
  let stop = Listener.stop

  (* A one-shot GET for tests and tooling: status code and body. *)
  let get ~port path =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let req =
          Printf.sprintf "GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n" path
        in
        let payload = Bytes.of_string req in
        Storage.Fd_io.write_all fd payload 0 (Bytes.length payload);
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 4096 in
        let rec read () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              read ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
        in
        read ();
        let s = Buffer.contents buf in
        let status =
          match String.split_on_char ' ' s with
          | _ :: code :: _ -> ( try int_of_string code with Failure _ -> 0)
          | _ -> 0
        in
        let body =
          let rec find i =
            if i + 3 < String.length s then
              if
                s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
                && s.[i + 3] = '\n'
              then String.sub s (i + 4) (String.length s - i - 4)
              else find (i + 1)
            else ""
          in
          find 0
        in
        (status, body))
end

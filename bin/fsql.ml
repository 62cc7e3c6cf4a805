(** fsql — an interactive Fuzzy SQL shell over the reproduction engine.

    Starts with the paper's dating-service database loaded (relations F and
    M) plus a generated pair R / S for experimentation, held in memory for
    the session; durable data lives in [fsqld --data-dir], reached with
    [--connect]. Statements end with [;]. Meta commands:
    {v
    \d           list relations        \d NAME      print a relation
    \terms       list linguistic terms \shape SQL;  classify without running
    \strategy X  naive|nl|merge|auto   \timing      toggle timing
    \help        this help
    \analyze SQL; run + per-operator  \check SQL;  static analysis only
                  actual stats
    \trace PATH|off  Chrome trace of each query to PATH
    \q           quit
    v}
    Invalid statements print rustc-style caret diagnostics with stable
    [FSQL0xx] codes; [\check SQL;] additionally reports the warnings
    (always-empty predicates, unsatisfiable threshold cuts, contradictory
    conjunctions, nested-loop-only shapes) without running the query.

    Start with [fsql --check FILE] to batch-lint every ';'-terminated statement in
    FILE against the demo catalog (exit 1 when any statement has an
    error), or [fsql --connect HOST:PORT] to run statements against a
    remote fsqld instead of the in-process engine (meta commands: \q
    \help \timing \deadline \retry \metrics \top \trace). Every
    remote query carries a client-generated request ID; failures print
    it, [\trace ID] fetches that request's server-side Chrome trace, and
    [\top] shows the server's live windowed metrics. *)

open Frepro
open Frepro.Relational

type state = {
  catalog : Catalog.t;
  terms : Fuzzy.Term.t;
  check : Fuzzysql.Check.ctx;
  mutable strategy : Unnest.Planner.strategy;
  mutable timing : bool;
  mutable trace_file : string option;
}

let load_demo env catalog =
  Server.Demo.load_dating env catalog;
  Server.Demo.load_generated ~seed:7 ~n:500 ~groups:50 env catalog

let strategy_of_string = function
  | "naive" -> Some Unnest.Planner.Naive
  | "nl" | "nested-loop" -> Some Unnest.Planner.Nested_loop
  | "merge" | "unnest" -> Some Unnest.Planner.Unnest_merge
  | "auto" -> Some Unnest.Planner.Auto
  | _ -> None

let help () =
  print_string
    "statements end with ';'. Meta commands:\n\
    \  \\d            list relations\n\
    \  \\d NAME       print a relation\n\
    \  \\terms        list linguistic terms\n\
    \  \\shape SQL;   classify a query without running it\n\
    \  \\check SQL;   static analysis only: errors and warnings\n\
    \                (empty predicates, dead threshold cuts,\n\
    \                contradictions, nested-loop-only shapes)\n\
    \  \\explain SQL; show the evaluation plan and estimates\n\
    \  \\strategy X   naive | nl | merge | auto\n\
    \  \\analyze SQL; run a query and print per-operator actual\n\
    \                time / I/O / rows vs estimates\n\
    \  \\trace PATH   write a Chrome trace of each query to PATH\n\
    \                (load in chrome://tracing or Perfetto); \\trace off\n\
    \  \\timing       toggle per-query timing\n\
    \  \\help         this help\n\
    \  \\q            quit\n\
     fuzzy literals: TRAP(a,b,c,d)  TRI(a,p,d)  ABOUT(v[,spread])  \
     DIST(v:d, ...)\n\
     clauses: GROUPBY, HAVING, ORDER BY D [DESC|ASC], LIMIT k, WITH D >= z\n\
     example: SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME \
     IN\n\
    \         (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age');\n"

(* Binding through the static analyzer: one pass collects every
   diagnostic. Error-severity findings reject the statement (printed as
   caret blocks); warnings are reported only by [\check] so the output
   of a valid statement stays an answer table. *)
let bind_checked st sql =
  match
    Fuzzysql.Check.check_string ~classify:Unnest.Classify.shape_hint st.check
      sql
  with
  | Some q, _ -> Ok q
  | None, diags -> Error (Fuzzysql.Diagnostic.errors diags)

let print_diags sql diags =
  if diags <> [] then
    print_endline (Fuzzysql.Diagnostic.render_all ~source:sql diags)

let strip_semi sql =
  if String.length sql > 0 && sql.[String.length sql - 1] = ';' then
    String.sub sql 0 (String.length sql - 1)
  else sql

let run_sql st sql =
  match bind_checked st sql with
  | Error errs -> print_diags sql errs
  | Ok q -> (
      try
        let trace = Option.map (fun _ -> Storage.Trace.create ()) st.trace_file in
        let t0 = Unix.gettimeofday () in
        let answer =
          Unnest.Planner.run ~strategy:st.strategy ?trace q
        in
        let dt = Unix.gettimeofday () -. t0 in
        (match (st.trace_file, trace) with
        | Some path, Some tr ->
            Storage.Trace.write_chrome tr ~path;
            Format.printf "trace written to %s (%d spans)@." path
              (Storage.Trace.span_count tr)
        | _ -> ());
        let limit = 40 in
        Format.printf "%a@." Schema.pp (Relation.schema answer);
        let shown = ref 0 in
        Relation.iter answer (fun t ->
            incr shown;
            if !shown <= limit then Format.printf "  %a@." Ftuple.pp t);
        if !shown > limit then Format.printf "  ... (%d more)@." (!shown - limit);
        Format.printf "(%d tuple%s" (Relation.cardinality answer)
          (if Relation.cardinality answer = 1 then "" else "s");
        if st.timing then Format.printf ", %.1f ms" (1000.0 *. dt);
        Format.printf ")@."
      with Unnest.Planner.Unsupported msg ->
        Format.printf "unsupported: %s@." msg)

let meta st line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "\\q" ] | [ "\\quit" ] -> raise Exit
  | [ "\\help" ] | [ "\\h" ] -> help ()
  | [ "\\d" ] ->
      List.iter
        (fun n ->
          match Catalog.find st.catalog n with
          | Some rel ->
              Format.printf "  %a  (%d tuples, %d pages)@." Schema.pp
                (Relation.schema rel) (Relation.cardinality rel)
                (Relation.num_pages rel)
          | None -> ())
        (Catalog.names st.catalog)
  | [ "\\d"; name ] -> (
      match Catalog.find st.catalog name with
      | Some rel -> Format.printf "%a" Relation.pp rel
      | None -> Format.printf "no relation %s@." name)
  | [ "\\terms" ] ->
      List.iter
        (fun n ->
          Format.printf "  %-14s %a@." n Fuzzy.Possibility.pp
            (Option.get (Fuzzy.Term.lookup st.terms n)))
        (Fuzzy.Term.names st.terms)
  | [ "\\strategy" ] ->
      Format.printf "strategy: %s@." (Unnest.Planner.strategy_to_string st.strategy)
  | [ "\\strategy"; s ] -> (
      match strategy_of_string s with
      | Some strat ->
          st.strategy <- strat;
          Format.printf "strategy set to %s@."
            (Unnest.Planner.strategy_to_string strat)
      | None -> Format.printf "unknown strategy %s (naive|nl|merge|auto)@." s)
  | [ "\\timing" ] ->
      st.timing <- not st.timing;
      Format.printf "timing %s@." (if st.timing then "on" else "off")
  | [ "\\trace" ] ->
      Format.printf "trace: %s@."
        (match st.trace_file with Some p -> p | None -> "off")
  | [ "\\trace"; "off" ] ->
      st.trace_file <- None;
      Format.printf "trace off@."
  | [ "\\trace"; path ] ->
      st.trace_file <- Some path;
      Format.printf "tracing each query to %s (Chrome trace_event format)@."
        path
  | "\\check" :: rest ->
      let sql = strip_semi (String.concat " " rest) in
      let _, diags =
        Fuzzysql.Check.check_string ~classify:Unnest.Classify.shape_hint
          st.check sql
      in
      print_diags sql diags;
      Format.printf "%s@." (Fuzzysql.Diagnostic.summary diags)
  | "\\analyze" :: rest -> (
      let sql = strip_semi (String.concat " " rest) in
      match bind_checked st sql with
      | Error errs -> print_diags sql errs
      | Ok q -> (
          try
            let a =
              Unnest.Explain.analyze ~strategy:st.strategy q
            in
            print_string a.Unnest.Explain.text;
            match st.trace_file with
            | Some path ->
                Storage.Trace.write_chrome a.Unnest.Explain.trace ~path;
                Format.printf "trace written to %s@." path
            | None -> ()
          with Unnest.Planner.Unsupported msg ->
            Format.printf "unsupported: %s@." msg))
  | "\\explain" :: rest -> (
      let sql = strip_semi (String.concat " " rest) in
      match bind_checked st sql with
      | Error errs -> print_diags sql errs
      | Ok q -> print_string (Unnest.Explain.explain q))
  | "\\shape" :: rest -> (
      let sql = strip_semi (String.concat " " rest) in
      match bind_checked st sql with
      | Error errs -> print_diags sql errs
      | Ok q ->
          Format.printf "%s@."
            (Unnest.Classify.to_string (Unnest.Classify.classify q)))
  | _ -> Format.printf "unknown meta command (try \\help)@."

(* ---- batch lint: fsql --check FILE ---- *)

(* Split the file into ';'-terminated statements, honouring single-quoted
   strings (a doubled '' escape toggles twice, which round-trips) and
   dropping [--] comment lines so a corpus file can be documented. *)
let split_statements text =
  let stmts = ref [] in
  let buf = Buffer.create 128 in
  let in_str = ref false in
  String.iter
    (fun c ->
      if c = '\'' then begin
        in_str := not !in_str;
        Buffer.add_char buf c
      end
      else if c = ';' && not !in_str then begin
        stmts := Buffer.contents buf :: !stmts;
        Buffer.clear buf
      end
      else Buffer.add_char buf c)
    text;
  stmts := Buffer.contents buf :: !stmts;
  List.filter (fun s -> s <> "") (List.rev_map String.trim !stmts)

let check_file path =
  let text =
    match open_in path with
    | exception Sys_error msg ->
        prerr_endline ("fsql: " ^ msg);
        exit 2
    | ic ->
        let n = in_channel_length ic in
        let raw = really_input_string ic n in
        close_in ic;
        let lines = String.split_on_char '\n' raw in
        String.concat "\n"
          (List.filter
             (fun l ->
               let t = String.trim l in
               not (String.length t >= 2 && t.[0] = '-' && t.[1] = '-'))
             lines)
  in
  let env = Storage.Env.create () in
  let catalog = Catalog.create env in
  load_demo env catalog;
  let check = Fuzzysql.Check.ctx ~catalog ~terms:Fuzzy.Term.paper in
  let errors = ref 0 in
  let warnings = ref 0 in
  List.iteri
    (fun i sql ->
      if i > 0 then print_newline ();
      Format.printf "%s;@." sql;
      let _, diags =
        Fuzzysql.Check.check_string ~classify:Unnest.Classify.shape_hint check
          sql
      in
      print_diags sql diags;
      Format.printf "%s@." (Fuzzysql.Diagnostic.summary diags);
      List.iter
        (fun d ->
          if Fuzzysql.Diagnostic.is_error d then incr errors else incr warnings)
        diags)
    (split_statements text);
  Format.printf "@.%s: %d error%s, %d warning%s@." path !errors
    (if !errors = 1 then "" else "s")
    !warnings
    (if !warnings = 1 then "" else "s");
  exit (if !errors > 0 then 1 else 0)

(* ---- remote mode: statements run on a fsqld over the wire protocol ---- *)

type remote_state = {
  client : Server.Client.t;
  mutable r_timing : bool;
  mutable r_deadline_ms : int; (* 0 = use the server's default deadline *)
  mutable r_retries : int; (* 0 = no client-side retry *)
}

let remote_help () =
  print_string
    "statements end with ';' and run on the remote fsqld. Meta commands:\n\
    \  \\deadline MS  per-query deadline in milliseconds (0 = server default)\n\
    \  \\retry N      retry overloaded/transient replies up to N extra times\n\
    \                with backoff (0 = off)\n\
    \  \\metrics      print the server's metrics registry (JSON)\n\
    \  \\top          server's windowed metrics (qps, p50/p99, queue,\n\
    \                breaker); \\top N polls N times at 2s intervals\n\
    \  \\trace ID     fetch a request's Chrome trace by its request ID\n\
    \                (printed on failures); \\trace ID FILE writes it\n\
    \  \\promote      promote a replica server to primary (bumps the\n\
    \                replication epoch, fencing the old primary)\n\
    \  \\timing       toggle per-query timing\n\
    \  \\help         this help\n\
    \  \\q            quit\n"

let remote_sql st sql =
  let t0 = Unix.gettimeofday () in
  let retry =
    if st.r_retries > 0 then
      Some { Server.Retry.default with max_attempts = st.r_retries + 1 }
    else None
  in
  match
    Server.Client.query ~deadline_ms:st.r_deadline_ms ?retry st.client sql
  with
  | Server.Client.Answer { columns; rows; server_elapsed_s = _ } ->
      let dt = Unix.gettimeofday () -. t0 in
      Format.printf "%s@." (String.concat " | " columns);
      let limit = 40 in
      List.iteri
        (fun i (r : Server.Client.row) ->
          if i < limit then
            Format.printf "  %s | %.3f@." (String.concat " | " r.values)
              r.degree)
        rows;
      let n = List.length rows in
      if n > limit then Format.printf "  ... (%d more)@." (n - limit);
      Format.printf "(%d tuple%s" n (if n = 1 then "" else "s");
      if st.r_timing then Format.printf ", %.1f ms" (1000.0 *. dt);
      Format.printf ")@."
  | Server.Client.Failed msg ->
      Format.printf "error: %s@.(request id %s — \\trace %s for the server \
                     trace)@."
        msg
        (Server.Client.last_request_id st.client)
        (Server.Client.last_request_id st.client)
  | Server.Client.Rejected { code = _; diagnostics } ->
      (* The static check refused the query: at admission, before the
         queue, or on a replica's worker, which checks against the data it
         has applied. The report is pre-rendered. *)
      Format.printf "%s@.(rejected by the static check, request id %s)@." diagnostics
        (Server.Client.last_request_id st.client)
  | Server.Client.Retryable msg ->
      Format.printf
        "transient server error: %s (safe to retry, see \\retry)@.(request \
         id %s)@."
        msg
        (Server.Client.last_request_id st.client)
  | Server.Client.Overloaded ->
      Format.printf "server overloaded (admission shed the query), retry@."
  | Server.Client.Cancelled reason ->
      Format.printf "cancelled: %s@.(request id %s)@." reason
        (Server.Client.last_request_id st.client)

let remote_meta st line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "\\q" ] | [ "\\quit" ] -> raise Exit
  | [ "\\help" ] | [ "\\h" ] -> remote_help ()
  | [ "\\timing" ] ->
      st.r_timing <- not st.r_timing;
      Format.printf "timing %s@." (if st.r_timing then "on" else "off")
  | [ "\\deadline" ] ->
      Format.printf "deadline: %d ms (0 = server default)@." st.r_deadline_ms
  | [ "\\deadline"; n ] -> (
      match int_of_string_opt n with
      | Some ms when ms >= 0 ->
          st.r_deadline_ms <- ms;
          Format.printf "deadline set to %d ms@." ms
      | _ -> Format.printf "deadline must be a non-negative integer@.")
  | [ "\\retry" ] ->
      Format.printf "retry: %d (0 = off)@." st.r_retries
  | [ "\\retry"; n ] -> (
      match int_of_string_opt n with
      | Some r when r >= 0 ->
          st.r_retries <- r;
          Format.printf "retry set to %d@." r
      | _ -> Format.printf "retry must be a non-negative integer@.")
  | [ "\\metrics" ] -> print_endline (Server.Client.metrics_json st.client)
  | [ "\\top" ] -> print_string (Server.Client.top_text st.client)
  | [ "\\top"; n ] -> (
      match int_of_string_opt n with
      | Some polls when polls >= 1 ->
          (* A bounded live view: clear + reprint every 2 s. *)
          for i = 1 to polls do
            if i > 1 then Unix.sleepf 2.0;
            print_string "\027[2J\027[H";
            Printf.printf "fsqld top — poll %d/%d\n" i polls;
            print_string (Server.Client.top_text st.client);
            flush stdout
          done
      | _ -> Format.printf "usage: \\top [N]  (N = number of 2s polls)@.")
  | [ "\\trace"; id ] -> (
      match Server.Client.trace_json st.client id with
      | Some json -> print_endline json
      | None ->
          Format.printf
            "no trace for request %s (evicted from the server's ring, or \
             never seen)@."
            id)
  | [ "\\trace"; id; file ] -> (
      match Server.Client.trace_json st.client id with
      | Some json ->
          let oc = open_out file in
          output_string oc json;
          close_out oc;
          Format.printf "trace %s written to %s (Chrome trace_event format)@."
            id file
      | None ->
          Format.printf
            "no trace for request %s (evicted from the server's ring, or \
             never seen)@."
            id)
  | [ "\\promote" ] -> (
      match Server.Client.promote st.client with
      | Ok epoch ->
          Format.printf "promoted; replication epoch is now %d@." epoch
      | Error m -> Format.printf "promote refused: %s@." m)
  | _ ->
      Format.printf "unknown meta command in --connect mode (try \\help)@."

(* The shell's read loop, local or remote: outside a statement, a line
   starting with a backslash is a meta command; other lines accumulate
   until one ends with ';'. [\q] and the end of input end the loop. *)
let repl ~interactive ~meta ~sql =
  let buf = Buffer.create 256 in
  try
    while true do
      if interactive then begin
        print_string (if Buffer.length buf = 0 then "fsql> " else "  ..> ");
        flush stdout
      end;
      let line = try input_line stdin with End_of_file -> raise Exit in
      let trimmed = String.trim line in
      if Buffer.length buf = 0 && String.length trimmed > 0 && trimmed.[0] = '\\'
      then meta trimmed
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf ' ';
        let acc = String.trim (Buffer.contents buf) in
        if String.length acc > 0 && acc.[String.length acc - 1] = ';' then begin
          Buffer.clear buf;
          let stmt = String.sub acc 0 (String.length acc - 1) in
          if String.trim stmt <> "" then sql stmt
        end
      end
    done
  with Exit -> ()

let remote_repl addr =
  let client =
    (* Bounded connect: an unreachable server fails in 5 s instead of
       hanging for the kernel's SYN-retry budget. *)
    try Server.Client.of_addr ~timeout_ms:5000 addr with
    | Server.Client.Connect_timeout ->
        Printf.eprintf "fsql: cannot connect to %s: timed out\n" addr;
        exit 1
    | Unix.Unix_error (e, _, _) ->
        Printf.eprintf "fsql: cannot connect to %s: %s\n" addr
          (Unix.error_message e);
        exit 1
    | Invalid_argument msg ->
        prerr_endline ("fsql: " ^ msg);
        exit 2
  in
  let st =
    { client; r_timing = true; r_deadline_ms = 0; r_retries = 0 }
  in
  let interactive = Unix.isatty Unix.stdin in
  if interactive then
    Printf.printf "fsql - connected to %s (\\help for help, \\q to quit)\n%!"
      addr;
  (try repl ~interactive ~meta:(remote_meta st) ~sql:(remote_sql st) with
  | End_of_file | Sys_error _ | Server.Wire.Connection_closed ->
      prerr_endline "fsql: server closed the connection"
  | Server.Wire.Protocol_error msg ->
      prerr_endline ("fsql: protocol error: " ^ msg));
  Server.Client.close st.client;
  if interactive then print_endline "bye"

let () =
  let connect = ref None in
  let lint = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--connect" :: addr :: rest ->
        connect := Some addr;
        parse_args rest
    | [ "--connect" ] ->
        prerr_endline "fsql: --connect expects HOST:PORT";
        exit 2
    | "--check" :: file :: rest ->
        lint := Some file;
        parse_args rest
    | [ "--check" ] ->
        prerr_endline "fsql: --check expects a file of ';'-terminated statements";
        exit 2
    | arg :: _ ->
        prerr_endline
          ("fsql: unknown argument " ^ arg
         ^ " (usage: fsql [--connect HOST:PORT] [--check FILE])");
        exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  match (!lint, !connect) with
  | Some file, _ -> check_file file
  | None, Some addr -> remote_repl addr
  | None, None ->
  let env = Storage.Env.create () in
  let catalog = Catalog.create env in
  load_demo env catalog;
  let st =
    {
      catalog;
      terms = Fuzzy.Term.paper;
      check = Fuzzysql.Check.ctx ~catalog ~terms:Fuzzy.Term.paper;
      strategy = Unnest.Planner.Auto;
      timing = true;
      trace_file = None;
    }
  in
  let interactive = Unix.isatty Unix.stdin in
  if interactive then begin
    print_endline "fsql - nested fuzzy SQL shell (\\help for help, \\q to quit)";
    print_endline "loaded: F, M (the paper's Example 4.1), R, S (generated, 500 tuples)"
  end;
  repl ~interactive ~meta:(meta st) ~sql:(run_sql st);
  if interactive then print_endline "bye"

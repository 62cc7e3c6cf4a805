(** serve-small: two client connections in a closed loop against an
    in-process [Server.Daemon] started with its defaults and loaded by
    [Server.Demo.server_setup] at its default sizes (every relation fits
    the 256-page pool). The clients cycle through seven shapes: the load
    bench's N, J, JX, JA, JALL and 3-block chain queries plus the paper's
    Example 4.1 dating query. Every answer must match, bit for bit, the
    in-process [Unnest.Planner.run] answer over the same seeded data.

    Execution takes milliseconds, so most of a request's cost is request
    handling: client and wire, the static check at admission, queue wait
    and row encoding. *)

open Frepro
open Common

let shapes =
  [|
    ("N", "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V >= 20)");
    ("J", "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V <= R.U)");
    ( "JX",
      "SELECT R.ID FROM R WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V >= R.U)"
    );
    ( "JA",
      "SELECT R.ID FROM R WHERE R.Y >= (SELECT MAX(S.Z) FROM S WHERE S.V = R.U)"
    );
    ( "JALL",
      "SELECT R.ID FROM R WHERE R.Y <= ALL (SELECT S.Z FROM S WHERE S.V = R.U)"
    );
    ( "chain",
      "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.Z IN (SELECT \
       T.W FROM T))" );
    ( "dating",
      "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN \
       (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')" );
  |]

let clients = 2

type state = {
  daemon : Server.Daemon.t;
  conns : Server.Client.t array;
  env : Storage.Env.t;  (** the in-process copy of the daemon's data *)
  catalog : Relational.Catalog.t;
  expected : rows array;
}

let bind catalog sql =
  Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql

(* One op's result, as seen by the client. *)
type sample = {
  latency : float;
  server_s : float;  (** the daemon's [Done.elapsed_s]; nan unless answered *)
  ok : bool;
  wrong : string option;
}

let ask st conn k =
  let name, sql = shapes.(k) in
  let t0 = now () in
  let reply = Server.Client.query conn sql in
  let t1 = now () in
  match reply with
  | Server.Client.Answer { rows; server_elapsed_s; _ } ->
      let wrong =
        if rows_of_reply rows = st.expected.(k) then None
        else Some (Printf.sprintf "%s: answer differs from Planner.run" name)
      in
      (t0, t1, { latency = t1 -. t0; server_s = server_elapsed_s; ok = true; wrong })
  | _ -> (t0, t1, { latency = t1 -. t0; server_s = Float.nan; ok = false; wrong = None })

let build ~seed ~tiny () =
  let t0 = now () in
  let load =
    if tiny then Server.Demo.server_setup ~seed ~n_r:24 ~n_s:24 ~n_t:12 ()
    else Server.Demo.server_setup ~seed ()
  in
  let env = Storage.Env.create () in
  let catalog = Relational.Catalog.create env in
  load env catalog;
  let expected = Array.map (fun (_, sql) -> run_rows (bind catalog sql)) shapes in
  let t1 = now () in
  let daemon = Server.Daemon.start ~setup:load () in
  let port = Server.Daemon.port daemon in
  let conns = Array.init clients (fun _ -> Server.Client.connect ~port ()) in
  let st = { daemon; conns; env; catalog; expected } in
  (* Workers load their databases on their own domains after [start]
     returns: the daemon is up once each connection has had an answer. *)
  let first = Array.make clients None in
  let threads =
    Array.mapi
      (fun i c -> Thread.create (fun () -> first.(i) <- Some (ask st c i)) ())
      conns
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      match r with
      | Some (_, _, { ok = true; wrong = None; _ }) -> ()
      | Some (_, _, { wrong = Some w; _ }) -> failwith ("daemon start: wrong answer, " ^ w)
      | _ -> failwith (Printf.sprintf "daemon start: warm-up query %d got no answer" i))
    first;
  (st, [ ("setup.gen_s", t1 -. t0); ("setup.daemon_start_s", now () -. t1) ])

let teardown st =
  Array.iter Server.Client.close st.conns;
  Server.Daemon.stop st.daemon

(* Fetch the daemon's own spans of one request and return the durations
   (seconds) of its queue-wait, plan and exec spans. *)
let server_parts daemon id =
  let json = Option.value ~default:"" (Server.Daemon.trace_json daemon id) in
  let dur name =
    let key = Printf.sprintf "\"name\": \"%s\"," name in
    let find sub from =
      let n = String.length sub and m = String.length json in
      let rec go i =
        if i + n > m then None
        else if String.sub json i n = sub then Some (i + n)
        else go (i + 1)
      in
      go from
    in
    match find key 0 with
    | None -> Float.nan
    | Some i -> (
        match find "\"dur\": " i with
        | None -> Float.nan
        | Some j -> Scanf.sscanf (String.sub json j (String.length json - j)) "%f" (fun us -> us /. 1e6))
  in
  (dur "queue-wait", dur "plan", dur "exec")

(* The closed loop: each client sends its next query when the previous
   reply has arrived. With [spans], each op is a [client.query] span with
   the daemon's request under it, placed by its measured duration at the
   end of the client's interval, and the daemon's queue-wait, plan and
   exec spans under that. *)
let loop ?spans st ~op ~duration =
  let stop_at = now () +. duration in
  let per_client =
    Array.mapi
      (fun i conn ->
        let mine = ref [] in
        let th =
          Thread.create
            (fun () ->
              let k = ref i in
              while now () < stop_at do
                let t0, t1, s = ask st conn (!k mod Array.length shapes) in
                incr k;
                let id = Atomic.fetch_and_add op 1 in
                (match spans with
                | Some sp when s.ok ->
                    let root = Spans.add sp ~op:id "client.query" ~start_s:t0 ~stop_s:t1 in
                    let srv_start = t1 -. s.server_s in
                    let server =
                      Spans.add sp ~parent:root ~op:id "daemon.server"
                        ~start_s:srv_start ~stop_s:t1
                    in
                    let q, p, e =
                      server_parts st.daemon (Server.Client.last_request_id conn)
                    in
                    List.fold_left
                      (fun at (name, d) ->
                        ignore
                          (Spans.add sp ~parent:server ~op:id name ~start_s:at
                             ~stop_s:(at +. d));
                        at +. d)
                      srv_start
                      [ ("daemon.queue_wait", q); ("daemon.plan", p); ("daemon.exec", e) ]
                    |> ignore
                | _ -> ());
                mine := s :: !mine
              done)
            ()
        in
        (th, mine))
      st.conns
  in
  let t0 = now () in
  Array.iter (fun (th, _) -> Thread.join th) per_client;
  let wall = now () -. t0 in
  (List.concat_map (fun (_, mine) -> !mine) (Array.to_list per_client), wall)

(* In-process probes of the layers under the daemon, on the same data:
   bind and static check of every shape, and Planner.run per shape. *)
let probes st spans ~op =
  let check = Fuzzysql.Check.ctx ~catalog:st.catalog ~terms:Fuzzy.Term.paper in
  let next () = Atomic.fetch_and_add op 1 in
  for _ = 1 to 20 do
    Array.iter
      (fun (_, sql) ->
        let op = next () in
        Spans.span (Some spans) ~op "fuzzysql.bind" (fun _ -> ignore (bind st.catalog sql));
        Spans.span (Some spans) ~op "fuzzysql.check" (fun _ ->
            ignore (Fuzzysql.Check.check_string ~classify:Unnest.Classify.shape_hint check sql)))
      shapes
  done;
  (* One pass runs every shape once; the first pass's counters repeat
     exactly for a seed, later passes find a warmer pool. *)
  let pass () =
    Array.fold_left
      (fun (total, answers) (name, sql) ->
        let q = bind st.catalog sql in
        let answer, moved =
          measured st.env (fun () ->
              Spans.span (Some spans) ~op:(next ()) ("unnest.run." ^ name)
                (fun _ -> Unnest.Planner.run q))
        in
        let rows = rows_of_relation answer in
        Relational.Relation.destroy answer;
        (add total moved, rows :: answers))
      (zero, []) shapes
  in
  let passes = List.init 5 (fun _ -> pass ()) in
  let first, answers = List.hd passes in
  let median_of f = Stats.median (List.map (fun (c, _) -> f c) passes) in
  ( first,
    List.rev answers,
    median_of (fun c -> c.sort_s),
    median_of (fun c -> c.merge_s) )

let run ~seed ~seconds ~trace ~tiny =
  let st, setup_s, setup_parts = repeat_setup setups (build ~seed ~tiny) teardown in
  let op = Atomic.make 0 in
  let finish samples =
    let errors = List.filter_map (fun s -> s.wrong) samples in
    let ok = List.filter (fun s -> s.ok) samples in
    (errors, ok, List.length samples, List.length samples - List.length ok)
  in
  let result =
    if not trace then begin
      let samples, wall = loop st ~op ~duration:seconds in
      let errors, ok, attempted, failed = finish samples in
      let lats = List.map (fun s -> s.latency) ok in
      ( {
          attempted;
          failed;
          errors;
          checksum = checksum (Array.to_list st.expected);
          metrics =
            [
              ("setup_s", setup_s);
              ("ops_per_s", float_of_int (List.length ok) /. wall);
              ("read_p50_ms", ms (Stats.median lats));
              ("ok_frac", float_of_int (attempted - failed) /. float_of_int attempted);
              ("peak_rss_mb", peak_rss_mb ());
            ]
            @ latency_metrics lats;
        },
        None )
    end
    else begin
      let plain, _ = loop st ~op ~duration:(seconds /. 2.0) in
      let spans = Spans.create () in
      let traced, _ = loop ~spans st ~op ~duration:(seconds /. 2.0) in
      let counters, answers, sort_s, sweep_s = probes st spans ~op in
      let errors, _, attempted, failed = finish (plain @ traced) in
      let errors =
        if answers = Array.to_list st.expected then errors
        else "probe answers differ from the expected answers" :: errors
      in
      let med_ms name = ms (Stats.median (Spans.durations spans name)) in
      let self name = ms (Stats.median (Spans.self_of spans name)) in
      let layers =
        [ "client.query"; "daemon.server"; "daemon.queue_wait"; "daemon.plan"; "daemon.exec" ]
      in
      let ok_lats samples =
        List.filter_map (fun s -> if s.ok then Some s.latency else None) samples
      in
      let p50 = ms (Stats.median (ok_lats plain)) in
      ( {
          attempted;
          failed;
          errors;
          checksum = checksum answers;
          metrics =
            setup_parts
            @ [
                ("wire.residual_ms", self "client.query");
                ("daemon.server_ms", med_ms "daemon.server");
                ("daemon.queue_wait_ms", med_ms "daemon.queue_wait");
                ("daemon.plan_ms", med_ms "daemon.plan");
                ("daemon.exec_ms", med_ms "daemon.exec");
                ("daemon.emit_ms", self "daemon.server");
                ("fuzzysql.bind_us", 1000.0 *. med_ms "fuzzysql.bind");
                ("fuzzysql.check_us", 1000.0 *. med_ms "fuzzysql.check");
                ("external_sort.sort_s", sort_s);
                ("join_merge.sweep_s", sweep_s);
                ("trace.residual_ms", Float.abs (p50 -. Stats.sum (List.map self layers)));
                ("trace.overhead_ms", ms (Stats.median (ok_lats traced)) -. p50);
                tail_metric (ok_lats plain);
              ]
            @ Array.to_list
                (Array.map (fun (name, _) -> ("unnest.run_ms." ^ name, med_ms ("unnest.run." ^ name))) shapes)
            @ exact_metrics counters @ pool_metrics counters;
        },
        Some spans )
    end
  in
  teardown st;
  result

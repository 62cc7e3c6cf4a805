(** Temporary-page balance: a query run leaves exactly one live temporary
    relation, its answer. After [Planner.run] and [Relation.destroy] of the
    answer, the live page count of the environment's temporary disk is
    back where it started — for every strategy, shape, [WITH] /
    [ORDER BY D] / [LIMIT] combination, when a
    cancellation unwinds a run mid-sweep, and across many queries served
    by one daemon. *)

open Frepro
open Frepro.Relational

let tc = Alcotest.test_case

let strategies =
  Unnest.Planner.[ Auto; Naive; Nested_loop; Unnest_merge ]

(* The serving shapes over the random R / S / T of {!Test_equivalence},
   plus a multi-relation outer block (unnestable after flattening). *)
let shapes =
  [
    ("N", "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V >= 20)");
    ("J", "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V <= R.U)");
    ( "JX",
      "SELECT R.ID FROM R WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V >= R.U)" );
    ( "JA",
      "SELECT R.ID FROM R WHERE R.Y >= (SELECT MAX(S.Z) FROM S WHERE S.V = R.U)" );
    ( "JALL",
      "SELECT R.ID FROM R WHERE R.Y <= ALL (SELECT S.Z FROM S WHERE S.V = R.U)" );
    ( "chain",
      "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V <= R.U \
       AND S.Z IN (SELECT T.W FROM T WHERE T.P = S.V))" );
    ( "multi-from",
      "SELECT R.ID, T.ID FROM R, T WHERE R.U <= T.W AND R.Y IN (SELECT S.Z \
       FROM S WHERE S.V = T.P)" );
  ]

let suffixes =
  List.concat_map
    (fun w -> List.map (fun o -> w ^ o) [ ""; " ORDER BY D DESC LIMIT 3" ])
    [ ""; " WITH D >= 0.3" ]

let temp_pages env = Storage.Disk.live_pages env.Storage.Env.temp_disk

let check_balance spec =
  let catalog = Test_equivalence.make_db spec in
  let env = Catalog.env catalog in
  List.iter
    (fun (shape, sql) ->
      List.iter
        (fun suffix ->
          let q =
            Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
              (sql ^ suffix)
          in
          List.iter
            (fun strategy ->
              let before = temp_pages env in
              Relation.destroy (Unnest.Planner.run ~strategy ~mem_pages:4 q);
              let after = temp_pages env in
              if after <> before then
                QCheck.Test.fail_reportf
                  "%s%s, %s: %d temp pages before, %d after" shape suffix
                  (Unnest.Planner.strategy_to_string strategy)
                  before after)
            strategies)
        suffixes)
    shapes;
  true

(* A J query whose sweep is long: few distinct join keys, so every outer
   tuple's window holds hundreds of inner tuples, each paying a residual
   fuzzy op. There are no local predicates and no threshold, so nothing
   records a fuzzy op before the sweep. *)
let sweep_heavy_catalog n =
  let env = Test_util.fresh_env () in
  let catalog = Catalog.create env in
  let rel name key other =
    Relation.of_list env
      (Schema.make ~name
         [ ("ID", Schema.TNum); (key, Schema.TNum); (other, Schema.TNum) ])
      (List.init n (fun i ->
           Test_util.tuple
             [ Value.Int i; Value.crisp_num (float_of_int (i mod 8));
               Value.crisp_num (float_of_int (i mod 50)) ]
             1.0))
  in
  Catalog.add catalog (rel "R" "Y" "U");
  Catalog.add catalog (rel "S" "Z" "V");
  catalog

(* Cancel from a watcher domain as soon as the sweep has started (the
   first fuzzy op); retried with a bigger input should the sweep finish
   before the watcher sees it. *)
let cancel_mid_sweep () =
  let rec attempt n tries =
    let catalog = sweep_heavy_catalog n in
    let env = Catalog.env catalog in
    let stats = env.Storage.Env.stats in
    let q =
      Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
        "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V <= R.U)"
    in
    let before = temp_pages env in
    let token = Storage.Cancel.create () in
    let finished = Atomic.make false in
    let watcher =
      Domain.spawn (fun () ->
          while Storage.Iostats.fuzzy_ops stats = 0 && not (Atomic.get finished) do
            Domain.cpu_relax ()
          done;
          Storage.Cancel.cancel ~reason:"test" token)
    in
    let outcome =
      match
        Unnest.Planner.run ~strategy:Unnest.Planner.Unnest_merge ~mem_pages:8
          ~cancel:token q
      with
      | answer ->
          Relation.destroy answer;
          `Completed
      | exception Storage.Cancel.Cancelled _ -> `Cancelled
    in
    Atomic.set finished true;
    Domain.join watcher;
    Alcotest.(check int) "temp pages back to baseline" before (temp_pages env);
    match outcome with
    | `Cancelled ->
        Alcotest.(check bool)
          "cancelled after the sweep began" true
          (Storage.Iostats.fuzzy_ops stats > 0)
    | `Completed when tries > 1 -> attempt (2 * n) (tries - 1)
    | `Completed -> Alcotest.fail "the sweep always finished before the cancel"
  in
  attempt 2000 4

(* Many queries through one daemon: every worker environment's temporary
   disk holds as many live pages after the run as after a warm-up pass. *)
let daemon_flat () =
  let envs = ref [] and envs_lock = Mutex.create () in
  let make_env ~pool_pages =
    let env = Storage.Env.create ~pool_pages () in
    Mutex.protect envs_lock (fun () -> envs := env :: !envs);
    env
  in
  let total () =
    Mutex.protect envs_lock (fun () ->
        List.fold_left (fun acc e -> acc + temp_pages e) 0 !envs)
  in
  let daemon =
    Server.Daemon.start ~workers:1 ~make_env
      ~setup:(Server.Demo.server_setup ~seed:5 ~n_r:60 ~n_s:60 ~n_t:30 ())
      ()
  in
  Fun.protect ~finally:(fun () -> Server.Daemon.stop daemon) @@ fun () ->
  let c = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
  let pass () =
    List.iter
      (fun (shape, sql) ->
        let with_d = sql ^ " WITH D >= 0.2 ORDER BY D DESC LIMIT 5" in
        List.iter
          (fun sql ->
            match Server.Client.query c sql with
            | Server.Client.Answer _ -> ()
            | _ -> Alcotest.failf "%s: no answer" shape)
          [ sql; with_d ])
      shapes
  in
  pass ();
  let warm = total () in
  for _ = 1 to 20 do
    pass ()
  done;
  Alcotest.(check int) "worker temp pages flat" warm (total ())

let suites =
  [
    ( "temps.balance",
      [
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~count:6
             ~name:
               "Planner.run + destroy leaves temp pages unchanged (every \
                strategy, shape, WITH, ORDER BY/LIMIT)"
             (Test_equivalence.arb_spec ~discrete_ok:false ())
             check_balance);
        tc "a cancellation mid-sweep frees every temporary" `Quick
          cancel_mid_sweep;
        tc "one daemon, 280 queries: worker temp pages stay flat" `Quick
          daemon_flat;
      ] );
  ]

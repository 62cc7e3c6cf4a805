(** Tests of the static analyzer: the FSQL0xx code table, caret-underlined
    rendering, stable code assignment for historically-rejected queries,
    nearest-name suggestions, multi-error accumulation, the satisfiability
    warnings (FSQL030-033), two qcheck soundness properties — queries
    with no Error diagnostic execute without raising, and queries the
    fail-fast binder rejects carry at least one Error with a tabled code —
    and a fixed-seed mutation fuzz of the SQL front end: the checker
    always returns, and the binder and planner raise only their typed
    errors. *)

open Frepro
open Fuzzysql

let tc = Alcotest.test_case

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ctx env =
  Check.ctx ~catalog:(Test_util.paper_db env) ~terms:Fuzzy.Term.paper

let diags_of env sql =
  snd (Check.check_string ~classify:Unnest.Classify.shape_hint (ctx env) sql)

let codes ds = List.map (fun d -> d.Diagnostic.code) ds

let severity_of code =
  match List.find_opt (fun (c, _, _) -> c = code) Check.code_table with
  | Some (_, sev, _) -> Some sev
  | None -> None

(* ---------- code table ---------- *)

let expected_codes =
  [
    ("FSQL001", Diagnostic.Error); ("FSQL002", Diagnostic.Error);
    ("FSQL010", Diagnostic.Error); ("FSQL011", Diagnostic.Error);
    ("FSQL012", Diagnostic.Error); ("FSQL013", Diagnostic.Error);
    ("FSQL014", Diagnostic.Error); ("FSQL015", Diagnostic.Error);
    ("FSQL016", Diagnostic.Error); ("FSQL018", Diagnostic.Error);
    ("FSQL019", Diagnostic.Error); ("FSQL020", Diagnostic.Error);
    ("FSQL021", Diagnostic.Error); ("FSQL022", Diagnostic.Error);
    ("FSQL023", Diagnostic.Error); ("FSQL024", Diagnostic.Error);
    ("FSQL025", Diagnostic.Error); ("FSQL026", Diagnostic.Error);
    ("FSQL027", Diagnostic.Error); ("FSQL028", Diagnostic.Error);
    ("FSQL030", Diagnostic.Warning);
    ("FSQL031", Diagnostic.Warning); ("FSQL032", Diagnostic.Warning);
    ("FSQL033", Diagnostic.Warning);
  ]

let table_tests =
  [
    tc "code table is the stable golden set" `Quick (fun () ->
        let actual =
          List.map (fun (c, sev, _) -> (c, sev)) Check.code_table
        in
        Alcotest.(check int) "24 codes" 24 (List.length actual);
        List.iter2
          (fun (ec, esev) (ac, asev) ->
            Alcotest.(check string) "code" ec ac;
            Alcotest.(check bool)
              (ec ^ " severity")
              (esev = Diagnostic.Error)
              (asev = Diagnostic.Error))
          expected_codes actual);
    tc "every code has a non-empty description" `Quick (fun () ->
        List.iter
          (fun (c, _, desc) ->
            Alcotest.(check bool) (c ^ " described") true (String.length desc > 0))
          Check.code_table);
  ]

(* ---------- rendering ---------- *)

let render_tests =
  [
    tc "caret render golden: unknown relation" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let sql = "SELECT F.NAME FROM F, NOSUCH" in
        let ds = diags_of env sql in
        Alcotest.(check (list string)) "codes" [ "FSQL010" ] (codes ds);
        let expected =
          "error[FSQL010]: unknown relation NOSUCH\n\
          \  --> line 1, column 23\n\
          \   1 | SELECT F.NAME FROM F, NOSUCH\n\
          \     |                       ^^^^^^"
        in
        Alcotest.(check string) "render"
          expected
          (Diagnostic.render ~source:sql (List.hd ds)));
    tc "caret render: multi-line source points at the right line" `Quick
      (fun () ->
        let env = Test_util.fresh_env () in
        let sql = "SELECT F.NAME\nFROM F\nWHERE F.AGE = 'bogus term'" in
        let ds = diags_of env sql in
        let r = Diagnostic.render ~source:sql (List.hd ds) in
        Alcotest.(check bool) "line 3" true (contains r "--> line 3");
        Alcotest.(check bool) "shows line text" true
          (contains r "   3 | WHERE F.AGE = 'bogus term'");
        Alcotest.(check bool) "has carets" true (contains r "^^^"));
    tc "render_all sorts by position and separates blocks" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let sql = "SELECT F.NOPE, F.NADA FROM F" in
        let ds = diags_of env sql in
        let all = Diagnostic.render_all ~source:sql ds in
        let idx sub =
          let rec go j =
            if j + String.length sub > String.length all then -1
            else if String.sub all j (String.length sub) = sub then j
            else go (j + 1)
          in
          go 0
        in
        let nope = idx "unknown attribute F.NOPE"
        and nada = idx "unknown attribute F.NADA" in
        Alcotest.(check bool) "both rendered" true (nope >= 0 && nada >= 0);
        Alcotest.(check bool) "source order" true (nope < nada);
        Alcotest.(check bool) "blank-line separated" true
          (contains all "\n\n"));
    tc "summary counts" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        Alcotest.(check string) "no issues" "no issues"
          (Diagnostic.summary (diags_of env "SELECT F.NAME FROM F"));
        let ds = diags_of env "SELECT F.NOPE, F.NADA FROM F" in
        Alcotest.(check string) "2 errors" "2 errors" (Diagnostic.summary ds));
  ]

(* ---------- stable codes for rejected queries ---------- *)

(* Every query the old front end rejected (by raising) must now map to a
   stable diagnostic code. The left column is the contract. *)
let rejected_queries =
  [
    ("FSQL002", "SELECT FROM R");
    ("FSQL002", "SELECT R.X R.Y FROM R");
    ("FSQL002", "SELECT R.X FROM R WHERE");
    ("FSQL002", "SELECT R.X FROM R WITH D = 0.5");
    ("FSQL001", "SELECT R.X FROM R WHERE R.Y = 'unterminated");
    ("FSQL002", "SELECT R.X FROM R WHERE R.Y IN SELECT S.Z FROM S");
    ("FSQL002", "SELECT R.X FROM R trailing garbage");
    ("FSQL010", "SELECT F.NAME FROM NOSUCH");
    ("FSQL011", "SELECT F.NOPE FROM F");
    ("FSQL021", "SELECT F.NAME FROM F WHERE F.AGE = 'no such term'");
    ("FSQL018", "SELECT F.NAME FROM F WHERE F.AGE IN (SELECT M.AGE, M.INCOME FROM M)");
    ("FSQL019", "SELECT F.NAME FROM F WHERE F.AGE > (SELECT M.AGE FROM M)");
    ("FSQL012", "SELECT F.NAME FROM F, M WHERE NAME = 'x'");
    ("FSQL023", "SELECT F.NAME FROM F WITH D >= 1.5");
    ("FSQL027", "SELECT COUNT(ID) FROM F HAVING AGE > 3");
    ("FSQL015", "SELECT COUNT(*) FROM F");
    ("FSQL016", "SELECT F.NAME FROM F WHERE COUNT(F.AGE) > 1");
    ("FSQL020", "SELECT F.NAME FROM F WHERE F.NAME = 35");
    ("FSQL022", "SELECT F.NAME FROM F WHERE F.NAME = ABOUT(35)");
    ("FSQL024", "SELECT F.NAME FROM F WHERE F.AGE IN (SELECT M.AGE FROM M LIMIT 2)");
    ("FSQL026",
     "SELECT F.NAME FROM F WHERE F.AGE IN (SELECT M.AGE FROM M HAVING COUNT(F.ID) > 1)");
  ]

let code_tests =
  [
    tc "rejected queries carry their stable code" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        List.iter
          (fun (code, sql) ->
            let ds = diags_of env sql in
            let errs = Diagnostic.errors ds in
            if errs = [] then Alcotest.failf "no error for %s" sql;
            if not (List.mem code (codes errs)) then
              Alcotest.failf "expected %s for %s, got %s" code sql
                (String.concat "," (codes errs)))
          rejected_queries);
    tc "every emitted code is in the table with matching severity" `Quick
      (fun () ->
        let env = Test_util.fresh_env () in
        List.iter
          (fun (_, sql) ->
            List.iter
              (fun d ->
                match severity_of d.Diagnostic.code with
                | Some sev ->
                    Alcotest.(check bool)
                      (d.Diagnostic.code ^ " severity matches table")
                      true
                      (sev = d.Diagnostic.severity)
                | None ->
                    Alcotest.failf "code %s not in table (query %s)"
                      d.Diagnostic.code sql)
              (diags_of env sql))
          rejected_queries);
    tc "FSQL028: a malformed fuzzy literal is an Error at its span, not a raise"
      `Quick (fun () ->
        let env = Test_util.fresh_env () in
        List.iter
          (fun lit ->
            let sql = "SELECT F.NAME FROM F WHERE F.AGE = " ^ lit in
            match Check.check_string (ctx env) sql with
            | exception e ->
                Alcotest.failf "check_string raised %s on %s" (Printexc.to_string e) sql
            | q, ds -> (
                Alcotest.(check bool) (lit ^ ": no bound query") true (q = None);
                match List.filter (fun d -> d.Diagnostic.code = "FSQL028") ds with
                | [ d ] ->
                    Alcotest.(check bool) (lit ^ ": an Error") true
                      (d.Diagnostic.severity = Diagnostic.Error);
                    let { Ast.sp_lo; sp_hi } = d.Diagnostic.span in
                    Alcotest.(check string) (lit ^ ": span") lit
                      (String.sub sql sp_lo (sp_hi - sp_lo))
                | _ ->
                    Alcotest.failf "expected one FSQL028 for %s, got %s" sql
                      (String.concat "," (codes ds))))
          [ "TRAP(1,2,30, 2)"; "DIST(1:0.0)" ]);
  ]

(* ---------- suggestions and accumulation ---------- *)

let suggestion_tests =
  [
    tc "misspelled attribute suggests nearest name" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        match diags_of env "SELECT F.NAM FROM F" with
        | [ d ] ->
            Alcotest.(check string) "code" "FSQL011" d.Diagnostic.code;
            Alcotest.(check bool) "hint" true
              (match d.Diagnostic.hint with
              | Some h -> contains h "NAME"
              | None -> false)
        | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
    tc "misspelled linguistic term suggests nearest term" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        match diags_of env "SELECT F.NAME FROM F WHERE F.AGE = 'midle age'" with
        | [ d ] ->
            Alcotest.(check string) "code" "FSQL021" d.Diagnostic.code;
            Alcotest.(check bool) "hint" true
              (match d.Diagnostic.hint with
              | Some h -> contains h "middle age"
              | None -> false)
        | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
    tc "distant name gets no hint" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        match diags_of env "SELECT F.NAME FROM F, ZQWVXK" with
        | [ d ] ->
            Alcotest.(check bool) "no hint" true (d.Diagnostic.hint = None)
        | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
    tc "multiple independent errors accumulate in one pass" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let ds =
          diags_of env
            "SELECT F.NOPE, F.NADA FROM F WHERE F.AGE = 'bogus term'"
        in
        Alcotest.(check (list string)) "codes in source order"
          [ "FSQL011"; "FSQL011"; "FSQL021" ]
          (codes ds));
  ]

(* ---------- satisfiability warnings ---------- *)

let bound_of env sql =
  match Check.check_string ~classify:Unnest.Classify.shape_hint (ctx env) sql with
  | Some q, ds -> (q, ds)
  | None, ds ->
      Alcotest.failf "should bind: %s\n%s" sql
        (Diagnostic.render_all ~source:sql ds)

let rows q = List.length (Relational.Relation.to_list (Unnest.Planner.run q))

let warning_tests =
  [
    tc "FSQL030: support disjoint from loaded domain" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let q, ds = bound_of env "SELECT F.NAME FROM F WHERE F.ID = 999" in
        Alcotest.(check (list string)) "codes" [ "FSQL030" ] (codes ds);
        Alcotest.(check bool) "warning" true
          ((List.hd ds).Diagnostic.severity = Diagnostic.Warning);
        Alcotest.(check int) "sound: no rows" 0 (rows q));
    tc "FSQL030 also fires for ordered comparators" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let _, ds = bound_of env "SELECT F.NAME FROM F WHERE F.ID > 200" in
        Alcotest.(check (list string)) "codes" [ "FSQL030" ] (codes ds));
    tc "FSQL031: threshold above the literal's height" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let q, ds =
          bound_of env
            "SELECT F.NAME FROM F WHERE F.ID = DIST(101:0.5) WITH D >= 0.8"
        in
        Alcotest.(check (list string)) "codes" [ "FSQL031" ] (codes ds);
        Alcotest.(check int) "sound: no rows" 0 (rows q));
    tc "FSQL032: contradictory conjunction on a crisp attribute" `Quick
      (fun () ->
        let env = Test_util.fresh_env () in
        let q, ds =
          bound_of env
            "SELECT F.NAME FROM F WHERE F.ID > 103 AND F.ID < 102"
        in
        Alcotest.(check (list string)) "codes" [ "FSQL032" ] (codes ds);
        Alcotest.(check int) "sound: no rows" 0 (rows q));
    tc "FSQL032 stays quiet on fuzzy attributes (it would be unsound)"
      `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let _, ds =
          bound_of env
            "SELECT F.NAME FROM F WHERE F.AGE > 50 AND F.AGE < 30"
        in
        Alcotest.(check (list string)) "no warning" [] (codes ds));
    tc "FSQL032 stays quiet when the region is satisfiable" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let _, ds =
          bound_of env
            "SELECT F.NAME FROM F WHERE F.ID > 102 AND F.ID < 104"
        in
        Alcotest.(check (list string)) "no warning" [] (codes ds));
    tc "FSQL033: general nested shape warns with a cost hint" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let _, ds =
          bound_of env
            "SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M) \
             AND F.AGE IN (SELECT M.AGE FROM M)"
        in
        Alcotest.(check (list string)) "codes" [ "FSQL033" ] (codes ds);
        let d = List.hd ds in
        Alcotest.(check bool) "names the shape" true
          (contains d.Diagnostic.message "general nested");
        Alcotest.(check bool) "cost hint" true
          (match d.Diagnostic.hint with
          | Some h -> contains h "scan cost"
          | None -> false));
    tc "unnestable nesting does not warn" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let _, ds =
          bound_of env
            "SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M)"
        in
        Alcotest.(check (list string)) "no warning" [] (codes ds));
    tc "clean paper query has no diagnostics" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        Alcotest.(check (list string)) "no issues" []
          (codes
             (diags_of env
                "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND \
                 F.INCOME IN (SELECT M.INCOME FROM M WHERE M.AGE = 'middle \
                 age')")));
  ]

(* ---------- qcheck soundness ---------- *)

(* Random queries over the paper catalog, spanning clean, misspelled, and
   structurally bad statements. *)
let sql_gen =
  let open QCheck.Gen in
  let rel = oneofl [ "F"; "M" ] in
  let attr = oneofl [ "ID"; "NAME"; "AGE"; "INCOME"; "NOPE" ] in
  let op = oneofl [ "="; "<"; ">"; "<="; ">="; "<>" ] in
  let lit =
    oneofl
      [
        "35"; "101"; "999"; "'Ann'"; "'medium young'"; "'middle age'";
        "'no such term'"; "'midle age'"; "ABOUT(40)"; "DIST(101:0.5)";
      ]
  in
  let pred r =
    map3 (fun a o l -> Printf.sprintf "%s.%s %s %s" r a o l) attr op lit
  in
  let flat =
    rel >>= fun r ->
    pred r >>= fun p ->
    return (Printf.sprintf "SELECT %s.NAME FROM %s WHERE %s" r r p)
  in
  let conj =
    rel >>= fun r ->
    pred r >>= fun p1 ->
    pred r >>= fun p2 ->
    return (Printf.sprintf "SELECT %s.NAME FROM %s WHERE %s AND %s" r r p1 p2)
  in
  let nested =
    attr >>= fun a ->
    attr >>= fun b ->
    return
      (Printf.sprintf "SELECT F.NAME FROM F WHERE F.%s IN (SELECT M.%s FROM M)"
         a b)
  in
  let with_d =
    rel >>= fun r ->
    pred r >>= fun p ->
    oneofl [ "0.3"; "0.8"; "1.5" ] >>= fun d ->
    return
      (Printf.sprintf "SELECT %s.NAME FROM %s WHERE %s WITH D >= %s" r r p d)
  in
  let broken =
    oneofl
      [
        "SELECT FROM F"; "SELECT F.NAME FROM"; "SELECT F.NAME FROM F WHERE";
        "SELECT F.NAME FROM F WHERE F.AGE = 'oops";
        "SELECT NAME FROM F, M WHERE NAME = 'x'";
      ]
  in
  frequency [ (3, flat); (2, conj); (2, nested); (2, with_d); (1, broken) ]

let qcheck_env = lazy (Test_util.fresh_env ~pool_pages:512 ())

let qcheck_ctx = lazy (ctx (Lazy.force qcheck_env))

let prop_accept_runs sql =
  let c = Lazy.force qcheck_ctx in
  match Check.check_string ~classify:Unnest.Classify.shape_hint c sql with
  | None, ds ->
      (* Rejected statements must say why, with an Error-severity code. *)
      Diagnostic.has_errors ds
  | Some q, ds ->
      if Diagnostic.has_errors ds then
        QCheck.Test.fail_reportf "bound despite errors: %s" sql
      else (
        (try ignore (Unnest.Planner.run ~strategy:Unnest.Planner.Auto q)
         with e ->
           QCheck.Test.fail_reportf "accepted query raised %s: %s"
             (Printexc.to_string e) sql);
        true)

let prop_reject_has_code sql =
  let c = Lazy.force qcheck_ctx in
  let env = Lazy.force qcheck_env in
  let old_rejects =
    match Test_util.bind_paper_query env sql with
    | _ -> false
    | exception _ -> true
  in
  if not old_rejects then true
  else
    let _, ds = Check.check_string c sql in
    let errs = Diagnostic.errors ds in
    errs <> []
    && List.for_all
         (fun d ->
           match severity_of d.Diagnostic.code with
           | Some Diagnostic.Error -> true
           | _ -> false)
         errs

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:300 ~name:"no-Error queries execute without raising"
        (QCheck.make ~print:Fun.id sql_gen)
        prop_accept_runs;
      QCheck.Test.make ~count:300
        ~name:"binder-rejected queries yield Error diagnostics with tabled codes"
        (QCheck.make ~print:Fun.id sql_gen)
        prop_reject_has_code;
    ]

(* ---------- SQL mutation fuzz ----------

   Mutants of the seven serve shapes, three statements with fuzzy
   literals and the [examples/queries/] statements: byte flips, token splices, span cuts and truncations, one
   or two per mutant, 20,000 mutants from a fixed seed. Each runs through
   [Check.check_string] (which must return: fsqld's admission calls it
   on the connection thread), [Analyzer.bind_string] and
   [Planner.run_string], which may raise only their typed errors. The planner runs under a short deadline so a
   mutant that happens to be an expensive valid query cannot stall the
   suite. *)

(* Beside the test binary under [dune runtest], or in the source tree
   when it is run from the project root. *)
let example_statements () =
  let dir =
    List.find Sys.file_exists
      [
        Filename.concat (Filename.dirname Sys.executable_name) "../examples/queries";
        "examples/queries";
      ]
  in
  List.concat_map
    (fun file ->
      let ic = open_in_bin (Filename.concat dir file) in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      String.split_on_char '\n' text
      |> List.filter (fun l -> not (String.starts_with ~prefix:"--" (String.trim l)))
      |> String.concat "\n" |> String.split_on_char ';' |> List.map String.trim
      |> List.filter (fun s -> s <> ""))
    [ "clean.fsql"; "errors.fsql"; "warnings.fsql" ]

let splice_tokens seeds =
  let words =
    List.concat_map
      (fun s -> List.filter (fun w -> w <> "") (String.split_on_char ' ' s))
      seeds
  in
  Array.of_list
    (words
    @ [ "("; ")"; ","; "."; ":"; "'"; "\""; "--"; ";"; "-"; "1e308"; "-0";
        "nan"; "DIST("; "TRAP(1,2,3,4)"; "TRAP(4,3,2,1)"; "ABOUT(3,-1)";
        "DIST(1:0)"; "WITH D >="; "NOT"; "IN"; "ALL"; "SOME"; "EXISTS";
        "GROUP BY"; "HAVING"; "ORDER BY D"; "LIMIT -1"; "COUNT(*)"; "MAX(";
        "SELECT"; "FROM"; "WHERE"; "AND" ])

let mutate rng tokens s =
  let n = String.length s in
  let pos () = Random.State.int rng (n + 1) in
  match Random.State.int rng 4 with
  | 0 when n > 0 ->
      (* half the flips pick a character that keeps the text near-valid *)
      let near = "0123456789-.,:()' eE" in
      let c =
        if Random.State.bool rng then Char.chr (Random.State.int rng 256)
        else near.[Random.State.int rng (String.length near)]
      in
      let b = Bytes.of_string s in
      Bytes.set b (Random.State.int rng n) c;
      Bytes.to_string b
  | 0 | 1 ->
      let i = pos () in
      let tok = tokens.(Random.State.int rng (Array.length tokens)) in
      String.sub s 0 i ^ tok ^ String.sub s i (n - i)
  | 2 ->
      let i = pos () in
      let j = i + Random.State.int rng (n - i + 1) in
      String.sub s 0 i ^ String.sub s j (n - j)
  | _ -> String.sub s 0 (pos ())

let fuzz_tests =
  [
    tc "mutated SQL: check returns, bind and run raise only typed errors" `Quick
      (fun () ->
        let catalog setup =
          let env = Test_util.fresh_env () in
          let catalog = Relational.Catalog.create env in
          setup env catalog;
          catalog
        in
        let serve =
          catalog (Server.Demo.server_setup ~seed:11 ~n_r:30 ~n_s:30 ~n_t:20 ())
        and examples =
          catalog (fun env c ->
              Server.Demo.load_dating env c;
              Server.Demo.load_generated ~n:40 ~groups:8 env c)
        in
        (* fuzzy literals, so flips reach the literal constructors *)
        let literals =
          [
            "SELECT R.ID FROM R WHERE R.Y = TRAP(1,2,3,4) AND R.U >= ABOUT(20,5)";
            "SELECT R.ID FROM R WHERE R.Y <= TRI(1,5,9) WITH D >= 0.5";
            "SELECT S.ID FROM S WHERE S.Z IN (SELECT T.W FROM T WHERE T.P = DIST(3:0.5, 4:1))";
          ]
        in
        let seeds =
          List.map (fun sql -> (serve, sql)) (List.map snd Test_server.shapes @ literals)
          @ List.map (fun sql -> (examples, sql)) (example_statements ())
        in
        let seeds = Array.of_list seeds in
        let tokens = splice_tokens (Array.to_list (Array.map snd seeds)) in
        let terms = Fuzzy.Term.paper in
        let ctxs = List.map (fun c -> (c, Check.ctx ~catalog:c ~terms)) [ serve; examples ] in
        let rng = Random.State.make [| 0xF022 |] in
        let bound = ref 0 in
        for _ = 1 to 20_000 do
          let catalog, seed = seeds.(Random.State.int rng (Array.length seeds)) in
          let sql = ref seed in
          for _ = 0 to Random.State.int rng 2 do
            sql := mutate rng tokens !sql
          done;
          let sql = !sql in
          let fail what e =
            Alcotest.failf "%s raised %s on %S" what (Printexc.to_string e) sql
          in
          (match Check.check_string ~classify:Unnest.Classify.shape_hint
                   (List.assq catalog ctxs) sql
           with
          | _ -> ()
          | exception e -> fail "Check.check_string" e);
          (match Analyzer.bind_string ~catalog ~terms sql with
          | _ -> incr bound
          | exception (Analyzer.Error _ | Parser.Error _ | Lexer.Error _) -> ()
          | exception e -> fail "Analyzer.bind_string" e);
          let cancel =
            Storage.Cancel.create ~deadline:(Unix.gettimeofday () +. 0.05) ()
          in
          match Unnest.Planner.run_string ~cancel ~catalog ~terms sql with
          | answer -> Relational.Relation.destroy answer
          | exception
              ( Analyzer.Error _ | Parser.Error _ | Lexer.Error _
              | Unnest.Planner.Unsupported _ | Storage.Cancel.Cancelled _ ) ->
              ()
          | exception e -> fail "Planner.run_string" e
        done;
        (* the corpus must reach the planner, not only the error paths *)
        Alcotest.(check bool) "some mutants bind and run" true (!bound > 100));
  ]

let suites =
  [
    ("check.codes", table_tests);
    ("check.render", render_tests);
    ("check.stable-codes", code_tests);
    ("check.suggest", suggestion_tests);
    ("check.warnings", warning_tests);
    ("check.qcheck", qcheck_tests);
    ("check.fuzz", fuzz_tests);
  ]

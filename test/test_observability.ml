(** Tests for the observability layer: the {!Storage.Trace} span collector
    (nesting, counter deltas, exporters), the per-phase I/O attribution of
    {!Storage.Iostats} and {!Storage.Metrics}. *)

open Frepro
open Frepro.Relational

let tc = Alcotest.test_case

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The Table 1 workload at a size that spills the external sort. *)
let traced_run ?trace () =
  let env = Storage.Env.create ~pool_pages:8 () in
  let spec = { Workload.Gen.default_spec with n = 600; groups = 85 } in
  let r, s = Workload.Gen.join_pair env ~seed:7 ~outer:spec ~inner:spec in
  let catalog = Catalog.create env in
  Catalog.add catalog r;
  Catalog.add catalog s;
  let q =
    Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
      "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.W <= R.W)"
  in
  let answer = Unnest.Planner.run ~mem_pages:8 ?trace q in
  (env, answer)

let span_names trace =
  let names = ref [] in
  Storage.Trace.iter_spans trace (fun sp ->
      names := Storage.Trace.span_name sp :: !names);
  List.rev !names

let trace_tests =
  [
    tc "with_span nests and closes exception-safe" `Quick (fun () ->
        let t = Storage.Trace.create () in
        let trace = Some t in
        let v =
          Storage.Trace.with_span trace "outer" (fun () ->
              Storage.Trace.with_span trace "child-1" (fun () -> ());
              (try
                 Storage.Trace.with_span trace "child-2" (fun () ->
                     failwith "boom")
               with Failure _ -> ());
              Storage.Trace.set_rows trace 42;
              7)
        in
        Alcotest.(check int) "value" 7 v;
        match Storage.Trace.roots t with
        | [ root ] ->
            Alcotest.(check string) "root" "outer"
              (Storage.Trace.span_name root);
            Alcotest.(check (list string))
              "children in order" [ "child-1"; "child-2" ]
              (List.map Storage.Trace.span_name
                 (Storage.Trace.span_children root));
            Alcotest.(check (option int)) "rows on the open span" (Some 42)
              (Storage.Trace.span_rows root);
            Alcotest.(check int) "span_count" 3 (Storage.Trace.span_count t)
        | roots ->
            Alcotest.failf "expected one root, got %d" (List.length roots));
    tc "disabled trace is the identity" `Quick (fun () ->
        let v = Storage.Trace.with_span None "ignored" (fun () -> 11) in
        Storage.Trace.set_rows None 3;
        Storage.Trace.set_est_rows None 3.0;
        Alcotest.(check int) "value" 11 v);
    tc "span deltas track Iostats between open and close" `Quick (fun () ->
        let stats = Storage.Iostats.create () in
        let t = Storage.Trace.create () in
        Storage.Iostats.record_read stats;
        Storage.Trace.with_span (Some t) ~stats "work" (fun () ->
            Storage.Iostats.record_read stats;
            Storage.Iostats.record_write stats;
            Storage.Iostats.record_comparison stats;
            Storage.Iostats.record_fuzzy_op stats);
        match Storage.Trace.roots t with
        | [ sp ] ->
            (* the read recorded before the span is not charged to it *)
            Alcotest.(check int) "reads" 1 (Storage.Trace.span_reads sp);
            Alcotest.(check int) "writes" 1 (Storage.Trace.span_writes sp);
            Alcotest.(check int) "ios" 2 (Storage.Trace.span_ios sp);
            Alcotest.(check int) "compares" 1 (Storage.Trace.span_compares sp);
            Alcotest.(check int) "fuzzy" 1 (Storage.Trace.span_fuzzy_ops sp)
        | _ -> Alcotest.fail "expected one span");
    tc "sequential run records one span per plan operator" `Quick (fun () ->
        let t = Storage.Trace.create () in
        let _env, answer = traced_run ~trace:t () in
        let names = span_names t in
        List.iter
          (fun op ->
            Alcotest.(check bool) ("has span " ^ op) true (List.mem op names))
          [
            "query"; "sort R"; "sort S"; "run-formation"; "k-way-merge";
            "sweep"; "dedup";
          ];
        (* the root span's cardinality is the executed answer's *)
        let root =
          match Storage.Trace.roots t with [ r ] -> r | _ -> assert false
        in
        Alcotest.(check string) "root is the query span" "query"
          (Storage.Trace.span_name root);
        Alcotest.(check (option int)) "root rows" (Some (Relation.cardinality answer))
          (Storage.Trace.span_rows root);
        (* the spilling sort shows up as span I/O *)
        let sort_ios = ref 0 in
        Storage.Trace.iter_spans t (fun sp ->
            if contains (Storage.Trace.span_name sp) "sort" then
              sort_ios := !sort_ios + Storage.Trace.span_ios sp);
        Alcotest.(check bool) "sort spans record I/O" true (!sort_ios > 0));
    tc "tracing leaves the answer and the counters unchanged" `Quick
      (fun () ->
        let e1, a1 = traced_run () in
        let e2, a2 = traced_run ~trace:(Storage.Trace.create ()) () in
        Test_util.check_same_answer "traced = untraced" a1 a2;
        let s1 = e1.Storage.Env.stats and s2 = e2.Storage.Env.stats in
        Alcotest.(check int) "page I/Os" (Storage.Iostats.total_ios s1)
          (Storage.Iostats.total_ios s2);
        Alcotest.(check int) "comparisons" (Storage.Iostats.comparisons s1)
          (Storage.Iostats.comparisons s2);
        Alcotest.(check int) "fuzzy ops" (Storage.Iostats.fuzzy_ops s1)
          (Storage.Iostats.fuzzy_ops s2));
    tc "per-span minor-heap allocation repeats exactly across runs" `Quick
      (fun () ->
        let words () =
          let t = Storage.Trace.create () in
          let _env, answer = traced_run ~trace:t () in
          Relation.destroy answer;
          let ws = ref [] in
          Storage.Trace.iter_spans t (fun sp ->
              ws := (Storage.Trace.span_name sp, Storage.Trace.span_minor_words sp) :: !ws);
          List.rev !ws
        in
        (* The first run also fills lazily built tables; compare the next two. *)
        ignore (words ());
        let a = words () in
        let b = words () in
        Alcotest.(check (list (pair string int))) "same words per span" a b;
        (match a with
        | ("query", w) :: _ ->
            Alcotest.(check bool) "the query allocates" true (w > 0);
            List.iter
              (fun (name, c) ->
                Alcotest.(check bool) (name ^ " within the query") true (c <= w))
              a
        | _ -> Alcotest.fail "expected the query span first"));
  ]

let exporter_tests =
  [
    tc "pp_tree renders times, I/Os and estimate errors" `Quick (fun () ->
        let t = Storage.Trace.create () in
        let _env, _answer = traced_run ~trace:t () in
        Storage.Trace.iter_spans t (fun sp ->
            if Storage.Trace.span_name sp = "sweep" then
              Storage.Trace.span_set_est_rows sp 10.0);
        let text = Format.asprintf "%a" Storage.Trace.pp_tree t in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("pp_tree has " ^ needle) true
              (contains text needle))
          [ "query"; "sweep"; "est~10"; "rows"; "alloc=" ]);
    tc "to_json nests children under their parent" `Quick (fun () ->
        let t = Storage.Trace.create () in
        Storage.Trace.with_span (Some t) "parent" (fun () ->
            Storage.Trace.with_span (Some t) "kid" (fun () -> ()));
        let json = Storage.Trace.to_json t in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("json has " ^ needle) true
              (contains json needle))
          [ {json|"name": "parent"|json}; {json|"name": "kid"|json};
            {json|"children"|json}; {json|"minor_words": |json} ]);
    tc "to_json writes lane 0 on every span" `Quick (fun () ->
        let t = Storage.Trace.create () in
        let _env, _answer = traced_run ~trace:t () in
        let json = Storage.Trace.to_json t in
        let needle = {json|"lane": |json} in
        let n = String.length needle in
        let rec lanes i acc =
          if i + n > String.length json then List.rev acc
          else if String.sub json i n = needle then
            lanes (i + n) (json.[i + n] :: acc)
          else lanes (i + 1) acc
        in
        let found = lanes 0 [] in
        Alcotest.(check int) "one lane field per span"
          (Storage.Trace.span_count t) (List.length found);
        Alcotest.(check bool) "every lane is 0" true
          (List.for_all (fun c -> c = '0') found));
    tc "chrome export emits one complete event per span + thread names"
      `Quick (fun () ->
        let t = Storage.Trace.create () in
        let _env, _answer = traced_run ~trace:t () in
        let json = Storage.Trace.to_chrome_json t in
        let count needle =
          let n = String.length needle in
          let rec go i acc =
            if i + n > String.length json then acc
            else if String.sub json i n = needle then go (i + n) (acc + 1)
            else go (i + 1) acc
          in
          go 0 0
        in
        Alcotest.(check int) "one X event per span"
          (Storage.Trace.span_count t)
          (count {json|"ph": "X"|json});
        Alcotest.(check bool) "thread metadata present" true
          (contains json {json|"thread_name"|json});
        Alcotest.(check bool) "coordinator lane named" true
          (contains json
             {json|{"ph": "M", "pid": 1, "tid": 0, "name": "thread_name", "args": {"name": "coordinator"}}|json});
        Alcotest.(check int) "every event on thread 0"
          (Storage.Trace.span_count t + 1)
          (count {json|"tid": 0,|json}));
  ]

(* The per-phase buckets that the bench and the repository benchmark report
   ([phase_ios]/[phase_seconds]) on a plan that spills its sorts. *)
let all_phases =
  Storage.Iostats.[ Sort; Merge; Join; Other ]

let phase_tests =
  [
    tc "sort I/O is charged to the Sort phase" `Quick (fun () ->
        let env, _answer = traced_run () in
        let stats = env.Storage.Env.stats in
        Alcotest.(check bool) "sort-phase I/O > 0" true
          (Storage.Iostats.phase_ios stats Storage.Iostats.Sort > 0);
        Alcotest.(check bool) "sort-phase I/O dominates Other" true
          (Storage.Iostats.phase_ios stats Storage.Iostats.Sort
          > Storage.Iostats.phase_ios stats Storage.Iostats.Other));
    tc "per-phase I/O sums to the run's total" `Quick (fun () ->
        let env, _answer = traced_run () in
        let s = env.Storage.Env.stats in
        Alcotest.(check int) "Sort + Merge + Join + Other = total"
          (Storage.Iostats.total_ios s)
          (List.fold_left
             (fun acc p -> acc + Storage.Iostats.phase_ios s p)
             0 all_phases));
  ]

let metrics_tests =
  [
    tc "counters find-or-register and accumulate" `Quick (fun () ->
        let m = Storage.Metrics.create () in
        let c = Storage.Metrics.counter m "queries" in
        Storage.Metrics.incr c;
        Storage.Metrics.incr ~by:4 (Storage.Metrics.counter m "queries");
        Alcotest.(check int) "value" 5 (Storage.Metrics.counter_value c);
        Alcotest.(check string) "name" "queries"
          (Storage.Metrics.counter_name c));
    tc "histograms record count/sum/min/max/quantiles" `Quick (fun () ->
        let m = Storage.Metrics.create () in
        let h = Storage.Metrics.histogram m "wall_s" in
        List.iter (Storage.Metrics.observe h) [ 0.001; 0.002; 0.004; 0.4 ];
        Alcotest.(check int) "count" 4 (Storage.Metrics.hist_count h);
        Alcotest.(check (float 1e-9)) "sum" 0.407 (Storage.Metrics.hist_sum h);
        Alcotest.(check (float 1e-9)) "min" 0.001 (Storage.Metrics.hist_min h);
        Alcotest.(check (float 1e-9)) "max" 0.4 (Storage.Metrics.hist_max h);
        let p50 = Storage.Metrics.hist_quantile h 0.5 in
        Alcotest.(check bool) "p50 bounds the median bucket" true
          (p50 >= 0.002 && p50 <= 0.008);
        Alcotest.(check (float 1e-9)) "p100 clamps to max" 0.4
          (Storage.Metrics.hist_quantile h 1.0));
    tc "reset zeroes but keeps instruments registered" `Quick (fun () ->
        let m = Storage.Metrics.create () in
        Storage.Metrics.incr (Storage.Metrics.counter m "c");
        Storage.Metrics.observe (Storage.Metrics.histogram m "h") 2.0;
        Storage.Metrics.reset m;
        Alcotest.(check int) "counter zero" 0
          (Storage.Metrics.counter_value (Storage.Metrics.counter m "c"));
        Alcotest.(check int) "hist zero" 0
          (Storage.Metrics.hist_count (Storage.Metrics.histogram m "h")));
    tc "pp and to_json list every instrument" `Quick (fun () ->
        let m = Storage.Metrics.create () in
        Storage.Metrics.incr ~by:3 (Storage.Metrics.counter m "ios");
        Storage.Metrics.observe (Storage.Metrics.histogram m "answer_size") 9.0;
        let text = Format.asprintf "%a" Storage.Metrics.pp m in
        Alcotest.(check bool) "pp has counter" true (contains text "ios");
        Alcotest.(check bool) "pp has histogram" true
          (contains text "answer_size");
        let json = Storage.Metrics.to_json m in
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("json has " ^ needle) true
              (contains json needle))
          [ {json|"ios"|json}; {json|"answer_size"|json} ]);
  ]

let suites =
  [
    ("observability.trace", trace_tests);
    ("observability.exporters", exporter_tests);
    ("observability.phases", phase_tests);
    ("observability.metrics", metrics_tests);
  ]

(** join-large: one in-process caller runs the paper's Table 1 type J
    query again and again through [Unnest.Planner.run], over a
    [Workload.Gen.join_pair] of 32768 tuples x 128 B per side (fan-out
    C = 7) against the paper's scaled 64-page buffer. Each relation is
    8x the pool, so the external sort runs multi-pass; almost all the
    work is sort plus merge sweep, and no server layer is involved.

    Every query starts from a cold pool, as the paper's cells do, so its
    page I/Os, comparisons and fuzzy ops repeat exactly; each query's
    counters and answer checksum must equal the first query's. *)

open Frepro
open Common

let pool_pages = 64

type state = {
  env : Storage.Env.t;
  catalog : Relational.Catalog.t;
}

let build ~seed ~tiny () =
  let t0 = now () in
  let env = Storage.Env.create ~pool_pages () in
  let n = if tiny then 2048 else 32768 in
  let spec =
    { Workload.Gen.default_spec with n; tuple_bytes = 128; groups = n / 7 }
  in
  let r, s = Workload.Gen.join_pair env ~seed ~outer:spec ~inner:spec in
  let catalog = Relational.Catalog.create env in
  Relational.Catalog.add catalog r;
  Relational.Catalog.add catalog s;
  ({ env; catalog }, [ ("setup.gen_s", now () -. t0) ])

(* One query: bind the SQL text and run it with the planner's defaults
   over the 64-page buffer. Returns the answer, its latency and the
   counters it moved. *)
let query ?spans ~op st =
  Storage.Env.reset_stats st.env;
  let before = snapshot st.env in
  let t0 = now () in
  let answer =
    Spans.span spans ~op "join.query" (fun root ->
        let q =
          Spans.span spans ~parent:root ~op "fuzzysql.bind" (fun _ ->
              Fuzzysql.Analyzer.bind_string ~catalog:st.catalog
                ~terms:Fuzzy.Term.paper type_j_sql)
        in
        Spans.span spans ~parent:root ~op "unnest.run" (fun run ->
            let run_start = now () in
            let answer = Unnest.Planner.run ~mem_pages:pool_pages q in
            (* The library times its Sort and Merge phases itself; place
               them under the run span by duration, so the run's self time
               is the planner's remaining work (scans, reduce, dedup). *)
            (match spans with
            | Some sp ->
                let c = diff (snapshot st.env) before in
                let s1 = run_start +. c.sort_s in
                ignore
                  (Spans.add sp ~parent:run ~op "external_sort.sort"
                     ~start_s:run_start ~stop_s:s1);
                ignore
                  (Spans.add sp ~parent:run ~op "join_merge.sweep" ~start_s:s1
                     ~stop_s:(s1 +. c.merge_s))
            | None -> ());
            answer))
  in
  let latency = now () -. t0 in
  let moved = diff (snapshot st.env) before in
  let rows =
    Fun.protect
      ~finally:(fun () -> Relational.Relation.destroy answer)
      (fun () -> rows_of_relation answer)
  in
  (checksum [ rows ], latency, moved)

let same_work a b =
  a.ios = b.ios && a.sort_ios = b.sort_ios && a.merge_ios = b.merge_ios
  && a.comparisons = b.comparisons && a.fuzzy_ops = b.fuzzy_ops
  && a.hits = b.hits && a.misses = b.misses

let run ~seed ~seconds ~trace ~tiny =
  let st, setup_s, setup_parts =
    repeat_setup setups (build ~seed ~tiny) (fun _ -> ())
  in
  let op = ref 0 in
  let ref_sum, _, ref_work = query ~op:0 st in
  let errors = ref [] in
  let phase ?spans duration =
    let stop_at = now () +. duration in
    let lats = ref [] and works = ref [] in
    while now () < stop_at do
      incr op;
      let sum, lat, work = query ?spans ~op:!op st in
      if sum <> ref_sum then
        errors := Printf.sprintf "query %d: answer checksum drifted" !op :: !errors;
      if not (same_work work ref_work) then
        errors := Printf.sprintf "query %d: storage counters drifted" !op :: !errors;
      lats := lat :: !lats;
      works := work :: !works
    done;
    (!lats, !works)
  in
  let attempted () = !op in
  if not trace then begin
    let t0 = now () in
    let lats, _ = phase seconds in
    let wall = now () -. t0 in
    ( {
        attempted = attempted ();
        failed = 0;
        errors = !errors;
        checksum = ref_sum;
        metrics =
          [
            ("setup_s", setup_s);
            ("ops_per_s", float_of_int (List.length lats) /. wall);
            ("read_p50_ms", ms (Stats.median lats));
            ("ok_frac", 1.0);
            ("peak_rss_mb", peak_rss_mb ());
          ]
          @ latency_metrics lats;
      },
      None )
  end
  else begin
    let plain, _ = phase (seconds /. 2.0) in
    let spans = Spans.create () in
    let traced, works = phase ~spans (seconds /. 2.0) in
    let self name = ms (Stats.median (Spans.self_of spans name)) in
    let layers =
      [
        "join.query"; "fuzzysql.bind"; "unnest.run"; "external_sort.sort";
        "join_merge.sweep";
      ]
    in
    let p50 = ms (Stats.median plain) in
    ( {
        attempted = attempted ();
        failed = 0;
        errors = !errors;
        checksum = ref_sum;
        metrics =
          setup_parts
          @ [
              ("fuzzysql.bind_us", 1000.0 *. self "fuzzysql.bind");
              ("unnest.self_ms", self "unnest.run");
              ( "external_sort.sort_s",
                Stats.median (List.map (fun w -> w.sort_s) works) );
              ( "join_merge.sweep_s",
                Stats.median (List.map (fun w -> w.merge_s) works) );
              ("trace.residual_ms", Float.abs (p50 -. Stats.sum (List.map self layers)));
              ("trace.overhead_ms", ms (Stats.median traced) -. p50);
              tail_metric plain;
            ]
          @ exact_metrics ref_work @ pool_metrics ref_work;
      },
      Some spans )
  end

(** The repository benchmark.

    {v perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny] v}

    Runs one workload for [S] seconds on inputs generated from seed [N],
    checks every output, and prints as its last line one JSON object with
    the keys [correct], [attempted], [failed] and [metrics]. With
    [--trace 0] the metrics are the end-to-end ones, measured untraced;
    with [--trace 1] they are the per-layer ones, from a run whose first
    half is untraced and whose second half records spans (written to
    [perfbench/_out/]). [--tiny] shrinks every input, for the self-test.
    Exits 1 when any output is wrong. *)

(* Every metric, with its unit, in print order. A workload that does not
   call a layer reports 0 for it. *)
let end_to_end =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("p50_ms", "ms"); ("p90_ms", "ms");
    ("read_p50_ms", "ms"); ("ok_frac", "ratio"); ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("setup.gen_s", "s"); ("setup.daemon_start_s", "s");
    ("setup.replica_sync_s", "s"); ("wire.residual_ms", "ms");
    ("daemon.server_ms", "ms"); ("daemon.queue_wait_ms", "ms");
    ("daemon.plan_ms", "ms"); ("daemon.exec_ms", "ms"); ("daemon.emit_ms", "ms");
    ("fuzzysql.bind_us", "us"); ("fuzzysql.check_us", "us");
    ("unnest.run_ms.N", "ms"); ("unnest.run_ms.J", "ms");
    ("unnest.run_ms.JX", "ms"); ("unnest.run_ms.JA", "ms");
    ("unnest.run_ms.JALL", "ms"); ("unnest.run_ms.chain", "ms");
    ("unnest.run_ms.dating", "ms"); ("unnest.self_ms", "ms");
    ("unnest.read_ms", "ms"); ("external_sort.sort_s", "s");
    ("join_merge.sweep_s", "s"); ("storage.page_ios", "count");
    ("storage.sort_ios", "count"); ("storage.merge_ios", "count");
    ("storage.comparisons", "count"); ("relational.fuzzy_ops", "count");
    ("buffer_pool.hit_ratio", "ratio"); ("buffer_pool.lookups", "count");
    ("relation.insert_ms", "ms"); ("wal.commit_ms", "ms");
    ("replication.wait_applied_ms", "ms"); ("wal.fsyncs_per_commit", "ratio");
    ("wal.bytes_per_user_byte", "ratio"); ("replication.lag_bytes", "bytes");
    ("op.p99_ms", "ms"); ("trace.residual_ms", "ms");
    ("trace.overhead_ms", "ms");
  ]

let workloads =
  [
    ("serve-small", Serve_small.run);
    ("join-large", Join_large.run);
    ("ingest-replicated", Ingest_replicated.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and tiny = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--tiny" :: rest -> tiny := true; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some run, Some seed, Some seconds, Some trace when seconds > 0.0 ->
      (!workload, run, seed, seconds, trace, !tiny)
  | _ -> usage ()

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let name, run, seed, seconds, trace, tiny = parse_args () in
  let outcome, spans = run ~seed ~seconds ~trace ~tiny in
  let table = if trace then per_layer else end_to_end in
  let value m =
    match List.assoc_opt m outcome.Common.metrics with
    | Some v when Float.is_finite v -> v
    | _ when trace -> 0.0
    | _ -> failwith ("workload did not measure " ^ m)
  in
  (match spans with
  | Some spans ->
      let dir = Filename.concat "perfbench" "_out" in
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir (Printf.sprintf "%s-seed%d.spans.json" name seed) in
      Spans.write spans ~path;
      Printf.printf "spans: %s (%d recorded)\n" path (List.length spans.Spans.spans)
  | None -> ());
  List.iter (fun e -> Printf.printf "WRONG: %s\n" e) (List.rev outcome.errors);
  Printf.printf "answer checksum: %s\n" (json_number outcome.checksum);
  List.iter
    (fun (m, u) -> Printf.printf "%-30s %14s %s\n" m (json_number (value m)) u)
    table;
  let correct = outcome.errors = [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct outcome.attempted outcome.failed
    (String.concat ", "
       (List.map
          (fun (m, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m
              (json_number (value m)) u)
          table));
  exit (if correct then 0 else 1)

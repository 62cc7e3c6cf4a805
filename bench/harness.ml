(** Measurement harness shared by every table/figure bench.

    Each cell of a Section 9 experiment evaluates the same type J query with
    the nested-loop method or the unnesting merge-join over generated
    relations, in a fresh storage environment, and reports the paper's
    metrics: response time (modelled as CPU + #IO x io_latency), CPU time,
    I/O count, and the sorting share of the merge-join.

    Scaling: the paper used a 2 MB buffer against 1-32 MB relations on a 1995
    SPARC/IPC. By default every size is divided by 4 (512 KB buffer = 64
    pages, relations 0.25-8 MB) so the suite finishes in minutes while
    preserving the relation : buffer ratios; where the paper's nested loop
    "takes too long to terminate" (>= 16 MB), ours is skipped the same way.
    Note that scaling n by k compresses the quadratic-vs-linear speedup by
    ~k, so the default speedups are about a quarter of the paper's;
    [--full] restores the paper's absolute sizes (and its speedup range) at
    the cost of a much longer run. *)

open Frepro
open Frepro.Relational

type config = {
  scale : int;  (** divide paper sizes by this (1 = paper scale) *)
  io_latency : float;  (** seconds per page transfer (1995 disk ~ 20 ms) *)
  seed : int;
}

(* Calibration of [io_latency]: the paper's SPARC/IPC spent ~7.8 us per
   fuzzy-predicate evaluation (501 s for 8192x8192 pairs in Table 1) against
   ~20 ms per page transfer — about 2,500 fuzzy ops per I/O. This build's
   fuzzy op costs ~0.4 us, so a period-accurate 20 ms disk would drown the
   CPU side and invert every trade-off the paper measured. The default
   latency keeps the paper's CPU : I/O ratio (20 ms scaled by the ~40x CPU
   speedup => 0.5 ms); pass [--io-latency 0.02] for the period-accurate
   disk. *)
let default_config =
  { scale = 4; io_latency = 0.0005; seed = 42 }

(* The paper's buffer: 2 MB of 8 KB pages, scaled. *)
let mem_pages cfg = Int.max 8 (256 / cfg.scale)

(** Tuples per paper-megabyte at 128-byte tuples. *)
let tuples_per_mb = 8192

let spec_of ~paper_mb ~tuple_bytes ~fanout cfg =
  let n = paper_mb * tuples_per_mb / cfg.scale * 128 / tuple_bytes in
  let n = Int.max 1 n in
  {
    Workload.Gen.default_spec with
    n;
    tuple_bytes;
    groups = Int.max 1 (int_of_float (float_of_int n /. fanout));
  }

type metrics = {
  response : float;  (** seconds: cpu + io * latency *)
  cpu : float;
  wall : float;  (** actual wall-clock seconds of the evaluation *)
  ios : int;
  sort_share : float;  (** fraction of response spent sorting *)
  fuzzy_ops : int;
  answer_size : int;
}

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every measured cell of every target is one
   row — a bench name plus an ordered list of typed fields — appended to
   an in-memory log and dumped as BENCH_results.json at the end of the
   run, so plots and regression checks don't have to scrape the tables. *)

type field =
  | Int of int
  | Fixed of int * float  (** printed with this many decimals *)
  | Float of float  (** printed with [%g] *)
  | Text of string
  | Flag of bool
  | Json of string  (** a ready-made JSON value, emitted verbatim *)

type row = { bench : string; fields : (string * field) list }

let results : row list ref = ref []
let record bench fields = results := { bench; fields } :: !results

(* Run-wide metrics registry: one observation per measured cell. The
   summary is printed (and dumped as JSON) at the end of the bench run. *)
let metrics = Storage.Metrics.create ()

(* Order-independent answer digest: each tuple hashes to a 64-bit value
   (MD5 over its printed attribute values and the raw IEEE-754 bits of its
   degree) and the tuple hashes are combined with addition, so two runs
   producing the same multiset of answers — possibly in different tie
   orders after their sorts, e.g. at different domain counts — get the
   same checksum, and any flipped degree bit changes it. *)
let checksum_of_rows rows =
  let acc = ref 0L in
  List.iter
    (fun (values, degree_bits) ->
      let buf = Buffer.create 64 in
      List.iter
        (fun v ->
          Buffer.add_string buf v;
          Buffer.add_char buf '\x00')
        values;
      Buffer.add_string buf (Printf.sprintf "%Lx" degree_bits);
      let d = Digest.string (Buffer.contents buf) in
      let h = ref 0L in
      for i = 0 to 7 do
        h := Int64.logor (Int64.shift_left !h 8)
               (Int64.of_int (Char.code d.[i]))
      done;
      acc := Int64.add !acc !h)
    rows;
  Printf.sprintf "%016Lx" !acc

(* An answer as (printed values, IEEE-754 degree bits) rows. Rows received
   over the wire carry the same printed values and degree bits the engine
   produced, so [checksum_of_rows (wire_rows rows)] on a client's answer
   equals [answer_checksum] on the relation — the telemetry bench and the
   failover chaos source compare daemon-served answers that way. *)
let relation_rows rel =
  let rows = ref [] in
  Relation.iter rel (fun t ->
      rows :=
        ( Array.to_list (Array.map Value.to_string t.Ftuple.values),
          Int64.bits_of_float (Ftuple.degree t) )
        :: !rows);
  !rows

let wire_rows rows =
  List.map
    (fun (r : Server.Client.row) -> (r.values, Int64.bits_of_float r.degree))
    rows

let answer_checksum rel = checksum_of_rows (relation_rows rel)

(* The process's peak resident set (VmHWM) in MB; 0 where /proc is absent. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb / 1024)
        | _ -> scan ()
        | exception End_of_file -> 0
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Normal form for exact answer comparison: rows sorted, degrees as bits. *)
let normal_rows rows = List.sort compare rows

let field_json = function
  | Int i -> string_of_int i
  | Fixed (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | Float x -> Printf.sprintf "%g" x
  | Text s -> "\"" ^ Storage.Metrics.json_escape s ^ "\""
  | Flag b -> string_of_bool b
  | Json j -> j

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\": %s" (Storage.Metrics.json_escape k)
             (field_json v))
         fields)
  ^ "}"

(* A JSON array with one element per line, indented [indent] spaces. *)
let json_lines ~indent items =
  let pad = String.make indent ' ' in
  match items with
  | [] -> "[\n" ^ pad ^ "]"
  | _ ->
      "[\n"
      ^ String.concat ",\n" (List.map (fun s -> pad ^ "  " ^ s) items)
      ^ "\n" ^ pad ^ "]"

let write_results path =
  let rows = List.rev !results in
  let oc = open_out path in
  output_string oc
    (json_lines ~indent:0
       (List.map (fun r -> json_object (("bench", Text r.bench) :: r.fields)) rows));
  output_string oc "\n";
  close_out oc

(* One engine-measurement row (the Section 9 cells, and the kernels and
   telemetry benches). [checksum] is the order-independent answer digest,
   so cells of two builds can be asserted bit-identical from the JSON
   alone. *)
let record_measurement ~bench ~cell ~method_ ~scale ~wall ~response ~cpu ~ios
    ~fuzzy_ops ~answer_size ~checksum =
  record bench
    [
      ("cell", Text cell); ("method", Text method_); ("scale", Int scale);
      ("wall_s", Fixed (6, wall)); ("response_s", Fixed (6, response));
      ("cpu_s", Fixed (6, cpu)); ("ios", Int ios); ("fuzzy_ops", Int fuzzy_ops);
      ("answer_size", Int answer_size); ("checksum", Text checksum);
    ]

(* The canonical type J query of the experiments (Section 9 uses type J to
   illustrate): correlated IN subquery joining on the fuzzy attribute X. *)
let bench_sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.W <= R.W)"

type method_ = Nested_loop | Merge_join

let method_name = function
  | Nested_loop -> "Nested Loop"
  | Merge_join -> "Merge-join"

let run_cell ?(bench = "adhoc") ?(cell = "") ?trace cfg ~outer ~inner method_ =
  let env = Storage.Env.create ~pool_pages:(mem_pages cfg) () in
  let r, s = Workload.Gen.join_pair env ~seed:cfg.seed ~outer ~inner in
  let catalog = Catalog.create env in
  Catalog.add catalog r;
  Catalog.add catalog s;
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper bench_sql in
  let shape =
    match Unnest.Classify.classify q with
    | Unnest.Classify.Two_level shape -> shape
    | other ->
        failwith ("bench query misclassified as " ^ Unnest.Classify.to_string other)
  in
  let stats = env.Storage.Env.stats in
  Storage.Env.reset_stats env;
  let wall_start = Unix.gettimeofday () in
  let answer =
    Storage.Iostats.timed stats Storage.Iostats.Other (fun () ->
        match method_ with
        | Nested_loop ->
            Unnest.Nl_exec.run ?trace shape ~mem_pages:(mem_pages cfg)
        | Merge_join ->
            Unnest.Merge_exec.run ?trace shape ~mem_pages:(mem_pages cfg))
  in
  let wall = Unix.gettimeofday () -. wall_start in
  let cpu = Storage.Iostats.cpu_seconds stats in
  let ios = Storage.Iostats.total_ios stats in
  let response = cpu +. (float_of_int ios *. cfg.io_latency) in
  let sort_time =
    Storage.Iostats.phase_seconds stats Storage.Iostats.Sort
    +. (float_of_int (Storage.Iostats.phase_ios stats Storage.Iostats.Sort)
       *. cfg.io_latency)
  in
  let m =
    {
      response;
      cpu;
      wall;
      ios;
      sort_share = (if response > 0.0 then sort_time /. response else 0.0);
      fuzzy_ops = Storage.Iostats.fuzzy_ops stats;
      answer_size = Relation.cardinality answer;
    }
  in
  record_measurement ~bench ~cell ~method_:(method_name method_)
    ~scale:cfg.scale ~wall:m.wall ~response:m.response ~cpu:m.cpu ~ios:m.ios
    ~fuzzy_ops:m.fuzzy_ops ~answer_size:m.answer_size
    ~checksum:(answer_checksum answer);
  Storage.Metrics.incr (Storage.Metrics.counter metrics "cells");
  Storage.Metrics.incr
    (Storage.Metrics.counter metrics
       (match method_ with
       | Nested_loop -> "cells_nested_loop"
       | Merge_join -> "cells_merge_join"));
  Storage.Metrics.incr ~by:m.ios (Storage.Metrics.counter metrics "ios");
  Storage.Metrics.incr ~by:m.fuzzy_ops
    (Storage.Metrics.counter metrics "fuzzy_ops");
  Storage.Metrics.observe (Storage.Metrics.histogram metrics "wall_s") m.wall;
  Storage.Metrics.observe
    (Storage.Metrics.histogram metrics "response_s")
    m.response;
  Storage.Metrics.observe
    (Storage.Metrics.histogram metrics "answer_size")
    (float_of_int m.answer_size);
  m

(* Scratch data directories for the durable-storage benches. *)
let temp_dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir f =
  incr temp_dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "frepro-bench-%d-%d" (Unix.getpid ()) !temp_dir_counter)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let str_seconds s =
  if s >= 100.0 then Printf.sprintf "%.0f" s
  else if s >= 1.0 then Printf.sprintf "%.1f" s
  else Printf.sprintf "%.3f" s

let hr ppf width = Format.fprintf ppf "%s@." (String.make width '-')

let section title = Format.printf "@.==== %s ====@." title
let note fmt = Format.printf fmt

(* Index of the first occurrence of [sub] in [s]. *)
let find_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let contains ~sub s = find_sub ~sub s <> None

(* One query per nesting shape of the paper (plus a chain), all over the
   generated R/S/T of [Server.Demo.load_nested]: the mix of the [load]
   bench and the [chaos] fault source. *)
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
  ]

(* Ground truth for [shapes]: the fault-free sequential engine over the
   same loader, as normal-form rows per shape name. *)
let expected_answers setup =
  let env = Storage.Env.create () in
  let catalog = Catalog.create env in
  setup env catalog;
  List.map
    (fun (name, sql) ->
      let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
      (name, normal_rows (relation_rows (Unnest.Planner.run q))))
    shapes

(* Replace [path] atomically with [n]: tmp + fsync + rename, so a reader
   (or a SIGKILL) sees either the old value or the new one. *)
let write_int_durably path n =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let s = string_of_int n ^ "\n" in
  ignore (Unix.write_substring fd s 0 (String.length s));
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp path

let read_int path =
  match open_in path with
  | ic ->
      let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
      close_in ic;
      n
  | exception Sys_error _ -> 0

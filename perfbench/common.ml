(** What every workload shares: answer normal form and checksums, the
    library counters read around a call, set-up repetition, and the
    outcome a workload hands back to [Perfbench]. *)

open Frepro

let now = Unix.gettimeofday
let ms s = 1000.0 *. s

(* The paper's Table 1 type J query (the Section 9 bench query). *)
let type_j_sql =
  "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.W <= R.W)"

(* ---- Answers ---------------------------------------------------------- *)

(* An answer in normal form: rows sorted, each its printed values and the
   raw IEEE-754 bits of its degree. The wire carries degrees as bits, so
   equality here is bit for bit. *)
type rows = (string list * int64) list

let rows_of_relation rel : rows =
  Relational.Relation.fold rel ~init:[] ~f:(fun acc t ->
      ( Array.to_list (Array.map Relational.Value.to_string t.Relational.Ftuple.values),
        Int64.bits_of_float (Relational.Ftuple.degree t) )
      :: acc)
  |> List.sort compare

let rows_of_reply (rows : Server.Client.row list) : rows =
  List.map
    (fun (r : Server.Client.row) -> (r.values, Int64.bits_of_float r.degree))
    rows
  |> List.sort compare

(** Run a bound query with the planner's defaults and return its answer in
    normal form, freeing the answer relation. *)
let run_rows q =
  let answer = Unnest.Planner.run q in
  Fun.protect
    ~finally:(fun () -> Relational.Relation.destroy answer)
    (fun () -> rows_of_relation answer)

(* A 48-bit digest of answers, exact as a JSON number. *)
let checksum (answers : rows list) =
  let d = Digest.string (Marshal.to_string answers []) in
  let h = ref 0 in
  for i = 0 to 5 do
    h := (!h lsl 8) lor Char.code d.[i]
  done;
  float_of_int !h

(* ---- Library counters ------------------------------------------------- *)

(* Storage counters of one environment at one instant; [diff] of two is
   the work done in between. Page I/Os, comparisons and fuzzy ops repeat
   exactly for the same inputs; the phase seconds are wall time. *)
type counters = {
  ios : int;
  sort_ios : int;
  merge_ios : int;
  comparisons : int;
  fuzzy_ops : int;
  sort_s : float;
  merge_s : float;
  hits : int;
  misses : int;
}

let zero =
  {
    ios = 0;
    sort_ios = 0;
    merge_ios = 0;
    comparisons = 0;
    fuzzy_ops = 0;
    sort_s = 0.0;
    merge_s = 0.0;
    hits = 0;
    misses = 0;
  }

let snapshot (env : Storage.Env.t) =
  let st = env.stats in
  let pools =
    if env.pool == env.temp_pool then [ env.pool ] else [ env.pool; env.temp_pool ]
  in
  let hits, misses =
    List.fold_left
      (fun (h, m) p ->
        let h', m' = Storage.Buffer_pool.counters p in
        (h + h', m + m'))
      (0, 0) pools
  in
  let open Storage.Iostats in
  {
    ios = total_ios st;
    sort_ios = phase_ios st Sort;
    merge_ios = phase_ios st Merge;
    comparisons = comparisons st;
    fuzzy_ops = fuzzy_ops st;
    sort_s = phase_seconds st Sort;
    merge_s = phase_seconds st Merge;
    hits;
    misses;
  }

let combine f g a b =
  {
    ios = f a.ios b.ios;
    sort_ios = f a.sort_ios b.sort_ios;
    merge_ios = f a.merge_ios b.merge_ios;
    comparisons = f a.comparisons b.comparisons;
    fuzzy_ops = f a.fuzzy_ops b.fuzzy_ops;
    sort_s = g a.sort_s b.sort_s;
    merge_s = g a.merge_s b.merge_s;
    hits = f a.hits b.hits;
    misses = f a.misses b.misses;
  }

let diff = combine ( - ) ( -. )
let add = combine ( + ) ( +. )

(** [measured env f] is [f ()] and the counters it moved. *)
let measured env f =
  let before = snapshot env in
  let v = f () in
  (v, diff (snapshot env) before)

(* The counters that repeat exactly, as per-layer metrics. *)
let exact_metrics c =
  [
    ("storage.page_ios", float_of_int c.ios);
    ("storage.sort_ios", float_of_int c.sort_ios);
    ("storage.merge_ios", float_of_int c.merge_ios);
    ("storage.comparisons", float_of_int c.comparisons);
    ("relational.fuzzy_ops", float_of_int c.fuzzy_ops);
  ]

let pool_metrics c =
  let lookups = c.hits + c.misses in
  [
    ( "buffer_pool.hit_ratio",
      if lookups = 0 then 0.0 else float_of_int c.hits /. float_of_int lookups );
    ("buffer_pool.lookups", float_of_int lookups);
  ]

(* ---- Process ---------------------------------------------------------- *)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

(* Scratch files live inside the checkout, under a directory the build
   and version control both ignore. *)
let work_root = Filename.concat "perfbench" "_work"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir name =
  (try Unix.mkdir work_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir =
    Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

(* ---- Set-up and outcome ----------------------------------------------- *)

(* Set-up is short and the host is noisy: build this many times per run
   and report the median. *)
let setups = 11

(** [repeat_setup k build teardown] builds [k] times, tearing down all but
    the last build, and returns it with the median of every named set-up
    part and of the total. [build] returns its value and its parts in
    seconds. A full major collection after each build, untimed, lets every
    build and the measured phase after them start from the same heap
    rather than from the garbage of the builds before. *)
let repeat_setup k build teardown =
  let rec go i acc =
    let t0 = now () in
    let v, parts = build () in
    let total = now () -. t0 in
    let acc = (total, parts) :: acc in
    if i < k then teardown v;
    Gc.full_major ();
    if i < k then go (i + 1) acc else (v, acc)
  in
  let v, runs = go 1 [] in
  let part name =
    Stats.median (List.map (fun (_, parts) -> List.assoc name parts) runs)
  in
  let names = List.map fst (snd (List.hd runs)) in
  (v, Stats.median (List.map fst runs), List.map (fun n -> (n, part n)) names)

type outcome = {
  attempted : int;
  failed : int;  (** ops that got no answer (refused, overloaded, failed) *)
  errors : string list;  (** wrong outputs; any makes the run incorrect *)
  checksum : float;  (** digest of the answers that repeat exactly *)
  metrics : (string * float) list;
}

(* Latency metrics of one set of op latencies (seconds). The bounded tail
   is p90: on this benchmark's 2-vCPU host the run-to-run spread of p99
   (25-39% of its median) exceeds any allowed bound, so p99 is reported
   per layer, unbounded, as [op.p99_ms]. *)
let latency_metrics lats =
  [ ("p50_ms", ms (Stats.median lats)); ("p90_ms", ms (Stats.tail 0.9 lats)) ]

let tail_metric lats = ("op.p99_ms", ms (Stats.tail 0.99 lats))

type span = {
  name : string;
  start_s : float;
  mutable dur_s : float;
  mutable reads : int;
  mutable writes : int;
  mutable compares : int;
  mutable fuzzy : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
  mutable minor_words : int;
  mutable rows : int;
  mutable est_rows : float;
  mutable rev_children : span list;
}

type t = {
  t0 : float;
  mutable stack : span list;  (** open spans, innermost first *)
  mutable rev_roots : span list;
}

let now () = Unix.gettimeofday ()

(* Words allocated on this domain's minor heap so far: exact in native
   code, and the same count on every run of the same work. *)
let minor_words () = int_of_float (Gc.minor_words ())

let create () = { t0 = now (); stack = []; rev_roots = [] }

let attach t sp =
  match t.stack with
  | parent :: _ -> parent.rev_children <- sp :: parent.rev_children
  | [] -> t.rev_roots <- sp :: t.rev_roots

let open_span t ?stats ?pool name =
  let sp =
    {
      name;
      start_s = now () -. t.t0;
      dur_s = 0.0;
      reads = (match stats with Some s -> -Iostats.page_reads s | None -> 0);
      writes = (match stats with Some s -> -Iostats.page_writes s | None -> 0);
      compares = (match stats with Some s -> -Iostats.comparisons s | None -> 0);
      fuzzy = (match stats with Some s -> -Iostats.fuzzy_ops s | None -> 0);
      pool_hits = (match pool with Some p -> -Buffer_pool.hits p | None -> 0);
      pool_misses = (match pool with Some p -> -Buffer_pool.misses p | None -> 0);
      minor_words = 0;
      rows = -1;
      est_rows = Float.nan;
      rev_children = [];
    }
  in
  attach t sp;
  t.stack <- sp :: t.stack;
  (* Last, so the span's own bookkeeping is not charged to it. *)
  sp.minor_words <- -minor_words ();
  sp

let close_span t ?stats ?pool sp =
  sp.minor_words <- sp.minor_words + minor_words ();
  sp.dur_s <- now () -. t.t0 -. sp.start_s;
  (match stats with
  | Some s ->
      sp.reads <- sp.reads + Iostats.page_reads s;
      sp.writes <- sp.writes + Iostats.page_writes s;
      sp.compares <- sp.compares + Iostats.comparisons s;
      sp.fuzzy <- sp.fuzzy + Iostats.fuzzy_ops s
  | None ->
      sp.reads <- 0;
      sp.writes <- 0;
      sp.compares <- 0;
      sp.fuzzy <- 0);
  (match pool with
  | Some p ->
      sp.pool_hits <- sp.pool_hits + Buffer_pool.hits p;
      sp.pool_misses <- sp.pool_misses + Buffer_pool.misses p
  | None ->
      sp.pool_hits <- 0;
      sp.pool_misses <- 0);
  match t.stack with
  | top :: rest when top == sp -> t.stack <- rest
  | _ -> invalid_arg "Trace.close_span: span is not innermost"

let with_span trace ?stats ?pool name f =
  match trace with
  | None -> f ()
  | Some t -> (
      let sp = open_span t ?stats ?pool name in
      match f () with
      | v ->
          close_span t ?stats ?pool sp;
          v
      | exception e ->
          close_span t ?stats ?pool sp;
          raise e)

(* A pre-measured span (e.g. a server request's queue wait, timed by the
   admission layer before any worker ran code for it) attached under the
   innermost open span. [start_s] is absolute wall-clock time; counters are
   zero. *)
let add_timed_span trace name ~start_s ~dur_s =
  match trace with
  | None -> ()
  | Some t ->
      let sp =
        {
          name;
          start_s = start_s -. t.t0;
          dur_s;
          reads = 0;
          writes = 0;
          compares = 0;
          fuzzy = 0;
          pool_hits = 0;
          pool_misses = 0;
          minor_words = 0;
          rows = -1;
          est_rows = Float.nan;
          rev_children = [];
        }
      in
      attach t sp

let annotate trace g =
  match trace with
  | None -> ()
  | Some t -> ( match t.stack with sp :: _ -> g sp | [] -> ())

let set_rows trace n = annotate trace (fun sp -> sp.rows <- n)
let set_est_rows trace e = annotate trace (fun sp -> sp.est_rows <- e)

(* ------------------------------------------------------------------ *)
(* Inspection *)

let roots t = List.rev t.rev_roots
let span_name sp = sp.name
let span_children sp = List.rev sp.rev_children
let span_duration sp = sp.dur_s
let span_ios sp = sp.reads + sp.writes
let span_reads sp = sp.reads
let span_writes sp = sp.writes
let span_compares sp = sp.compares
let span_fuzzy_ops sp = sp.fuzzy
let span_minor_words sp = sp.minor_words
let span_rows sp = if sp.rows < 0 then None else Some sp.rows

let span_est_rows sp =
  if Float.is_nan sp.est_rows then None else Some sp.est_rows

let span_set_est_rows sp e = sp.est_rows <- e

let iter_spans t f =
  let rec go sp =
    f sp;
    List.iter go (span_children sp)
  in
  List.iter go (roots t)

let span_count t =
  let n = ref 0 in
  iter_spans t (fun _ -> incr n);
  !n

(* ------------------------------------------------------------------ *)
(* Exporters *)

let str_ms s =
  if s >= 1.0 then Printf.sprintf "%.2f s" s
  else Printf.sprintf "%.2f ms" (1000.0 *. s)

let str_words w =
  if w >= 1_000_000 then Printf.sprintf "%.2fMw" (float_of_int w /. 1e6)
  else if w >= 1_000 then Printf.sprintf "%.1fkw" (float_of_int w /. 1e3)
  else Printf.sprintf "%dw" w

let span_line buf sp =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%s  %s" sp.name (str_ms sp.dur_s);
  if sp.reads + sp.writes > 0 then add "  ios=%d+%d" sp.reads sp.writes;
  if sp.compares > 0 then add "  cmp=%d" sp.compares;
  if sp.fuzzy > 0 then add "  fuzzy=%d" sp.fuzzy;
  if sp.pool_hits + sp.pool_misses > 0 then
    add "  cache=%d/%d" sp.pool_hits (sp.pool_hits + sp.pool_misses);
  if sp.minor_words > 0 then add "  alloc=%s" (str_words sp.minor_words);
  if sp.rows >= 0 then add "  rows=%d" sp.rows;
  if not (Float.is_nan sp.est_rows) then begin
    add "  est~%.0f" sp.est_rows;
    if sp.rows > 0 && sp.est_rows > 0.0 then
      add " (x%.2f)" (Float.max sp.est_rows (float_of_int sp.rows)
                      /. Float.min sp.est_rows (float_of_int sp.rows))
  end

let pp_tree ppf t =
  let buf = Buffer.create 1024 in
  let rec go prefix child_prefix sp =
    Buffer.add_string buf prefix;
    span_line buf sp;
    Buffer.add_char buf '\n';
    let children = span_children sp in
    let n = List.length children in
    List.iteri
      (fun i c ->
        let last = i = n - 1 in
        go
          (child_prefix ^ if last then "`- " else "|- ")
          (child_prefix ^ if last then "   " else "|  ")
          c)
      children
  in
  List.iter (fun sp -> go "" "" sp) (roots t);
  Format.pp_print_string ppf (Buffer.contents buf)

let span_args_json buf sp =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add
    "{\"reads\": %d, \"writes\": %d, \"compares\": %d, \"fuzzy_ops\": %d, \
     \"minor_words\": %d"
    sp.reads sp.writes sp.compares sp.fuzzy sp.minor_words;
  if sp.pool_hits + sp.pool_misses > 0 then
    add ", \"cache_hits\": %d, \"cache_misses\": %d" sp.pool_hits
      sp.pool_misses;
  if sp.rows >= 0 then add ", \"rows\": %d" sp.rows;
  if not (Float.is_nan sp.est_rows) then add ", \"est_rows\": %.1f" sp.est_rows;
  add "}"

let to_json t =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let rec go sp =
    add "{\"name\": \"%s\", \"lane\": 0, \"start_s\": %.6f, \"dur_s\": %.6f, \
         \"args\": "
      (Metrics.json_escape sp.name) sp.start_s sp.dur_s;
    span_args_json buf sp;
    add ", \"children\": [";
    List.iteri
      (fun i c ->
        if i > 0 then add ", ";
        go c)
      (span_children sp);
    add "]}"
  in
  add "[";
  List.iteri
    (fun i sp ->
      if i > 0 then add ", ";
      go sp)
    (roots t);
  add "]";
  Buffer.contents buf

(* Chrome trace_event format: an array of complete ("ph": "X") events with
   microsecond timestamps on one thread, loadable in chrome://tracing and
   Perfetto. *)
let to_chrome_json t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "[\n";
  (* A trace with spans opens with the thread's metadata event, so every
     span event that follows starts with its separator. *)
  if t.rev_roots <> [] then
    add
      "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \
       \"thread_name\", \"args\": {\"name\": \"coordinator\"}}";
  iter_spans t (fun sp ->
      add
        ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": \"%s\", \
         \"ts\": %.3f, \"dur\": %.3f, \"args\": "
        (Metrics.json_escape sp.name)
        (1e6 *. sp.start_s)
        (1e6 *. sp.dur_s);
      span_args_json buf sp;
      add "}");
  add "\n]\n";
  Buffer.contents buf

let write_chrome t ~path =
  let oc = open_out path in
  output_string oc (to_chrome_json t);
  close_out oc

type phase = Sort | Merge | Join | Other

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable fuzzy : int;
  mutable compares : int;
  mutable sort_s : float;
  mutable merge_s : float;
  mutable join_s : float;
  mutable other_s : float;
  mutable sort_io : int;
  mutable merge_io : int;
  mutable join_io : int;
  mutable other_io : int;
  mutable active : phase option;  (** innermost running phase *)
}

let create () =
  {
    reads = 0;
    writes = 0;
    fuzzy = 0;
    compares = 0;
    sort_s = 0.0;
    merge_s = 0.0;
    join_s = 0.0;
    other_s = 0.0;
    sort_io = 0;
    merge_io = 0;
    join_io = 0;
    other_io = 0;
    active = None;
  }

let reset t =
  t.reads <- 0;
  t.writes <- 0;
  t.fuzzy <- 0;
  t.compares <- 0;
  t.sort_s <- 0.0;
  t.merge_s <- 0.0;
  t.join_s <- 0.0;
  t.other_s <- 0.0;
  t.sort_io <- 0;
  t.merge_io <- 0;
  t.join_io <- 0;
  t.other_io <- 0;
  t.active <- None

let charge_phase_io t =
  match t.active with
  | Some Sort -> t.sort_io <- t.sort_io + 1
  | Some Merge -> t.merge_io <- t.merge_io + 1
  | Some Join -> t.join_io <- t.join_io + 1
  | Some Other | None -> t.other_io <- t.other_io + 1

let record_read t =
  t.reads <- t.reads + 1;
  charge_phase_io t

let record_write t =
  t.writes <- t.writes + 1;
  charge_phase_io t
let record_fuzzy_op t = t.fuzzy <- t.fuzzy + 1
let record_comparison t = t.compares <- t.compares + 1
let record_fuzzy_ops t n = t.fuzzy <- t.fuzzy + n
let record_comparisons t n = t.compares <- t.compares + n
let page_reads t = t.reads
let page_writes t = t.writes
let total_ios t = t.reads + t.writes
let fuzzy_ops t = t.fuzzy
let comparisons t = t.compares

let add_phase t phase s =
  match phase with
  | Sort -> t.sort_s <- t.sort_s +. s
  | Merge -> t.merge_s <- t.merge_s +. s
  | Join -> t.join_s <- t.join_s +. s
  | Other -> t.other_s <- t.other_s +. s

let timed t phase f =
  let outer = t.active in
  let start = Unix.gettimeofday () in
  t.active <- Some phase;
  let finish () =
    let elapsed = Unix.gettimeofday () -. start in
    t.active <- outer;
    add_phase t phase elapsed;
    (* Remove the nested time from the enclosing phase so buckets are
       exclusive. *)
    match outer with Some p -> add_phase t p (-.elapsed) | None -> ()
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let cpu_seconds t = t.sort_s +. t.merge_s +. t.join_s +. t.other_s

let phase_ios t = function
  | Sort -> t.sort_io
  | Merge -> t.merge_io
  | Join -> t.join_io
  | Other -> t.other_io

let phase_seconds t = function
  | Sort -> t.sort_s
  | Merge -> t.merge_s
  | Join -> t.join_s
  | Other -> t.other_s

let response_time t ~io_latency =
  cpu_seconds t +. (float_of_int (total_ios t) *. io_latency)

let pp ppf t =
  Format.fprintf ppf
    "reads=%d writes=%d fuzzy_ops=%d compares=%d cpu=%.3fs (sort %.3fs, merge \
     %.3fs, join %.3fs, other %.3fs)"
    t.reads t.writes t.fuzzy t.compares (cpu_seconds t) t.sort_s t.merge_s
    t.join_s t.other_s

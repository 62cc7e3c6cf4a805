(** Spans recorded by the benchmark around its calls into each layer's
    public functions: name, start, end, parent, and the id of the
    operation they belong to. Kept in memory and written out once the
    run ends; nothing inside the library is instrumented.

    A span's self time is its duration minus the part of its interval
    covered by its children, so the self times of one operation add up
    to the duration of its root span. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  op : int;
  name : string;
  start_s : float;
  stop_s : float;
}

type t = { lock : Mutex.t; mutable next : int; mutable spans : span list }

let create () = { lock = Mutex.create (); next = 1; spans = [] }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let fresh_id t =
  locked t (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

let push t s = locked t (fun () -> t.spans <- s :: t.spans)

(** [add t ~op name ~start_s ~stop_s] records a span measured elsewhere
    (by the daemon's own clock, say) and returns its id. *)
let add t ?(parent = 0) ~op name ~start_s ~stop_s =
  let id = fresh_id t in
  push t { id; parent; op; name; start_s; stop_s };
  id

(** [span t ~op name f] times [f id], where [id] is the new span's id for
    [f] to parent its children on. With [t = None] it is [f 0]. *)
let span t ?(parent = 0) ~op name f =
  match t with
  | None -> f 0
  | Some t ->
      let id = fresh_id t in
      let start_s = Unix.gettimeofday () in
      let v = f id in
      push t { id; parent; op; name; start_s; stop_s = Unix.gettimeofday () };
      v

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  fst
    (List.fold_left
       (fun (total, reach) (a, b) ->
         if b <= reach then (total, reach)
         else (total +. b -. Float.max a reach, b))
       (0.0, lo)
       (List.sort compare clipped))

(** [(name, self seconds)] for every recorded span. *)
let self_times t =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.start_s, s.stop_s))
    t.spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let dur = s.stop_s -. s.start_s in
      (s.name, dur -. covered ~lo:s.start_s ~hi:s.stop_s kids))
    t.spans

(** Self times of the spans named [name]. *)
let self_of t name =
  List.filter_map
    (fun (n, v) -> if n = name then Some v else None)
    (self_times t)

(** Durations of the spans named [name]. *)
let durations t name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop_s -. s.start_s) else None)
    t.spans

let write t ~path =
  let spans = List.rev t.spans in
  let origin =
    List.fold_left (fun m s -> Float.min m s.start_s) Float.infinity spans
  in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s  {\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": %S, \
         \"start_us\": %.1f, \"end_us\": %.1f}"
        (if i = 0 then "" else ",\n")
        s.id s.parent s.op s.name
        (1e6 *. (s.start_s -. origin))
        (1e6 *. (s.stop_s -. origin)))
    spans;
  output_string oc "\n]\n";
  close_out oc

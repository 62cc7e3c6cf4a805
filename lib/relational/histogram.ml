type t = {
  lo : float;  (** left edge of the first bucket *)
  width : float;  (** bucket width; > 0 *)
  counts : float array;
  total : int;
  avg_width : float;  (** mean support width of the summarised values *)
}

let center itv = (Fuzzy.Interval.lo itv +. Fuzzy.Interval.hi itv) /. 2.0

let build ?(buckets = 64) rel ~attr =
  let n = Relation.cardinality rel in
  let lo_s = Array.make n 0.0 and hi_s = Array.make n 0.0 in
  let cur = Storage.Heap_file.Slices.of_file (Relation.file rel) in
  let i = ref 0 in
  while Storage.Heap_file.Slices.advance cur do
    Codec.support_into (Storage.Heap_file.Slices.page cur)
      ~pos:(Storage.Heap_file.Slices.off cur) attr ~lo:lo_s ~hi:hi_s !i;
    incr i
  done;
  if n = 0 then
    { lo = 0.0; width = 1.0; counts = Array.make 1 0.0; total = 0; avg_width = 0.0 }
  else begin
    let lo = ref infinity and hi = ref neg_infinity and wsum = ref 0.0 in
    for i = 0 to n - 1 do
      let c = (lo_s.(i) +. hi_s.(i)) /. 2.0 in
      lo := Float.min !lo c;
      hi := Float.max !hi c;
      wsum := !wsum +. (hi_s.(i) -. lo_s.(i))
    done;
    let span = Float.max (!hi -. !lo) 1e-9 in
    let width = span /. float_of_int buckets in
    let counts = Array.make buckets 0.0 in
    for i = 0 to n - 1 do
      let c = (lo_s.(i) +. hi_s.(i)) /. 2.0 in
      let b =
        Int.min (buckets - 1) (Int.max 0 (int_of_float ((c -. !lo) /. width)))
      in
      counts.(b) <- counts.(b) +. 1.0
    done;
    { lo = !lo; width; counts; total = n; avg_width = !wsum /. float_of_int n }
  end

let cardinality t = t.total
let avg_support_width t = t.avg_width

(* Density of tuples (per unit of domain) around position [x]. *)
let density t x =
  if t.total = 0 then 0.0
  else
    let b = int_of_float ((x -. t.lo) /. t.width) in
    if b < 0 || b >= Array.length t.counts then 0.0
    else t.counts.(b) /. t.width

let estimate_eq_join r s =
  if r.total = 0 || s.total = 0 then 0.0
  else begin
    (* Two tuples may join when their centers are within half the sum of the
       average widths: integrate over r's buckets the s-density in that
       band. *)
    let band = (r.avg_width +. s.avg_width) /. 2.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i cnt ->
        if cnt > 0.0 then begin
          let x = r.lo +. ((float_of_int i +. 0.5) *. r.width) in
          (* crisp-on-crisp matching degenerates to a point band; count the
             coincident bucket mass instead *)
          let matches =
            if band <= 0.0 then density s x *. s.width
            else
              let steps = 8 in
              let h = 2.0 *. band /. float_of_int steps in
              let sum = ref 0.0 in
              for k = 0 to steps - 1 do
                sum := !sum +. (density s (x -. band +. ((float_of_int k +. 0.5) *. h)) *. h)
              done;
              !sum
          in
          acc := !acc +. (cnt *. matches)
        end)
      r.counts;
    !acc
  end

let estimate_eq_selectivity t v =
  if t.total = 0 then 0.0
  else begin
    let sup = Fuzzy.Possibility.support v in
    let c = center sup in
    let band = (t.avg_width +. Fuzzy.Interval.width sup) /. 2.0 in
    let matched =
      if band <= 0.0 then density t c *. t.width
      else
        let steps = 8 in
        let h = 2.0 *. band /. float_of_int steps in
        let sum = ref 0.0 in
        for k = 0 to steps - 1 do
          sum := !sum +. (density t (c -. band +. ((float_of_int k +. 0.5) *. h)) *. h)
        done;
        !sum
    in
    Float.min 1.0 (matched /. float_of_int t.total)
  end

let pp ppf t =
  Format.fprintf ppf "histogram: %d tuples, %d buckets from %g (width %g), avg support width %g"
    t.total (Array.length t.counts) t.lo t.width t.avg_width

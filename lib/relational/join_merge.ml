open Storage
open Fuzzy

(* The window sweep of Section 3 over unboxed support and parameter
   columns. Both inputs arrive in chunks of record views from
   [next_outer] / [next_inner] (an empty chunk at the end); no record is
   decoded to sweep it. The outer side is swept one chunk at a time. The
   inner side is a sliding buffer: a batch holding the window's members
   followed by the last chunk read ahead. When the sweep needs an inner row
   past the buffer, {!Batch.carry} builds a fresh batch from the window and
   the next chunk, so rows the window evicted (or never admitted) are
   dropped and the rows kept are the window plus one chunk, however long
   the inputs are.

   Accounting per outer row r: one comparison per window member to evict
   it (it ends before b(r.X)), one per inner row looked at to extend the
   window (including the terminating one, which begins after e(r.X)), one
   per window member for the pair degree, and one fuzzy op per pair whose
   supports overlap. The pair degree takes the trapezoid fast path of
   [Batch_kernels.cmp_at], which replicates the boxed float operations
   exactly; string / discrete operands fall back to [Value.compare_degree]
   on the two values, decoded for that pair ({!Batch.value}).
   Cancellation is polled once per outer chunk and once per inner refill;
   with [?trace] each outer chunk records a [batch] child span carrying its
   row count.

   [emit ob i ~inner ~idx ~n ~d_eq] is called once per outer row [i] of
   chunk [ob], with the window as indices [idx.(0 .. n-1)] into the current
   inner buffer [inner] (in insertion order) and their equality degrees.
   The arrays are reused, so handlers must not retain them. *)
let sweep_chunks ?cancel ?trace ~stats ~next_outer ~next_inner ~outer_attr
    ~inner_attr ~emit () =
  let buf = ref (Batch.empty ()) in
  let icol = ref (Batch.col !buf inner_attr) in
  let next_inner_row = ref 0 in
  let inner_done = ref false in
  let cap = ref 16 in
  let win = ref (Array.make !cap 0) in
  let deq = ref (Array.make !cap 0.0) in
  let win_n = ref 0 in
  let ensure n =
    if n > !cap then begin
      let cap' = Int.max n (2 * !cap) in
      let w = Array.make cap' 0 in
      Array.blit !win 0 w 0 !win_n;
      win := w;
      deq := Array.make cap' 0.0;
      cap := cap'
    end
  in
  (* Whether inner row [!next_inner_row] exists, reading the next chunk
     into a fresh buffer when the current one is used up. *)
  let inner_available () =
    !next_inner_row < Batch.length !buf
    || (not !inner_done)
       &&
       (Cancel.check cancel;
        match next_inner () with
        | { External_sort.offs = [||]; _ } ->
            inner_done := true;
            false
        | v ->
            let b = Batch.carry !buf ~idx:!win ~n:!win_n v in
            for j = 0 to !win_n - 1 do
              !win.(j) <- j
            done;
            buf := b;
            icol := Batch.col b inner_attr;
            next_inner_row := !win_n;
            true)
  in
  let rec chunks () =
    Cancel.check cancel;
    match next_outer () with
    | { External_sort.offs = [||]; _ } -> ()
    | v ->
        let outer_b = Batch.of_views v in
        let ocol = Batch.col outer_b outer_attr in
        let o_lo = ocol.Batch.lo and o_hi = ocol.Batch.hi in
        Trace.with_span trace ~stats "batch" (fun () ->
            for i = 0 to Batch.length outer_b - 1 do
              let b_r = Array.unsafe_get o_lo i
              and e_r = Array.unsafe_get o_hi i in
              (* 1. Evict window members ending before b(r.X). *)
              let i_hi = !icol.Batch.hi in
              let w = !win in
              let wn = !win_n in
              let k = ref 0 in
              for j = 0 to wn - 1 do
                let s = Array.unsafe_get w j in
                if Array.unsafe_get i_hi s >= b_r then begin
                  Array.unsafe_set w !k s;
                  incr k
                end
              done;
              Iostats.record_comparisons stats wn;
              win_n := !k;
              (* 2. Extend while the next inner row begins no later than
                 e(r.X). *)
              let continue = ref true in
              while !continue && inner_available () do
                Iostats.record_comparison stats;
                let s = !next_inner_row in
                let ic = !icol in
                if Array.unsafe_get ic.Batch.lo s <= e_r then begin
                  if Array.unsafe_get ic.Batch.hi s >= b_r then begin
                    ensure (!win_n + 1);
                    !win.(!win_n) <- s;
                    incr win_n
                  end;
                  incr next_inner_row
                end
                else continue := false
              done;
              (* 3. Per-pair equality degree over the window. *)
              let inner_b = !buf and ic = !icol in
              let i_lo = ic.Batch.lo and i_hi = ic.Batch.hi in
              let w = !win and dq = !deq in
              let wn = !win_n in
              let r_ok = Batch.ok ocol i in
              let fuzz = ref 0 in
              for j = 0 to wn - 1 do
                let s = Array.unsafe_get w j in
                if
                  b_r <= Array.unsafe_get i_hi s
                  && Array.unsafe_get i_lo s <= e_r
                then begin
                  incr fuzz;
                  Array.unsafe_set dq j
                    (if r_ok && Batch.ok ic s then
                       Batch_kernels.cmp_at Fuzzy_compare.Eq ocol i ic s
                     else
                       Value.compare_degree Fuzzy_compare.Eq
                         (Batch.value outer_b i outer_attr)
                         (Batch.value inner_b s inner_attr))
                end
                else Array.unsafe_set dq j 0.0
              done;
              Iostats.record_comparisons stats wn;
              Iostats.record_fuzzy_ops stats !fuzz;
              emit outer_b i ~inner:inner_b ~idx:w ~n:wn ~d_eq:dq
            done;
            Trace.set_rows trace (Batch.length outer_b));
        chunks ()
  in
  chunks ()

type emit =
  Batch.t -> int -> inner:Batch.t -> idx:int array -> n:int ->
  d_eq:float array -> unit

let sort_sweep ?trace ?cancel ~outer ~inner ~outer_attr ~inner_attr
    ~mem_pages ~emit () =
  let env = Relation.env outer in
  let stats = env.Env.stats in
  let spec rel attr =
    {
      External_sort.name = "sort " ^ Schema.name (Relation.schema rel);
      file = Relation.file rel;
      key = (fun page pos lo hi i -> Codec.support_into page ~pos attr ~lo ~hi i);
    }
  in
  External_sort.with_sorted ?trace ?cancel ~mem_pages (spec outer outer_attr)
    (spec inner inner_attr) (fun so si ->
      (* The pulls time themselves as [Sort], so [Merge] keeps the sweep's
         own time. The inner side is pulled page-bound: the sweep never
         makes a run cursor read a page before it needs a row there. *)
      Iostats.timed stats Iostats.Merge (fun () ->
          Trace.with_span trace ~stats "sweep" (fun () ->
              let rows = ref 0 in
              sweep_chunks ?cancel ?trace ~stats
                ~next_outer:(fun () ->
                  let c =
                    External_sort.pull so ~max:Batch.batch_rows ~page_bound:false
                  in
                  rows := !rows + Array.length c.External_sort.offs;
                  c)
                ~next_inner:(fun () ->
                  External_sort.pull si ~max:Batch.batch_rows ~page_bound:true)
                ~outer_attr ~inner_attr ~emit ();
              External_sort.add_merge_span trace so;
              External_sort.add_merge_span trace si;
              Trace.set_rows trace !rows)))

let join_eq ?name ?trace ?cancel ~outer ~inner ~outer_attr ~inner_attr
    ~mem_pages ?residual () =
  let env = Relation.env outer in
  let out_schema =
    Schema.concat
      ~name:(Option.value name ~default:"join")
      (Relation.schema outer) (Relation.schema inner)
  in
  Trace.with_span trace ~stats:env.Env.stats
    ("join " ^ Schema.name out_schema)
    (fun () ->
      let out = Relation.create env out_schema in
      let pair r s d_eq =
        if Degree.positive d_eq then begin
          let d_res =
            match residual with None -> Degree.one | Some f -> f r s
          in
          let d =
            Degree.conj_list [ Ftuple.degree r; Ftuple.degree s; d_eq; d_res ]
          in
          if Degree.positive d then Relation.insert out (Ftuple.concat r s d)
        end
      in
      (* Straight off the window's selection vector: no [rng] list is
         built. The output is freed if the join is cancelled. *)
      let emit ob i ~inner:ib ~idx ~n ~d_eq =
        let r = Batch.row ob i in
        for j = 0 to n - 1 do
          pair r (Batch.row ib idx.(j)) d_eq.(j)
        done
      in
      (match
         sort_sweep ?trace ?cancel ~outer ~inner ~outer_attr ~inner_attr
           ~mem_pages ~emit ()
       with
      | () -> ()
      | exception e ->
          Relation.destroy out;
          raise e);
      Trace.set_rows trace (Relation.cardinality out);
      out)

(** Unnested evaluation with the extended merge-join: the paper's
    contribution (Sections 4-8).

    Each nested-query type is rewritten to its flat equivalent and evaluated
    as one sorted sweep:
    - type N / J   (Theorems 4.1, 4.2): merge-join on [R.Y = S.Z] with the
      correlation predicates as residuals, then max-dedup projection;
    - type JX      (Theorem 5.1): the grouped MIN(D) of Query JX' evaluated
      per outer tuple over its window [Rng(r)] — tuples outside the window
      contribute the neutral value, so one sweep suffices;
    - type JALL    (Theorem 7.1, and its SOME dual): same grouped sweep with
      the quantifier folded into [1 - min(..., 1 - d(y op z))];
    - type JA      (Theorem 6.1): the pipelined T1 / T2 / JA' cascade —
      aggregate each outer tuple's window group, compare, project, including
      the COUNT left-outer-join branch;
    - chain queries (Theorem 8.1): a cascade of merge-joins, correlation
      predicates evaluated as residuals on the accumulated intermediate
      tuples, each step projected onto its live attributes and max-folded.

    Every handler folds its window through {!window_fold}.

    Prerequisite: the sweep needs one equality predicate linking outer and
    inner (the IN attribute pair or an equality correlation). [Not_unnestable]
    is raised otherwise and the planner falls back to the nested-loop
    method. *)

open Relational
open Fuzzy
open Fuzzysql
module Trace = Storage.Trace

exception Not_unnestable of string

module Vmap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_structural
end)

module Vals_map = Map.Make (struct
  type t = Value.t array

  let compare a b =
    let n = Array.length a in
    let rec go i =
      if i >= n then 0
      else
        match Value.compare_structural a.(i) b.(i) with 0 -> go (i + 1) | c -> c
    in
    go 0
end)

(* Split off one equality correlation predicate to sweep on. *)
let split_eq_corr corr =
  let rec go acc = function
    | [] -> None
    | (c : Classify.corr) :: rest when c.Classify.op = Fuzzy_compare.Eq ->
        Some (c, List.rev_append acc rest)
    | c :: rest -> go (c :: acc) rest
  in
  go [] corr

(* One answer tuple, straight into the query's max-fold: [select] holds
   the projected positions. *)
let project_insert acc select r d =
  if Degree.positive d then
    Algebra.Max_fold.add acc (Ftuple.make (Array.map (Ftuple.value r) select) d)

(* The same for row [i] of a sweep batch: the projected values' bytes are
   copied out of the record, none is decoded. *)
let insert_row acc select b i d =
  if Degree.positive d then
    Algebra.Max_fold.add_record acc (Batch.page b i) ~pos:(Batch.pos b i) select d

(* "Notice that if no join predicate exists in the inner block, the inner
   block produces the same single value for every tuple of R and no
   unnesting is needed" (Section 6). For uncorrelated quantifier, aggregate,
   and EXISTS subqueries the temporary relation T is computed once: the
   aggregate / EXISTS link degree is then a constant, and quantifiers only
   need one pass of R' against the duplicate-eliminated T. *)
let run_constant_inner ~stats ~acc ~select ~outer' ~inner' link =
  let module Vm = Vmap in
  (* T: the fuzzy value set of the whole (reduced) inner relation. *)
  let collect z =
    Relation.fold inner' ~init:Vm.empty ~f:(fun m s ->
        let d = Ftuple.degree s in
        if Degree.positive d then
          Vm.update (Ftuple.value s z)
            (function None -> Some d | Some d' -> Some (Degree.disj d d'))
            m
        else m)
  in
  match link with
  | Classify.Exists_link { negated; corr = [] } ->
      let m =
        Relation.fold inner' ~init:Degree.zero ~f:(fun acc s ->
            Degree.disj acc (Ftuple.degree s))
      in
      let d_link = if negated then Degree.neg m else m in
      Relation.iter outer' (fun r ->
          project_insert acc select r (Degree.conj (Ftuple.degree r) d_link))
  | Classify.Agg_link { y; op1; agg; z; corr = [] } ->
      let t = collect z in
      let vs = List.map fst (Vm.bindings t) in
      let result =
        match (Aggregate.apply agg vs, agg) with
        | (Some _ as res), _ -> res
        | None, Aggregate.Count -> Some (Value.Int 0)
        | None, _ -> None
      in
      (match result with
      | None -> () (* NULL aggregate: no answers *)
      | Some a ->
          Relation.iter outer' (fun r ->
              Storage.Iostats.record_fuzzy_op stats;
              let d_link = Value.compare_degree op1 (Ftuple.value r y) a in
              project_insert acc select r
                (Degree.conj (Ftuple.degree r) d_link)))
  | Classify.Quant_link { y; op; quant; z; corr = [] } ->
      let t = Vm.bindings (collect z) in
      Relation.iter outer' (fun r ->
          let m =
            List.fold_left
              (fun acc (zv, dz) ->
                Storage.Iostats.record_fuzzy_op stats;
                let d_cmp = Value.compare_degree op (Ftuple.value r y) zv in
                let term =
                  match quant with
                  | Ast.All -> Degree.neg d_cmp
                  | Ast.Some_ -> d_cmp
                in
                Degree.disj acc (Degree.conj dz term))
              Degree.zero t
          in
          let d_link =
            match quant with Ast.All -> Degree.neg m | Ast.Some_ -> m
          in
          project_insert acc select r (Degree.conj (Ftuple.degree r) d_link))
  | Classify.In_link _ | Classify.Not_in_link _ | Classify.Exists_link _
  | Classify.Agg_link _ | Classify.Quant_link _ ->
      invalid_arg "run_constant_inner: link is not constant-inner"

let is_constant_inner = function
  | Classify.Exists_link { corr = []; _ }
  | Classify.Agg_link { corr = []; _ }
  | Classify.Quant_link { corr = []; _ } ->
      true
  | Classify.In_link _ | Classify.Not_in_link _ | Classify.Exists_link _
  | Classify.Agg_link _ | Classify.Quant_link _ ->
      false

(* One term of a window pair's degree: [op] applied to attribute [left] of
   one side of the pair and attribute [right] of the other, where
   [left_outer] says whether [left] is read from the outer row; [negated]
   takes the complement, the ALL quantifier's [1 - d(y op z)]. *)
type term = {
  op : Fuzzy_compare.op;
  left_outer : bool;
  left : int;
  right : int;
  negated : bool;
}

(* The correlation predicate [s.local op r.outer], with [s] the inner row. *)
let corr_term (c : Classify.corr) =
  {
    op = c.Classify.op;
    left_outer = false;
    left = c.Classify.local_attr;
    right = c.Classify.outer_attr;
    negated = false;
  }

(* The window fold of every sweep handler. For outer row [i] of chunk [ob]
   and its window [idx.(0 .. n-1)] into [ib] with equality degrees [d_eq],
   each examined pair's degree min(mu_s, d_eq, term_1, ..., term_k) goes
   into [pairs ()].(j), and the fold returns their max (0 over an empty
   window). A pair is examined where its d_eq is positive, or everywhere
   with [~all_pairs]; unexamined pairs read 0, the neutral value of the
   max. A term goes through the trapezoid kernels where both operands are
   columnar and through [Value.compare_degree] where they are not, on the
   two values decoded for that pair ({!Batch.value}).
   [Degree.conj]/[disj] are min/max, exact in any order, so the bits
   equal a fold over the window as a list; the columnar path allocates
   nothing, and the fuzzy-op counter is charged in bulk, one op per term per
   examined pair. *)
let window_fold ~stats ?(all_pairs = false) terms =
  let terms = Array.of_list terms in
  let nt = Array.length terms in
  (* The kernels take each term with the outer operand first, as
     [v op' u] for [u op v]: [Batch_kernels.cmp] computes [u <= v] as
     [v >= u] and [u < v] as [v > u], and its = and <> are symmetric, so
     the bits do not change. *)
  let mirror = function
    | Fuzzy_compare.Le -> Fuzzy_compare.Ge
    | Fuzzy_compare.Ge -> Fuzzy_compare.Le
    | Fuzzy_compare.Lt -> Fuzzy_compare.Gt
    | Fuzzy_compare.Gt -> Fuzzy_compare.Lt
    | (Fuzzy_compare.Eq | Fuzzy_compare.Ne) as op -> op
  in
  let ops = Array.map (fun t -> if t.left_outer then t.op else mirror t.op) terms in
  let negs = Array.map (fun t -> t.negated) terms in
  (* The term columns depend only on the batches: extract them once per
     (outer chunk, inner buffer) pair. The sweep builds a fresh batch per
     chunk and per refill, so physical identity is a sound cache key. *)
  let no_batch = Batch.empty () in
  let cached_ob = ref no_batch and cached_ib = ref no_batch in
  let us = ref [||] and vs = ref [||] in
  let pairs = ref (Array.make Batch.batch_rows 0.0) in
  let fold ob i ~inner:ib ~idx ~n ~d_eq =
    if not (!cached_ob == ob && !cached_ib == ib) then begin
      let attr outer t = if outer = t.left_outer then t.left else t.right in
      us := Array.map (fun t -> Batch.col ob (attr true t)) terms;
      vs := Array.map (fun t -> Batch.col ib (attr false t)) terms;
      cached_ob := ob;
      cached_ib := ib
    end;
    if Array.length !pairs < n then
      pairs := Array.make (Int.max n (2 * Array.length !pairs)) 0.0;
    let us = !us and vs = !vs and dst = !pairs in
    let deg = Batch.degrees ib in
    let m = ref Degree.zero in
    let fz = ref 0 in
    for j = 0 to n - 1 do
      let dq = Array.unsafe_get d_eq j in
      if all_pairs || dq > 0.0 then begin
        let s_i = Array.unsafe_get idx j in
        let d = ref (Degree.conj (Array.unsafe_get deg s_i) dq) in
        for c = 0 to nt - 1 do
          let u = Array.unsafe_get us c and v = Array.unsafe_get vs c in
          let dd =
            if Batch.ok u i && Batch.ok v s_i then
              Batch_kernels.cmp_at (Array.unsafe_get ops c) u i v s_i
            else
              let t = Array.unsafe_get terms c in
              let side outer = if outer then Batch.value ob i else Batch.value ib s_i in
              Value.compare_degree t.op (side t.left_outer t.left)
                (side (not t.left_outer) t.right)
          in
          d := Degree.conj !d (if Array.unsafe_get negs c then Degree.neg dd else dd)
        done;
        fz := !fz + nt;
        Array.unsafe_set dst j !d;
        m := Degree.disj !m !d
      end
      else Array.unsafe_set dst j 0.0
    done;
    if !fz > 0 then Storage.Iostats.record_fuzzy_ops stats !fz;
    !m
  in
  (fold, fun () -> !pairs)

let run ?(name = "answer") ?trace ?cancel (shape : Classify.two_level)
    ~mem_pages : Relation.t =
  let { Classify.select; outer; inner; p1; p2; link; threshold } = shape in
  let env = Relation.env outer in
  let stats = env.Storage.Env.stats in
  let out_schema =
    Schema.make ~name
      (List.map (fun i -> (Schema.attrs (Relation.schema outer)).(i)) select)
  in
  let select = Array.of_list select in
  (* Reduction: only tuples satisfying p1 / p2 positively are sorted
     (their satisfaction degrees are folded into the tuple degrees). With no
     local predicates the base relation is used directly — no copy. The WITH
     threshold is pushed into the reduction where sound (see {!Pushdown}). *)
  let reduced rel preds ~prune =
    if preds = [] && not prune then (rel, false)
    else
      ( Algebra.select rel ~pred:(fun tup ->
            Storage.Cancel.check cancel;
            let d = Semantics.local_degree stats tup preds in
            if
              prune
              && Pushdown.cannot_pass threshold
                   (Degree.conj (Ftuple.degree tup) d)
            then Degree.zero
            else d),
        true )
  in
  let prune = threshold <> None in
  let traced_reduce which rel preds ~prune =
    if preds = [] && not prune then (rel, false)
    else
      Trace.with_span trace ~stats ("reduce " ^ which) (fun () ->
          let r = reduced rel preds ~prune in
          Trace.set_rows trace (Relation.cardinality (fst r));
          r)
  in
  (* The answer is max-folded as it is produced; [dedup] only writes it. *)
  let acc = Algebra.Max_fold.create () in
  let dedup_project () =
    Trace.with_span trace ~stats "dedup" (fun () ->
        let deduped = Algebra.Max_fold.to_relation acc env out_schema in
        Trace.set_rows trace (Relation.cardinality deduped);
        deduped)
  in
  (* Every relation the run creates except the answer — the reductions
     and, under [WITH], the unfiltered answer — is destroyed through
     [temps], on success and when a cancellation is raised anywhere in the
     pipeline (reduce, sort, sweep): a server worker's environment
     outlives the query. The sort frees its own run files. *)
  let temps = ref [] in
  Fun.protect ~finally:(fun () -> List.iter Relation.destroy !temps)
  @@ fun () ->
  let outer', outer_owned = traced_reduce "outer" outer p1 ~prune in
  if outer_owned then temps := outer' :: !temps;
  let inner', inner_owned =
    traced_reduce "inner" inner p2 ~prune:(prune && Pushdown.inner_prunable link)
  in
  if inner_owned then temps := inner' :: !temps;
  if is_constant_inner link then begin
    Trace.with_span trace ~stats "constant-inner" (fun () ->
        run_constant_inner ~stats ~acc ~select ~outer' ~inner' link);
    Semantics.apply_threshold (dedup_project ()) threshold
  end
  else begin
  let need_eq what corr =
    match split_eq_corr corr with
    | Some eq_rest -> eq_rest
    | None ->
        raise
          (Not_unnestable
             (what ^ " subquery without an equality correlation predicate"))
  in
  (* IN, NOT IN, EXISTS and the quantifiers: d_link is the window fold's
     max, negated for NOT IN, NOT EXISTS and ALL (inner tuples outside the
     window have d_eq = 0 and contribute the neutral value). *)
  let max_link ?all_pairs ~negated terms =
    let fold, _ = window_fold ~stats ?all_pairs terms in
    fun ob i ~inner ~idx ~n ~d_eq ->
      let m = fold ob i ~inner ~idx ~n ~d_eq in
      insert_row acc select ob i
        (Degree.conj (Batch.degrees ob).(i) (if negated then Degree.neg m else m))
  in
  (* Pick the sweep equality and the window handler. *)
  let sweep_y, sweep_z, (emit : Join_merge.emit) =
    match link with
    | Classify.In_link { y; z; corr } ->
        (y, z, max_link ~negated:false (List.map corr_term corr))
    | Classify.Not_in_link { y; z; corr } ->
        (* Every window member is examined, dangling ones included: their
           min is 0, the max's neutral value, but each is charged. *)
        (y, z, max_link ~all_pairs:true ~negated:true (List.map corr_term corr))
    | Classify.Quant_link { y; op; quant; z; corr } ->
        (* d(r.y op ALL T) = 1 - max_s min(mu_s, d_eq, 1 - d(y op s.z)), and
           SOME without the complements. *)
        let eq, rest = need_eq "quantified" corr in
        let all = quant = Ast.All in
        let cmp = { op; left_outer = true; left = y; right = z; negated = all } in
        ( eq.Classify.outer_attr, eq.Classify.local_attr,
          max_link ~negated:all (List.map corr_term rest @ [ cmp ]) )
    | Classify.Exists_link { negated; corr } ->
        (* Fuzzy semi-join (anti-join when negated). *)
        let eq, rest = need_eq "EXISTS" corr in
        ( eq.Classify.outer_attr, eq.Classify.local_attr,
          max_link ~negated (List.map corr_term rest) )
    | Classify.Agg_link { y; op1; agg; z; corr } ->
        let eq, rest = need_eq "aggregate" corr in
        let fold, pairs = window_fold ~stats ~all_pairs:true (List.map corr_term rest) in
        (* A(T'(u)) over the group for u = r.U: the window members whose
           pair degree is positive, dangling ones included. MIN and MAX keep
           a running extreme ({!Aggregate.extreme}); COUNT, SUM and AVG
           need the group's fuzzy value set. *)
        let aggregate ib ~idx ~n pairs =
          match agg with
          | Aggregate.Min | Aggregate.Max ->
              let best = ref None in
              for j = 0 to n - 1 do
                if Degree.positive (Array.unsafe_get pairs j) then begin
                  let v = Batch.value ib (Array.unsafe_get idx j) z in
                  best :=
                    Some
                      (match !best with
                      | None -> v
                      | Some b -> Aggregate.extreme agg b v)
                end
              done;
              !best
          | Aggregate.Count | Aggregate.Sum | Aggregate.Avg -> (
              let set = ref Vmap.empty in
              for j = 0 to n - 1 do
                let d = Array.unsafe_get pairs j in
                if Degree.positive d then
                  set :=
                    Vmap.update
                      (Batch.value ib (Array.unsafe_get idx j) z)
                      (function
                        | None -> Some d | Some d' -> Some (Degree.disj d d'))
                      !set
              done;
              let vs = List.map fst (Vmap.bindings !set) in
              match (Aggregate.apply agg vs, agg) with
              | (Some _ as res), _ -> res
              | None, Aggregate.Count ->
                  (* COUNT over an empty group: the left outer join branch
                     of Query COUNT' compares with 0. *)
                  Some (Value.Int 0)
              | None, _ -> None)
        in
        ( eq.Classify.outer_attr, eq.Classify.local_attr,
          fun ob i ~inner:ib ~idx ~n ~d_eq ->
            ignore (fold ob i ~inner:ib ~idx ~n ~d_eq : float);
            match aggregate ib ~idx ~n (pairs ()) with
            | None -> ()
            | Some a ->
                Storage.Iostats.record_fuzzy_op stats;
                let d_link = Value.compare_degree op1 (Batch.value ob i y) a in
                insert_row acc select ob i
                  (Degree.conj (Batch.degrees ob).(i) d_link) )
  in
  Join_merge.sort_sweep ?trace ?cancel ~outer:outer' ~inner:inner'
    ~outer_attr:sweep_y ~inner_attr:sweep_z ~mem_pages ~emit ();
  Semantics.apply_threshold (dedup_project ()) threshold
  end

let run_chain ?(name = "answer") ?order ?trace ?cancel
    (chain : Classify.chain) ~mem_pages : Relation.t =
  let { Classify.blocks; top_select; chain_threshold } = chain in
  let blocks_arr = Array.of_list blocks in
  let k = Array.length blocks_arr in
  if k = 0 then invalid_arg "Merge_exec.run_chain: no blocks";
  let env = Relation.env blocks_arr.(0).Classify.rel in
  let stats = env.Storage.Env.stats in
  (* Every owned intermediate (block reductions, join cascade steps) goes
     through [temps] so a cancellation at any point of the cascade frees
     them all; cascade steps that are superseded are destroyed early to
     bound disk usage, the rest on exit. *)
  let temps = ref [] in
  Fun.protect ~finally:(fun () -> List.iter Relation.destroy !temps)
  @@ fun () ->
  (* Pre-select each block's relation with its local predicates. *)
  let reduced =
    Array.mapi
      (fun i (b : Classify.chain_block) ->
        if b.Classify.p_local = [] then b.Classify.rel
        else
          Trace.with_span trace ~stats
            (Printf.sprintf "reduce block-%d" i)
            (fun () ->
              let r =
                Algebra.select b.Classify.rel ~pred:(fun tup ->
                    Storage.Cancel.check cancel;
                    Semantics.local_degree stats tup b.Classify.p_local)
              in
              Trace.set_rows trace (Relation.cardinality r);
              temps := r :: !temps;
              r))
      blocks_arr
  in
  let order =
    match order with Some o -> o | None -> Chain_order.left_to_right k
  in
  let cascade = Chain_order.cascade chain order in
  let start = order.Chain_order.start in
  let schema_of b = Relation.schema blocks_arr.(b).Classify.rel in
  (* Intermediate attributes are qualified by relation and block index, so
     blocks over the same relation stay distinct. *)
  let attr_of (blk, a) =
    let n, ty = (Schema.attrs (schema_of blk)).(a) in
    (Printf.sprintf "%s%d.%s" (Schema.name (schema_of blk)) blk n, ty)
  in
  (* Grow a contiguous interval of blocks with merge-joins, applying each
     correlation predicate as soon as both of its endpoints are present.
     Each step keeps only the live attributes ({!Chain_order.cascade}) and
     max-folds tuples that agree on them: a later degree is a min over the
     kept attributes, and max_i min(d_i, f(x)) = min(max_i d_i, f(x)) holds
     exactly in floating point, so the answer is unchanged. [pos] maps a
     (block, attribute) pair to its position in the accumulated relation,
     which starts as the whole start block. *)
  let layout_pos layout =
    let h = Hashtbl.create 16 in
    List.iteri (fun i ba -> Hashtbl.replace h ba i) layout;
    Hashtbl.find h
  in
  let pos =
    ref (layout_pos (List.init (Schema.arity (schema_of start)) (fun a -> (start, a))))
  in
  let acc = ref reduced.(start) in
  let acc_owned = ref false in
  let lo = ref start and hi = ref start in
  let add_block { Chain_order.block = b; carried; semi_join } =
    Storage.Cancel.check cancel;
    let pos_r = !pos in
    let blk_b = blocks_arr.(b) in
    let link = function
      | Some y -> y
      | None -> invalid_arg "Merge_exec.run_chain: missing link attribute"
    in
    (* The equality linking block [b] to the set: the link between b and
       b+1 when extending left, between b-1 and b when extending right. *)
    let acc_attr, b_attr =
      if b = !hi + 1 then
        ( pos_r (b - 1, link blocks_arr.(b - 1).Classify.link_attr),
          blk_b.Classify.out_attr )
      else
        ( pos_r (b + 1, blocks_arr.(b + 1).Classify.out_attr),
          link blk_b.Classify.link_attr )
    in
    let in_set blk = !lo <= blk && blk <= !hi in
    (* Correlation predicates that become applicable now: those of block [b]
       whose target is already present, and those of present blocks whose
       target is [b]. *)
    let of_new =
      List.filter_map
        (fun (c : Classify.corr) ->
          let t = b - c.Classify.up in
          if in_set t then Some (c, pos_r (t, c.Classify.outer_attr)) else None)
        blk_b.Classify.corr
    in
    let onto_new =
      List.concat
        (List.init k (fun blk ->
             if in_set blk then
               List.filter_map
                 (fun (c : Classify.corr) ->
                   if blk - c.Classify.up = b then
                     Some (c, pos_r (blk, c.Classify.local_attr))
                   else None)
                 blocks_arr.(blk).Classify.corr
             else []))
    in
    (* [carried] lists the accumulated side's attributes first, then
       block [b]'s. *)
    let from_r, from_s = List.partition (fun (blk, _) -> blk <> b) carried in
    let r_pos = Array.of_list (List.map pos_r from_r) in
    let s_attrs = Array.of_list (List.map snd from_s) in
    (* A step where only one side carries attributes sweeps that side as
       the outer: block [b] when it alone carries, the accumulated side
       otherwise. The sweep's pairs are the same either way (a pair joins
       iff the supports overlap), and each predicate keeps its operand
       order, so only the roles change. *)
    let swap = from_r = [] && from_s <> [] in
    let terms =
      List.map
        (fun ((c : Classify.corr), p) ->
          { op = c.Classify.op; left_outer = swap; left = c.Classify.local_attr;
            right = p; negated = false })
        of_new
      @ List.map
          (fun ((c : Classify.corr), p) ->
            { op = c.Classify.op; left_outer = not swap; left = p;
              right = c.Classify.outer_attr; negated = false })
          onto_new
    in
    let fold, pairs = window_fold ~stats terms in
    let step = if semi_join then "semi-join" else "join" in
    Trace.with_span trace ~stats (step ^ " " ^ Schema.name (schema_of b)) (fun () ->
        let out = Algebra.Max_fold.create () in
        let emit : Join_merge.emit =
          if from_r = [] || from_s = [] then begin
            (* One side carries: one tuple per outer row, its carried
               attributes with min(mu_r, the window fold's max). *)
            let proj = if swap then s_attrs else r_pos in
            fun ob i ~inner ~idx ~n ~d_eq ->
              insert_row out proj ob i
                (Degree.conj (Batch.degrees ob).(i) (fold ob i ~inner ~idx ~n ~d_eq))
          end
          else begin
            (* Both sides carry: per outer row, one max per distinct
               projection of the window onto block [b]'s carried
               attributes, then one max-fold across the step. *)
            let window = ref Vals_map.empty in
            fun ob i ~inner:ib ~idx ~n ~d_eq ->
              let d_r = (Batch.degrees ob).(i) in
              ignore (fold ob i ~inner:ib ~idx ~n ~d_eq : float);
              let pairs = pairs () in
              for j = 0 to n - 1 do
                let d = Degree.conj d_r (Array.unsafe_get pairs j) in
                if Degree.positive d then
                  window :=
                    Vals_map.update
                      (Array.map (Batch.value ib (Array.unsafe_get idx j)) s_attrs)
                      (function
                        | None -> Some d | Some d' -> Some (Degree.disj d d'))
                      !window
              done;
              if not (Vals_map.is_empty !window) then begin
                let r_vals = Array.map (Batch.value ob i) r_pos in
                Vals_map.iter
                  (fun s_vals d ->
                    Algebra.Max_fold.add out
                      (Ftuple.make (Array.append r_vals s_vals) d))
                  !window;
                window := Vals_map.empty
              end
          end
        in
        let outer, inner, outer_attr, inner_attr =
          if swap then (reduced.(b), !acc, b_attr, acc_attr)
          else (!acc, reduced.(b), acc_attr, b_attr)
        in
        Join_merge.sort_sweep ?trace ?cancel ~outer ~inner ~outer_attr
          ~inner_attr ~mem_pages ~emit ();
        let folded =
          Algebra.Max_fold.to_relation out env
            (Schema.make ~name:"join" (List.map attr_of carried))
        in
        temps := folded :: !temps;
        Trace.set_rows trace (Relation.cardinality folded);
        if !acc_owned then begin
          Relation.destroy !acc;
          temps := List.filter (fun t -> t != !acc) !temps
        end;
        acc := folded;
        acc_owned := true);
    pos := layout_pos carried;
    lo := Int.min !lo b;
    hi := Int.max !hi b
  in
  List.iter add_block cascade;
  let out =
    Trace.with_span trace ~stats "project" (fun () ->
        let out =
          Algebra.project_positions ~name !acc
            (List.map (fun p -> !pos (0, p)) top_select)
        in
        Trace.set_rows trace (Relation.cardinality out);
        out)
  in
  Semantics.apply_threshold out chain_threshold

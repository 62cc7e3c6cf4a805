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

let residual_degree stats (corr : Classify.corr list) r s =
  List.fold_left
    (fun acc (c : Classify.corr) ->
      Storage.Iostats.record_fuzzy_op stats;
      Degree.conj acc
        (Value.compare_degree c.Classify.op
           (Ftuple.value s c.Classify.local_attr)
           (Ftuple.value r c.Classify.outer_attr)))
    Degree.one corr

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

(* The per-window fold of each link type, straight off the window's
   selection vector: [r] is outer row [i] of chunk [ob], the window is
   [idx.(0 .. n-1)] into [ib] with equality degrees [d_eq]. Each fold
   visits the window in insertion order and keeps the operation order
   (and so the degree bits and fuzzy-op counts) of a fold over the
   window as a list. *)

(* The max over the window of min(mu_s, d_eq, d_rest), over the pairs
   with a positive d_eq: EXISTS, and the ALL / SOME quantifiers with
   [term] the quantified comparison. *)
let window_max ~stats ~rest ~term r ~inner:ib ~idx ~n ~d_eq =
  let m = ref Degree.zero in
  for j = 0 to n - 1 do
    let dq = Array.unsafe_get d_eq j in
    if Degree.positive dq then begin
      let s = Batch.row ib (Array.unsafe_get idx j) in
      let t = term s in
      let d =
        Degree.conj
          (Degree.conj
             (Degree.conj (Degree.conj Degree.one (Ftuple.degree s)) dq)
             (residual_degree stats rest r s))
          t
      in
      m := Degree.disj !m d
    end
  done;
  !m

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
  (* The IN / NOT IN handler: the max over the window of
     min(mu_s, d_eq, d_corr), negated for NOT IN (inner tuples outside the
     window have d_eq = 0 and contribute the neutral 1), with the
     correlation residuals going through the trapezoid kernels where both
     operands are columnar. *)
  let in_batch ~negated corr =
    let corr = Array.of_list corr in
    let nc = Array.length corr in
    let ops = Array.map (fun (c : Classify.corr) -> c.Classify.op) corr in
    (* The correlation columns depend only on the batches: extract them
       once per (outer chunk, inner buffer) pair instead of once per window
       pair. The sweep builds a fresh batch per chunk and per refill, so
       physical identity is a sound cache key. *)
    let no_batch = Batch.of_rows [||] in
    let cached_ob = ref no_batch and cached_ib = ref no_batch in
    let us = ref [||] and vs = ref [||] in
    fun ob i ~inner:ib ~idx ~n ~d_eq ->
      if not (!cached_ob == ob && !cached_ib == ib) then begin
        us :=
          Array.map
            (fun (c : Classify.corr) -> Batch.col ib c.Classify.local_attr)
            corr;
        vs :=
          Array.map
            (fun (c : Classify.corr) -> Batch.col ob c.Classify.outer_attr)
            corr;
        cached_ob := ob;
        cached_ib := ib
      end;
      let us = !us and vs = !vs in
      let r = Batch.row ob i in
      let deg = Batch.degrees ib in
      (* [Degree.conj]/[disj] are Float.min/max; inlining them keeps the
         exact operation sequence (and bits) of a fold over the window
         while the loops allocate nothing. The fuzzy-op counter is charged
         in bulk after the loop, the same total as per pair. *)
      let m = ref Degree.zero in
      let fz = ref 0 in
      for j = 0 to n - 1 do
        let dq = Array.unsafe_get d_eq j in
        if negated || dq > 0.0 then begin
          let s_i = Array.unsafe_get idx j in
          let d =
            ref (Float.min (Float.min Degree.one (Array.unsafe_get deg s_i)) dq)
          in
          for c = 0 to nc - 1 do
            let u = Array.unsafe_get us c and v = Array.unsafe_get vs c in
            let op = Array.unsafe_get ops c in
            let dd =
              if Batch.ok u s_i && Batch.ok v i then
                Batch_kernels.cmp_at op u s_i v i
              else
                let cr = Array.unsafe_get corr c in
                Value.compare_degree op
                  (Ftuple.value (Batch.row ib s_i) cr.Classify.local_attr)
                  (Ftuple.value r cr.Classify.outer_attr)
            in
            d := Float.min !d dd
          done;
          fz := !fz + nc;
          m := Float.max !m !d
        end
      done;
      if !fz > 0 then Storage.Iostats.record_fuzzy_ops stats !fz;
      let d_link = if negated then Degree.neg !m else !m in
      project_insert acc select r (Degree.conj (Ftuple.degree r) d_link)
  in
  let need_eq what corr =
    match split_eq_corr corr with
    | Some eq_rest -> eq_rest
    | None ->
        raise
          (Not_unnestable
             (what ^ " subquery without an equality correlation predicate"))
  in
  (* Pick the sweep equality and the window handler. *)
  let sweep_y, sweep_z, (emit : Join_merge.emit) =
    match link with
    | Classify.In_link { y; z; corr } -> (y, z, in_batch ~negated:false corr)
    | Classify.Not_in_link { y; z; corr } -> (y, z, in_batch ~negated:true corr)
    | Classify.Quant_link { y; op; quant; z; corr } ->
        let eq, rest = need_eq "quantified" corr in
        ( eq.Classify.outer_attr, eq.Classify.local_attr,
          fun ob i ~inner ~idx ~n ~d_eq ->
            let r = Batch.row ob i in
            let ry = Ftuple.value r y in
            let term s =
              Storage.Iostats.record_fuzzy_op stats;
              let d_cmp = Value.compare_degree op ry (Ftuple.value s z) in
              match quant with Ast.All -> Degree.neg d_cmp | Ast.Some_ -> d_cmp
            in
            let m = window_max ~stats ~rest ~term r ~inner ~idx ~n ~d_eq in
            let d_link =
              match quant with Ast.All -> Degree.neg m | Ast.Some_ -> m
            in
            project_insert acc select r (Degree.conj (Ftuple.degree r) d_link) )
    | Classify.Exists_link { negated; corr } ->
        (* Fuzzy semi-join (anti-join when negated): d(EXISTS) is the max
           over the window of min(mu_s, d_eq, d_rest); tuples outside the
           window have d_eq = 0 and cannot raise the max. *)
        let eq, rest = need_eq "EXISTS" corr in
        ( eq.Classify.outer_attr, eq.Classify.local_attr,
          fun ob i ~inner ~idx ~n ~d_eq ->
            let r = Batch.row ob i in
            let m =
              window_max ~stats ~rest ~term:(fun _ -> Degree.one) r ~inner ~idx
                ~n ~d_eq
            in
            let d_link = if negated then Degree.neg m else m in
            project_insert acc select r (Degree.conj (Ftuple.degree r) d_link) )
    | Classify.Agg_link { y; op1; agg; z; corr } ->
        let eq, rest = need_eq "aggregate" corr in
        ( eq.Classify.outer_attr, eq.Classify.local_attr,
          fun ob i ~inner:ib ~idx ~n ~d_eq ->
            let r = Batch.row ob i in
            (* T'(u): the fuzzy value set of the group for u = r.U; every
               window member is weighed, dangling ones included. *)
            let set = ref Vmap.empty in
            for j = 0 to n - 1 do
              let s = Batch.row ib (Array.unsafe_get idx j) in
              let d =
                Degree.conj
                  (Degree.conj
                     (Degree.conj Degree.one (Ftuple.degree s))
                     (Array.unsafe_get d_eq j))
                  (residual_degree stats rest r s)
              in
              if Degree.positive d then
                set :=
                  Vmap.update (Ftuple.value s z)
                    (function
                      | None -> Some d | Some d' -> Some (Degree.disj d d'))
                    !set
            done;
            let vs = List.map fst (Vmap.bindings !set) in
            let result =
              match (Aggregate.apply agg vs, agg) with
              | (Some _ as res), _ -> res
              | None, Aggregate.Count ->
                  (* COUNT over an empty group: the left outer join branch
                     of Query COUNT' compares with 0. *)
                  Some (Value.Int 0)
              | None, _ -> None
            in
            match result with
            | None -> ()
            | Some a ->
                Storage.Iostats.record_fuzzy_op stats;
                let d_link = Value.compare_degree op1 (Ftuple.value r y) a in
                project_insert acc select r
                  (Degree.conj (Ftuple.degree r) d_link) )
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
    let outer_attr, inner_attr =
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
    let residual r s =
      let d1 =
        List.fold_left
          (fun acc ((c : Classify.corr), p) ->
            Storage.Iostats.record_fuzzy_op stats;
            Degree.conj acc
              (Value.compare_degree c.Classify.op
                 (Ftuple.value s c.Classify.local_attr)
                 (Ftuple.value r p)))
          Degree.one of_new
      in
      List.fold_left
        (fun acc ((c : Classify.corr), p) ->
          Storage.Iostats.record_fuzzy_op stats;
          Degree.conj acc
            (Value.compare_degree c.Classify.op (Ftuple.value r p)
               (Ftuple.value s c.Classify.outer_attr)))
        d1 onto_new
    in
    (* [carried] lists the accumulated side's attributes first, then
       block [b]'s. *)
    let from_r, from_s = List.partition (fun (blk, _) -> blk <> b) carried in
    let r_pos = Array.of_list (List.map pos_r from_r) in
    let s_attrs = Array.of_list (List.map snd from_s) in
    let step = if semi_join then "semi-join" else "join" in
    Trace.with_span trace ~stats (step ^ " " ^ Schema.name (schema_of b)) (fun () ->
        (* Per outer tuple, one max per distinct projection of the window
           onto block [b]'s carried attributes, then one max-fold across
           the step; a semi-join step has the empty projection, so it
           emits at most one tuple per [r]. *)
        let fold = Algebra.Max_fold.create () in
        let window = ref Vals_map.empty in
        let pair r s d_eq =
          if Degree.positive d_eq then begin
            let d =
              Degree.conj_list
                [ Ftuple.degree r; Ftuple.degree s; d_eq; residual r s ]
            in
            if Degree.positive d then
              window :=
                Vals_map.update
                  (Array.map (Ftuple.value s) s_attrs)
                  (function None -> Some d | Some d' -> Some (Degree.disj d d'))
                  !window
          end
        in
        let flush r =
          if not (Vals_map.is_empty !window) then begin
            let r_vals = Array.map (Ftuple.value r) r_pos in
            Vals_map.iter
              (fun s_vals d ->
                Algebra.Max_fold.add fold (Ftuple.make (Array.append r_vals s_vals) d))
              !window;
            window := Vals_map.empty
          end
        in
        Join_merge.sort_sweep ?trace ?cancel ~outer:!acc ~inner:reduced.(b)
          ~outer_attr ~inner_attr ~mem_pages
          ~emit:(fun ob i ~inner:ib ~idx ~n ~d_eq ->
            let r = Batch.row ob i in
            for j = 0 to n - 1 do
              pair r (Batch.row ib idx.(j)) d_eq.(j)
            done;
            flush r)
          ();
        let folded =
          Algebra.Max_fold.to_relation fold env
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

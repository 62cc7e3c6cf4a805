(** The nested-loop method: the only way a *nested* fuzzy query can be
    evaluated (Section 3), and the baseline of every experiment in Section 9.

    Buffer allocation follows the paper: one page for the inner relation, the
    rest for outer blocks. For each outer block the inner relation is scanned
    once while per-outer-tuple accumulators absorb each inner tuple's
    contribution to the linking predicate; this is semantically identical to
    re-evaluating the inner block per outer tuple (max / min of mins commute
    with the scan order) but has the paper's measured I/O pattern
    [b_R + ceil(b_R / (M-1)) * b_S]. *)

open Relational
open Fuzzy
open Fuzzysql

module Vmap = Map.Make (struct
  type t = Value.t

  let compare = Value.compare_structural
end)

(* Degree of the conjunction of correlation predicates for a pair (r, s). *)
let corr_degree stats (corr : Classify.corr list) r s =
  match corr with
  | [] -> Degree.one
  | corr ->
      List.fold_left
        (fun acc (c : Classify.corr) ->
          Storage.Iostats.record_fuzzy_op stats;
          Degree.conj acc
            (Value.compare_degree c.Classify.op
               (Ftuple.value s c.Classify.local_attr)
               (Ftuple.value r c.Classify.outer_attr)))
        Degree.one corr

let run ?(name = "answer") ?trace ?cancel (shape : Classify.two_level)
    ~mem_pages : Relation.t =
  let module Trace = Storage.Trace in
  let { Classify.select; outer; inner; p1; p2; link; threshold } = shape in
  let env = Relation.env outer in
  let stats = env.Storage.Env.stats in
  let out_schema =
    Schema.make ~name
      (List.map (fun i -> (Schema.attrs (Relation.schema outer)).(i)) select)
  in
  (* The answer is max-folded as it is produced: no pre-dedup relation. *)
  let acc = Algebra.Max_fold.create () and emitted = ref 0 in
  let select = Array.of_list select in
  let emit r d =
    if Degree.positive d then begin
      incr emitted;
      Algebra.Max_fold.add acc (Ftuple.make (Array.map (Ftuple.value r) select) d)
    end
  in
  Trace.with_span trace ~stats ~pool:env.Storage.Env.pool "nested-loop"
    (fun () ->
  Join_nested_loop.iter_blocks ~outer ~inner ~mem_pages
    ~f:(fun block scan_inner ->
      Storage.Cancel.check cancel;
      (* d1.(i): degree of membership and p1 for the i-th block tuple. *)
      let d1 =
        Array.map
          (fun r ->
            let d =
              Degree.conj (Ftuple.degree r) (Semantics.local_degree stats r p1)
            in
            (* Threshold pushdown: a failing outer tuple can never produce a
               passing answer (the answer degree is min(d, ...)). *)
            if Pushdown.cannot_pass threshold d then Degree.zero else d)
          block
      in
      let n = Array.length block in
      (* Per-link accumulation, with the link dispatch hoisted out of the
         per-pair loop. [absorb s d2] folds one inner tuple into every block
         tuple's accumulator; [finalize i r] turns the accumulator into the
         linking predicate's satisfaction degree. *)
      let absorb, finalize =
        match link with
        | Classify.In_link { y; z; corr } | Classify.Not_in_link { y; z; corr }
          ->
            (* NOT IN is the negation of IN's degree. *)
            let negated =
              match link with Classify.Not_in_link _ -> true | _ -> false
            in
            let m = Array.make n Degree.zero in
            ( (fun s d2 ->
                for i = 0 to n - 1 do
                  if Degree.positive d1.(i) then begin
                    let r = block.(i) in
                    Storage.Iostats.record_fuzzy_op stats;
                    let term =
                      Degree.conj d2
                        (Degree.conj
                           (Value.compare_degree Fuzzy_compare.Eq
                              (Ftuple.value r y) (Ftuple.value s z))
                           (corr_degree stats corr r s))
                    in
                    if term > m.(i) then m.(i) <- term
                  end
                done),
              fun i _ -> if negated then Degree.neg m.(i) else m.(i) )
        | Classify.Quant_link { y; op; quant; z; corr } ->
            let m = Array.make n Degree.zero in
            ( (fun s d2 ->
                for i = 0 to n - 1 do
                  if Degree.positive d1.(i) then begin
                    let r = block.(i) in
                    Storage.Iostats.record_fuzzy_op stats;
                    let d_cmp =
                      Value.compare_degree op (Ftuple.value r y)
                        (Ftuple.value s z)
                    in
                    let inner_term =
                      match quant with
                      | Ast.All -> Degree.neg d_cmp
                      | Ast.Some_ -> d_cmp
                    in
                    let term =
                      Degree.conj d2
                        (Degree.conj inner_term (corr_degree stats corr r s))
                    in
                    if term > m.(i) then m.(i) <- term
                  end
                done),
              fun i _ ->
                match quant with
                | Ast.All -> Degree.neg m.(i)
                | Ast.Some_ -> m.(i) )
        | Classify.Exists_link { negated; corr } ->
            let m = Array.make n Degree.zero in
            ( (fun s d2 ->
                for i = 0 to n - 1 do
                  if Degree.positive d1.(i) then begin
                    let term = Degree.conj d2 (corr_degree stats corr block.(i) s) in
                    if term > m.(i) then m.(i) <- term
                  end
                done),
              fun i _ -> if negated then Degree.neg m.(i) else m.(i) )
        | Classify.Agg_link { y; op1; agg; z; corr } ->
            let sets = Array.make n Vmap.empty in
            ( (fun s d2 ->
                for i = 0 to n - 1 do
                  if Degree.positive d1.(i) then begin
                    let r = block.(i) in
                    let d = Degree.conj d2 (corr_degree stats corr r s) in
                    if Degree.positive d then
                      sets.(i) <-
                        Vmap.update (Ftuple.value s z)
                          (function
                            | None -> Some d
                            | Some d' -> Some (Degree.disj d d'))
                          sets.(i)
                  end
                done),
              fun i r ->
                let vs = List.map fst (Vmap.bindings sets.(i)) in
                let result =
                  match (Aggregate.apply agg vs, agg) with
                  | (Some _ as res), _ -> res
                  | None, Aggregate.Count -> Some (Value.Int 0)
                  | None, _ -> None
                in
                match result with
                | None -> Degree.zero
                | Some a ->
                    Storage.Iostats.record_fuzzy_op stats;
                    Value.compare_degree op1 (Ftuple.value r y) a )
      in
      let inner_prune = Pushdown.inner_prunable link in
      scan_inner (fun s ->
          Storage.Cancel.check cancel;
          let d2 =
            Degree.conj (Ftuple.degree s) (Semantics.local_degree stats s p2)
          in
          if
            Degree.positive d2
            && not (inner_prune && Pushdown.cannot_pass threshold d2)
          then absorb s d2);
      Array.iteri
        (fun i r ->
          if Degree.positive d1.(i) then
            emit r (Degree.conj d1.(i) (finalize i r)))
        block);
      Trace.set_rows trace !emitted);
  let deduped =
    Trace.with_span trace ~stats "dedup" (fun () ->
        let deduped = Algebra.Max_fold.to_relation acc env out_schema in
        Trace.set_rows trace (Relation.cardinality deduped);
        deduped)
  in
  Semantics.apply_threshold deduped threshold

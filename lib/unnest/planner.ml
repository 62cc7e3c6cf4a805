(** Entry point of the query processor: classify, choose a method, execute.

    Three strategies are available:
    - [Naive]: the recursive interpreter (inner blocks re-evaluated per outer
      binding) — always applicable;
    - [Nested_loop]: the paper's blocked nested-loop method for 2-level
      shapes;
    - [Unnest_merge]: the paper's unnesting transformations evaluated with
      the extended merge-join.

    [Auto] picks [Unnest_merge] whenever the query's shape supports it,
    falling back to [Nested_loop] (for 2-level shapes without an equality to
    sweep on) and finally to [Naive] — mirroring the paper's conclusion that
    unnested evaluation dominates whenever it applies. *)

open Relational

type strategy = Auto | Naive | Nested_loop | Unnest_merge

let strategy_to_string = function
  | Auto -> "auto"
  | Naive -> "naive"
  | Nested_loop -> "nested-loop"
  | Unnest_merge -> "unnest+merge-join"

exception Unsupported of string

let default_mem_pages = 256 (* 2 MB of 8 KB pages, the paper's buffer *)

(* ORDER BY D [DESC|ASC] and LIMIT k: rank the answer by membership degree
   and keep the top k. Ties break on the value vectors so results are
   deterministic. The ranked copy replaces (and frees) [answer]. *)
let rank_and_limit answer ~order ~limit =
  match (order, limit) with
  | None, None -> answer
  | _ ->
      Fun.protect ~finally:(fun () -> Relation.destroy answer) @@ fun () ->
      let tuples = Relation.to_list answer in
      let sorted =
        match order with
        | None -> tuples
        | Some dir ->
            List.sort
              (fun a b ->
                let c =
                  Float.compare (Ftuple.degree b) (Ftuple.degree a)
                in
                let c = match dir with Fuzzysql.Ast.Desc -> c | Fuzzysql.Ast.Asc -> -c in
                if c <> 0 then c else Ftuple.compare_values a b)
              tuples
      in
      let truncated =
        match limit with
        | None -> sorted
        | Some k ->
            let rec take n = function
              | x :: rest when n > 0 -> x :: take (n - 1) rest
              | _ -> []
            in
            take k sorted
      in
      Relation.of_list (Relation.env answer) (Relation.schema answer) truncated

let run_unranked ?(name = "answer") ?(strategy = Auto)
    ?(mem_pages = default_mem_pages) ?(chain_dp = true) ?trace ?cancel
    (q : Fuzzysql.Bound.query) : Relation.t =
  Storage.Cancel.check cancel;
  let shape = Classify.classify q in
  let naive () = Naive_eval.query ~name ?trace q in
  let unsupported () =
    raise (Unsupported "query shape cannot be unnested; use Auto or Naive")
  in
  (* One merge-join attempt per unnestable shape. A 2-level shape with no
     equality to sweep on falls back to the nested-loop method; anything
     else that cannot be unnested runs [fallback]. *)
  let unnest ~fallback = function
    | Classify.Two_level two -> (
        try Merge_exec.run ~name ?trace ?cancel two ~mem_pages
        with Merge_exec.Not_unnestable _ ->
          Nl_exec.run ~name ?trace ?cancel two ~mem_pages)
    | Classify.Chain_query chain -> (
        let order = if chain_dp then Some (Chain_order.plan ?trace chain) else None in
        try Merge_exec.run_chain ~name ?order ?trace ?cancel chain ~mem_pages
        with Merge_exec.Not_unnestable _ -> fallback ())
    | Classify.Flat | Classify.General -> fallback ()
  in
  (* Multi-relation outer blocks become unnestable after the outer FROM
     product is materialised (see {!Flatten}); [fallback] runs when the
     rewrite does not apply or does not help. *)
  let try_flattened ~fallback =
    match Flatten.flatten_outer q with
    | None -> fallback ()
    | Some q' ->
        (* The materialised product is a temporary of this run. *)
        let product = snd (List.hd q'.Fuzzysql.Bound.from) in
        Fun.protect ~finally:(fun () -> Relation.destroy product) @@ fun () ->
        unnest ~fallback (Classify.classify q')
  in
  let exec () =
    match (strategy, shape) with
    | Naive, _ -> naive ()
    | Nested_loop, Classify.Two_level shape ->
        Nl_exec.run ~name ?trace ?cancel shape ~mem_pages
    | Nested_loop, (Classify.Flat | Classify.General | Classify.Chain_query _)
      ->
        naive ()
    | (Auto | Unnest_merge), Classify.Flat -> naive ()
    | Auto, Classify.General -> try_flattened ~fallback:naive
    | Auto, shape -> unnest ~fallback:naive shape
    | Unnest_merge, Classify.General -> try_flattened ~fallback:unsupported
    | Unnest_merge, shape -> unnest ~fallback:unsupported shape
  in
  (* One root span per query, carrying the whole run's Iostats delta and
     the answer cardinality; the executors' operator spans nest inside. *)
  match q.Fuzzysql.Bound.from with
  | (_, rel) :: _ ->
      let stats = (Relation.env rel).Storage.Env.stats in
      Storage.Trace.with_span trace ~stats "query" (fun () ->
          let answer = exec () in
          Storage.Trace.set_rows trace (Relation.cardinality answer);
          answer)
  | [] -> exec ()

let run ?name ?strategy ?mem_pages ?chain_dp ?trace ?cancel
    (q : Fuzzysql.Bound.query) : Relation.t =
  let answer = run_unranked ?name ?strategy ?mem_pages ?chain_dp ?trace ?cancel q in
  rank_and_limit answer ~order:q.Fuzzysql.Bound.order_by_d
    ~limit:q.Fuzzysql.Bound.limit

let run_string ?name ?strategy ?mem_pages ?chain_dp ?trace ?cancel ~catalog
    ~terms sql =
  run ?name ?strategy ?mem_pages ?chain_dp ?trace ?cancel
    (Fuzzysql.Analyzer.bind_string ~catalog ~terms sql)

(** Join-order selection for unnested chain queries.

    Section 8: "To evaluate Query Q'_K, an optimal join order may be
    determined by using, say, a dynamic programming method, to minimize the
    sizes of the intermediate relations." A chain's join graph is a path, so
    connected left-deep orders are exactly the ways of growing a contiguous
    block interval one step left or right; the classic interval DP finds the
    order minimising the sum of estimated intermediate cardinalities in
    O(K^2) states.

    Cardinalities are estimated from equi-width histograms over each link's
    attributes ({!Relational.Histogram}): the expected per-tuple fan-out of
    the join between adjacent blocks k and k+1 is
    [est_pairs(k, k+1) / (card_k * card_{k+1})] scaled by the joining side.
    A step whose new block contributes no live attribute is a semi-join: it
    emits at most one tuple per accumulated tuple, so its estimate is capped
    at the accumulated cardinality. *)

open Relational

type order = {
  start : int;  (** index of the first block materialised *)
  steps : int list;  (** block indices joined in, each adjacent to the set *)
  estimated_cost : float;  (** sum of estimated intermediate cardinalities *)
}

type step = { block : int; carried : (int * int) list; semi_join : bool }

let left_to_right k =
  { start = 0; steps = List.init (k - 1) (fun i -> i + 1); estimated_cost = nan }

(* The attributes of the joined interval [lo..hi] that a later step or the
   answer still reads: the answer attributes, the link attribute towards
   each unjoined neighbour, and the joined endpoint of every correlation
   predicate whose other block is not joined yet. Ascending, no
   duplicates. *)
let live (chain : Classify.chain) ~lo ~hi =
  let blocks = Array.of_list chain.Classify.blocks in
  let k = Array.length blocks in
  let joined b = lo <= b && b <= hi in
  let answer =
    if lo = 0 then List.map (fun a -> (0, a)) chain.Classify.top_select else []
  in
  let left = if lo > 0 then [ (lo, blocks.(lo).Classify.out_attr) ] else [] in
  let right =
    match blocks.(hi).Classify.link_attr with
    | Some y when hi < k - 1 -> [ (hi, y) ]
    | _ -> []
  in
  let pending =
    List.concat
      (List.init k (fun b ->
           List.filter_map
             (fun (c : Classify.corr) ->
               let target = b - c.Classify.up in
               if joined b && not (joined target) then
                 Some (b, c.Classify.local_attr)
               else if joined target && not (joined b) then
                 Some (target, c.Classify.outer_attr)
               else None)
             blocks.(b).Classify.corr))
  in
  List.sort_uniq compare (answer @ left @ right @ pending)

let adds_live chain ~lo ~hi b =
  List.exists (fun (blk, _) -> blk = b) (live chain ~lo ~hi)

let cascade (chain : Classify.chain) { start; steps; _ } =
  let lo = ref start and hi = ref start in
  List.map
    (fun b ->
      if b <> !lo - 1 && b <> !hi + 1 then
        invalid_arg "Chain_order.cascade: order step not adjacent to the set";
      lo := Int.min !lo b;
      hi := Int.max !hi b;
      let acc, added =
        List.partition (fun (blk, _) -> blk <> b) (live chain ~lo:!lo ~hi:!hi)
      in
      { block = b; carried = acc @ added; semi_join = added = [] })
    steps

(** Estimated join-pair count between adjacent blocks [k] and [k+1], from
    histograms on Y_k and X_{k+1}. *)
let adjacent_pairs (blocks : Classify.chain_block array) k =
  let b = blocks.(k) and b' = blocks.(k + 1) in
  match b.Classify.link_attr with
  | None -> 0.0
  | Some y ->
      let h1 = Histogram.build b.Classify.rel ~attr:y in
      let h2 = Histogram.build b'.Classify.rel ~attr:b'.Classify.out_attr in
      Histogram.estimate_eq_join h1 h2

let plan ?trace (chain : Classify.chain) : order =
  let blocks = Array.of_list chain.Classify.blocks in
  let k = Array.length blocks in
  if k < 2 then { start = 0; steps = []; estimated_cost = 0.0 }
  else
    let stats = (Relation.env blocks.(0).Classify.rel).Storage.Env.stats in
    Storage.Trace.with_span trace ~stats "chain-order" @@ fun () ->
    let card = Array.map (fun b -> float_of_int (Relation.cardinality b.Classify.rel)) blocks in
    let pairs = Array.init (k - 1) (adjacent_pairs blocks) in
    (* fan.(i): expected matches in block i+1 per tuple of a set containing
       block i, and symmetrically fan_left.(i) for extending to block i. *)
    let fan_right = Array.init (k - 1) (fun i -> pairs.(i) /. Float.max 1.0 card.(i)) in
    let fan_left = Array.init (k - 1) (fun i -> pairs.(i) /. Float.max 1.0 card.(i + 1)) in
    (* Joining [b] to reach [lo..hi] from [c] accumulated tuples. *)
    let step_card c fan ~lo ~hi b =
      let c' = c *. fan in
      if adds_live chain ~lo ~hi b then c' else Float.min c c'
    in
    (* DP over intervals: best.(i).(j) = (cost, card, order). *)
    let best = Array.make_matrix k k None in
    for i = 0 to k - 1 do
      best.(i).(i) <- Some (0.0, card.(i), { start = i; steps = []; estimated_cost = 0.0 })
    done;
    for len = 2 to k do
      for i = 0 to k - len do
        let j = i + len - 1 in
        (* extend [i+1..j] to the left with block i *)
        let from_left =
          match best.(i + 1).(j) with
          | Some (cost, c, ord) ->
              let c' = step_card c fan_left.(i) ~lo:i ~hi:j i in
              Some (cost +. c', c', { ord with steps = ord.steps @ [ i ] })
          | None -> None
        in
        (* extend [i..j-1] to the right with block j *)
        let from_right =
          match best.(i).(j - 1) with
          | Some (cost, c, ord) ->
              let c' = step_card c fan_right.(j - 1) ~lo:i ~hi:j j in
              Some (cost +. c', c', { ord with steps = ord.steps @ [ j ] })
          | None -> None
        in
        best.(i).(j) <-
          (match (from_left, from_right) with
          | Some (c1, _, _), Some (c2, _, _) when c2 <= c1 -> from_right
          | Some _, Some _ -> from_left
          | (Some _ as only), None | None, (Some _ as only) -> only
          | None, None -> None)
      done
    done;
    match best.(0).(k - 1) with
    | Some (cost, _, ord) -> { ord with estimated_cost = cost }
    | None -> left_to_right k

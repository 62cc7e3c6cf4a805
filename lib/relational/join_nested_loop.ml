open Storage
open Fuzzy

let iter_blocks ~outer ~inner ~mem_pages ~f =
  if mem_pages < 2 then invalid_arg "Join_nested_loop: mem_pages < 2";
  let env = Relation.env outer in
  let outer_file = Relation.file outer in
  Buffer_pool.flush (Heap_file.pool outer_file);
  Buffer_pool.flush (Heap_file.pool (Relation.file inner));
  Iostats.timed env.Env.stats Iostats.Join (fun () ->
      let outer_block = mem_pages - 1 in
      (* Scoped pools sit over each scanned file's own backend — durable
         relations and temporary intermediates may live on different
         disks of the same environment. *)
      let outer_pool =
        Buffer_pool.create (Heap_file.disk outer_file) ~capacity:outer_block
      in
      let inner_pool =
        Buffer_pool.create (Heap_file.disk (Relation.file inner)) ~capacity:1
      in
      let scan_inner g = Relation.iter_via inner_pool inner g in
      let c = Heap_file.Slices.of_file ~pool:outer_pool outer_file in
      (* A block is [outer_block] pages' records, decoded in place. It
         ends on a page's last record, so the next block's first page is
         read only after the inner scan. *)
      let rec blocks () =
        let block = ref [] and pages = ref 0 in
        while !pages < outer_block && Heap_file.Slices.advance c do
          block :=
            Codec.decode_at (Heap_file.Slices.page c) (Heap_file.Slices.off c)
            :: !block;
          if Heap_file.Slices.buffered c = 0 then incr pages
        done;
        if !block <> [] then begin
          f (Array.of_list (List.rev !block)) scan_inner;
          blocks ()
        end
      in
      blocks ())

let iter_pairs ~outer ~inner ~mem_pages ~f =
  iter_blocks ~outer ~inner ~mem_pages ~f:(fun block scan_inner ->
      scan_inner (fun s -> Array.iter (fun r -> f r s) block))

let join ?name ~outer ~inner ~mem_pages ~on ?residual () =
  let env = Relation.env outer in
  let stats = env.Env.stats in
  let out_schema =
    Schema.concat
      ~name:(Option.value name ~default:"join")
      (Relation.schema outer) (Relation.schema inner)
  in
  let out = Relation.create env out_schema in
  iter_pairs ~outer ~inner ~mem_pages ~f:(fun r s ->
      let d_on =
        Degree.conj_list
          (List.map
             (fun (ri, op, si) ->
               Iostats.record_fuzzy_op stats;
               Value.compare_degree op (Ftuple.value r ri) (Ftuple.value s si))
             on)
      in
      let d_res = match residual with None -> Degree.one | Some f -> f r s in
      let d =
        Degree.conj_list [ Ftuple.degree r; Ftuple.degree s; d_on; d_res ]
      in
      if Degree.positive d then Relation.insert out (Ftuple.concat r s d));
  out

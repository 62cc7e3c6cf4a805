(** Shared helpers for the test suites. *)

open Frepro
open Relational

let degree = Alcotest.testable Fuzzy.Degree.pp (fun a b -> Fuzzy.Degree.equal a b)

let check_degree msg expected actual = Alcotest.check degree msg expected actual

let interval =
  Alcotest.testable Fuzzy.Interval.pp (fun a b -> Fuzzy.Interval.equal a b)

let value = Alcotest.testable Value.pp Value.equal

(* Answers as sorted (values, degree) lists, compared up to 1e-9 on
   degrees — the equivalence notion of the paper's theorems. *)
let answer_of_relation rel =
  Relation.to_list rel
  |> List.map (fun t -> (t.Ftuple.values, Ftuple.degree t))
  |> List.sort (fun (v1, _) (v2, _) ->
         let c = Int.compare (Array.length v1) (Array.length v2) in
         if c <> 0 then c
         else
           let rec go i =
             if i >= Array.length v1 then 0
             else
               match Value.compare_structural v1.(i) v2.(i) with
               | 0 -> go (i + 1)
               | c -> c
           in
           go 0)

let answers_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (v1, d1) (v2, d2) ->
         Array.length v1 = Array.length v2
         && Array.for_all2 Value.equal v1 v2
         && Fuzzy.Degree.equal d1 d2)
       a b

let pp_answer ppf ans =
  List.iter
    (fun (vs, d) ->
      Format.fprintf ppf "(%s | %.6f)@ "
        (String.concat ", " (Array.to_list (Array.map Value.to_string vs)))
        d)
    ans

let check_same_answer msg rel1 rel2 =
  let a1 = answer_of_relation rel1 and a2 = answer_of_relation rel2 in
  if not (answers_equal a1 a2) then
    Alcotest.failf "%s:@.left:@ %a@.right:@ %a" msg pp_answer a1 pp_answer a2

let fresh_env ?(pool_pages = 256) () = Storage.Env.create ~pool_pages ()

let tuple vs d = Ftuple.make (Array.of_list vs) d

let term name =
  match Fuzzy.Term.lookup Fuzzy.Term.paper name with
  | Some p -> Value.Fuzzy p
  | None -> Alcotest.failf "unknown paper term %s" name

(* The dating-service database of Example 4.1. *)
let paper_db env =
  let catalog = Catalog.create env in
  let person_schema name =
    Schema.make ~name
      [
        ("ID", Schema.TNum); ("NAME", Schema.TStr); ("AGE", Schema.TNum);
        ("INCOME", Schema.TNum);
      ]
  in
  let f =
    Relation.of_list env (person_schema "F")
      [
        tuple [ Value.Int 101; Value.Str "Ann"; term "about 35"; term "about 60K" ] 1.0;
        tuple [ Value.Int 102; Value.Str "Ann"; term "medium young"; term "medium high" ] 1.0;
        tuple [ Value.Int 103; Value.Str "Betty"; term "middle age"; term "high" ] 1.0;
        tuple [ Value.Int 104; Value.Str "Cathy"; term "about 50"; term "low" ] 1.0;
      ]
  in
  let m =
    Relation.of_list env (person_schema "M")
      [
        tuple [ Value.Int 201; Value.Str "Allen"; Value.crisp_num 24.0; term "about 25K" ] 1.0;
        tuple [ Value.Int 202; Value.Str "Allen"; term "about 50"; term "about 40K" ] 1.0;
        tuple [ Value.Int 203; Value.Str "Bill"; term "middle age"; term "high" ] 1.0;
        tuple [ Value.Int 204; Value.Str "Carl"; term "about 29"; term "medium low" ] 1.0;
      ]
  in
  Catalog.add catalog f;
  Catalog.add catalog m;
  catalog

let bind_paper_query env sql =
  Fuzzysql.Analyzer.bind_string ~catalog:(paper_db env) ~terms:Fuzzy.Term.paper sql

let run_all_strategies q =
  ( Unnest.Naive_eval.query q,
    Unnest.Planner.run ~strategy:Unnest.Planner.Nested_loop q,
    Unnest.Planner.run ~strategy:Unnest.Planner.Auto q )

(* ---------- the external sort ---------- *)

(* A sort-test record ["LLL HHH TTTT"]: the key [lo, hi], then a tag that
   tells tied records apart. *)
let sort_record ~lo ~hi ~tag =
  Bytes.of_string (Printf.sprintf "%03d %03d %04d" lo hi tag)

let sort_record_key page off lo hi i =
  lo.(i) <- float_of_string (Bytes.sub_string page off 3);
  hi.(i) <- float_of_string (Bytes.sub_string page (off + 4) 3)

let heap_file env records =
  let f = Storage.Heap_file.create env in
  List.iter (Storage.Heap_file.append f) records;
  f

(* Every record of [f] in scan order, copied out of its page. *)
let records f =
  let module S = Storage.Heap_file.Slices in
  let c = S.of_file f and acc = ref [] in
  while S.advance c do
    acc := Bytes.sub (S.page c) (S.off c) (S.len c) :: !acc
  done;
  List.rev !acc

let sort_spec name file =
  { Storage.External_sort.name; file; key = sort_record_key }

(* [rows] encoded back to back on one page, each padded by [pad] bytes
   and preceded by a 3-byte gap, as views of that page. *)
let views_of_tuples ?(pad = 0) rows : Storage.External_sort.views =
  let encs = Array.map (fun t -> Codec.encode ~pad_to:(Codec.encoded_size t + pad) t) rows in
  let page = Buffer.create 256 and offs = Array.make (Array.length rows) 0 in
  Array.iteri
    (fun k e ->
      Buffer.add_string page "\255\255\255";
      offs.(k) <- Buffer.length page;
      Buffer.add_bytes page e)
    encs;
  let page = Buffer.to_bytes page in
  { pages = Array.map (fun _ -> page) rows; offs; lens = Array.map Bytes.length encs }

(* A sweep batch over [rows], read from their encodings. *)
let batch_of_tuples ?pad rows = Batch.of_views (views_of_tuples ?pad rows)

(* The records a chunk of views points at, copied out of their pages. *)
let view_records (v : Storage.External_sort.views) =
  Array.to_list (Array.mapi (fun k page -> Bytes.sub page v.offs.(k) v.lens.(k)) v.pages)

(* The next chunk of a sorted stream, as records. *)
let pull s ~max ~page_bound = view_records (Storage.External_sort.pull s ~max ~page_bound)

(* The rest of a sorted stream, pulled in chunks of at most [chunk]. *)
let drain ?(chunk = 7) ?(page_bound = false) s =
  let rec go acc =
    match pull s ~max:chunk ~page_bound with
    | [] -> List.rev acc
    | rows -> go (List.rev_append rows acc)
  in
  go []

(* [External_sort.with_sorted] over [outer] and [inner], both drained. *)
let sort_files ?trace ?cancel ?page_bound ~mem_pages outer inner =
  Storage.External_sort.with_sorted ?trace ?cancel ~mem_pages
    (sort_spec "outer" outer) (sort_spec "inner" inner) (fun so si ->
      let a = drain ?page_bound so in
      (a, drain ?page_bound si))

(* One input sorted alone: the other input is empty. *)
let sort_file ?trace ?cancel ~mem_pages f =
  let empty = Storage.Heap_file.create (Storage.Heap_file.env f) in
  fst (sort_files ?trace ?cancel ~mem_pages f empty)

let sort_key_pair r =
  let lo = [| 0.0 |] and hi = [| 0.0 |] in
  sort_record_key r 0 lo hi 0;
  (lo.(0), hi.(0))

(* The in-memory oracle: [sorted] holds [records] in key order, its keys
   those of [List.stable_sort] over [records] and its records the same
   multiset (equal-key ties carry no order). *)
let sorted_like records sorted =
  List.map sort_key_pair sorted
  = List.map sort_key_pair
      (List.stable_sort (fun a b -> compare (sort_key_pair a) (sort_key_pair b)) records)
  && List.sort Bytes.compare sorted = List.sort Bytes.compare records

(* A TCP client that connects to loopback:[port] and sends nothing. *)
let idle_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* [f ()] on a thread of its own, given 2 s. On a timeout [unblock ()]
   runs, so the thread can finish before the test fails. *)
let within ~unblock what f =
  let limit = 2.0 and result = Atomic.make None in
  let th =
    Thread.create
      (fun () -> Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
      ()
  in
  let deadline = Unix.gettimeofday () +. limit in
  while Option.is_none (Atomic.get result) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let timed_out = Option.is_none (Atomic.get result) in
  if timed_out then unblock ();
  Thread.join th;
  if timed_out then Alcotest.failf "%s: not done within %.1f s" what limit;
  match Atomic.get result with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

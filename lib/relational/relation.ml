open Storage

type t = {
  schema : Schema.t;
  env : Env.t;
  file : Heap_file.t;
  pad_to : int option;
}

(* Catalog metadata blob for durable relations, stored in the WAL's
   manifest ([Define] records): schema name, pad_to, typed attributes. *)
let encode_meta schema pad_to =
  let b = Buffer.create 64 in
  let u16 v =
    Buffer.add_uint8 b (v land 0xff);
    Buffer.add_uint8 b ((v lsr 8) land 0xff)
  in
  let str s =
    u16 (String.length s);
    Buffer.add_string b s
  in
  str (Schema.name schema);
  u16 (match pad_to with Some p -> p | None -> 0xffff);
  u16 (Schema.arity schema);
  Array.iter
    (fun (name, ty) ->
      str name;
      Buffer.add_uint8 b (match ty with Schema.TNum -> 0 | Schema.TStr -> 1))
    (Schema.attrs schema);
  Buffer.to_bytes b

exception Bad_meta of string

let decode_meta meta =
  let pos = ref 0 in
  let fail msg = raise (Bad_meta msg) in
  let u16 () =
    if !pos + 2 > Bytes.length meta then fail "truncated metadata";
    let v =
      Bytes.get_uint8 meta !pos lor (Bytes.get_uint8 meta (!pos + 1) lsl 8)
    in
    pos := !pos + 2;
    v
  in
  let str () =
    let len = u16 () in
    if !pos + len > Bytes.length meta then fail "truncated metadata";
    let s = Bytes.sub_string meta !pos len in
    pos := !pos + len;
    s
  in
  let name = str () in
  let pad = u16 () in
  let pad_to = if pad = 0xffff then None else Some pad in
  let arity = u16 () in
  let attrs =
    List.init arity (fun _ ->
        let aname = str () in
        let ty =
          if !pos >= Bytes.length meta then fail "truncated metadata"
          else
            match Bytes.get_uint8 meta !pos with
            | 0 -> Schema.TNum
            | 1 -> Schema.TStr
            | t -> fail (Printf.sprintf "bad type tag %d" t)
        in
        incr pos;
        (aname, ty))
  in
  (* [Schema.make] refuses a repeated attribute name *)
  match Schema.make ~name attrs with
  | schema -> (schema, pad_to)
  | exception Invalid_argument msg -> fail msg

let create ?pad_to ?(durable = false) env schema =
  let file = Heap_file.create ~durable env in
  if durable then Heap_file.set_meta file (encode_meta schema pad_to);
  { schema; env; file; pad_to }

let schema t = t.schema
let with_name t name = { t with schema = Schema.with_name t.schema name }
let env t = t.env
let file t = t.file
let pad_to t = t.pad_to
let is_durable t = Heap_file.is_durable t.file

let insert t tup =
  if Fuzzy.Degree.positive (Ftuple.degree tup) then
    Heap_file.append t.file (Codec.encode ?pad_to:t.pad_to tup)

let of_file ?pad_to env schema file = { schema; env; file; pad_to }

let of_list ?pad_to ?durable env schema tuples =
  let t = create ?pad_to ?durable env schema in
  List.iter (insert t) tuples;
  Buffer_pool.flush (Heap_file.pool t.file);
  t

let open_durable env ~fid ~meta ~pages =
  let schema, pad_to = decode_meta meta in
  let file = Heap_file.open_durable env ~fid ~pages in
  { schema; env; file; pad_to }

let cardinality t = Heap_file.num_records t.file
let num_pages t = Heap_file.num_pages t.file
(* Each record is decoded where it sits on its page. *)
let iter_via pool t f =
  let c = Heap_file.Slices.of_file ~pool t.file in
  while Heap_file.Slices.advance c do
    f (Codec.decode_at (Heap_file.Slices.page c) (Heap_file.Slices.off c))
  done

let iter t f = iter_via (Heap_file.pool t.file) t f

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun tup -> acc := f !acc tup);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc tup -> tup :: acc))

let destroy t = Heap_file.destroy t.file

let pp ppf t =
  Format.fprintf ppf "%a@." Schema.pp t.schema;
  iter t (fun tup -> Format.fprintf ppf "  %a@." Ftuple.pp tup)

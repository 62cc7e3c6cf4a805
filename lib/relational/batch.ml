let batch_rows = 128

type col = {
  ok : Bytes.t;
  lo : float array;
  hi : float array;
  ta : float array;
  tb : float array;
  tc : float array;
  td : float array;
}

(* Row [i] is the record encoded at [pages.(i)] from [offs.(i)]. [rows]
   holds the rows decoded so far: [[||]] until the first {!row}, then
   [unread] where a row is not decoded yet. *)
type t = {
  pages : bytes array;
  offs : int array;
  deg : float array;
  mutable cols : (int * col) list;
  mutable rows : Ftuple.t array;
}

let unread = Ftuple.make [||] 0.0
let length t = Array.length t.offs
let degrees t = t.deg
let page t i = t.pages.(i)
let pos t i = t.offs.(i)
let ok c i = Bytes.unsafe_get c.ok i <> '\000'

let value t i attr =
  let page = t.pages.(i) in
  Codec.value_at page (Codec.value_offset page ~pos:t.offs.(i) attr)

let row t i =
  if Array.length t.rows = 0 then t.rows <- Array.make (length t) unread;
  let r = t.rows.(i) in
  if r != unread then r
  else begin
    let r = Codec.decode_at t.pages.(i) t.offs.(i) in
    t.rows.(i) <- r;
    r
  end

(* The degrees of rows [from ..] into [deg], read from the records. *)
let read_degrees deg pages offs from =
  for i = from to Array.length offs - 1 do
    Codec.degree_into pages.(i) ~pos:offs.(i) deg i
  done

let make pages offs =
  let deg = Array.make (Array.length offs) 0.0 in
  read_degrees deg pages offs 0;
  { pages; offs; deg; cols = []; rows = [||] }

let of_views (v : Storage.External_sort.views) = make v.pages v.offs
let empty () = make [||] [||]

(* A trapezoid's support is [a, d], so [ta] and [td] share [lo]'s and
   [hi]'s storage. *)
let make_col n =
  let lo = Array.make n 0.0 and hi = Array.make n 0.0 in
  {
    ok = Bytes.make n '\000';
    lo;
    hi;
    ta = lo;
    tb = Array.make n 0.0;
    tc = Array.make n 0.0;
    td = hi;
  }

(* Row [i]'s value of [attr], read from its record's bytes into row [j]
   of [c]. *)
let fill c j t i attr =
  let page = t.pages.(i) in
  if
    Codec.trapezoid_into page (Codec.value_offset page ~pos:t.offs.(i) attr)
      ~lo:c.lo ~hi:c.hi ~ta:c.ta ~tb:c.tb ~tc:c.tc ~td:c.td j
  then Bytes.unsafe_set c.ok j '\001'

let col t attr =
  match List.assoc_opt attr t.cols with
  | Some c -> c
  | None ->
      let n = length t in
      let c = make_col n in
      for i = 0 to n - 1 do
        fill c i t i attr
      done;
      t.cols <- (attr, c) :: t.cols;
      c

let carry t ~idx ~n (v : Storage.External_sort.views) =
  let m = Array.length v.offs in
  let pages = Array.make (n + m) Bytes.empty
  and offs = Array.make (n + m) 0
  and deg = Array.make (n + m) 0.0 in
  for j = 0 to n - 1 do
    let s = idx.(j) in
    pages.(j) <- t.pages.(s);
    offs.(j) <- t.offs.(s);
    deg.(j) <- t.deg.(s)
  done;
  Array.blit v.pages 0 pages n m;
  Array.blit v.offs 0 offs n m;
  read_degrees deg pages offs n;
  let b = { pages; offs; deg; cols = []; rows = [||] } in
  (* Every column extracted on [t] is carried: kept rows are copied, new
     rows read, so no row's value is read into a column twice. Rows
     already decoded are carried too. *)
  b.cols <-
    List.map
      (fun (attr, c) ->
        let c' = make_col (n + m) in
        for j = 0 to n - 1 do
          let s = idx.(j) in
          Bytes.set c'.ok j (Bytes.get c.ok s);
          c'.lo.(j) <- c.lo.(s);
          c'.hi.(j) <- c.hi.(s);
          c'.tb.(j) <- c.tb.(s);
          c'.tc.(j) <- c.tc.(s)
        done;
        for i = n to n + m - 1 do
          fill c' i b i attr
        done;
        (attr, c'))
      t.cols;
  if Array.length t.rows > 0 then begin
    b.rows <- Array.make (n + m) unread;
    for j = 0 to n - 1 do
      b.rows.(j) <- t.rows.(idx.(j))
    done
  end;
  b

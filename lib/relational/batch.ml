open Fuzzy

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

type t = {
  rows : Ftuple.t array;
  deg : float array;
  mutable cols : (int * col) list;
}

let length t = Array.length t.rows
let row t i = t.rows.(i)
let degrees t = t.deg
let ok c i = Bytes.unsafe_get c.ok i <> '\000'

let of_rows rows =
  { rows; deg = Array.map Ftuple.degree rows; cols = [] }

let make_col n =
  {
    ok = Bytes.make n '\000';
    lo = Array.make n 0.0;
    hi = Array.make n 0.0;
    ta = Array.make n 0.0;
    tb = Array.make n 0.0;
    tc = Array.make n 0.0;
    td = Array.make n 0.0;
  }

let set_col c i v =
  (* The support bounds drive the ⪯ window sweep for every value kind,
     exactly like [Value.support] (strings hash to a point, so they sort and
     window identically); numbers and trapezoids read them off directly,
     with no interval built. *)
  match v with
  | Value.Int k ->
      let f = float_of_int k in
      c.lo.(i) <- f;
      c.hi.(i) <- f;
      c.ta.(i) <- f;
      c.tb.(i) <- f;
      c.tc.(i) <- f;
      c.td.(i) <- f;
      Bytes.set c.ok i '\001'
  | Value.Fuzzy (Possibility.Trap tr) ->
      c.lo.(i) <- tr.Trapezoid.a;
      c.hi.(i) <- tr.Trapezoid.d;
      c.ta.(i) <- tr.Trapezoid.a;
      c.tb.(i) <- tr.Trapezoid.b;
      c.tc.(i) <- tr.Trapezoid.c;
      c.td.(i) <- tr.Trapezoid.d;
      Bytes.set c.ok i '\001'
  | Value.Fuzzy (Possibility.Discrete _) | Value.Str _ ->
      let s = Value.support v in
      c.lo.(i) <- Interval.lo s;
      c.hi.(i) <- Interval.hi s

let col t attr =
  match List.assoc_opt attr t.cols with
  | Some c -> c
  | None ->
      let n = Array.length t.rows in
      let c = make_col n in
      for i = 0 to n - 1 do
        set_col c i (Ftuple.value t.rows.(i) attr)
      done;
      t.cols <- (attr, c) :: t.cols;
      c

let carry t ~idx ~n rows =
  let m = Array.length rows in
  let b = of_rows (Array.append (Array.init n (fun j -> t.rows.(idx.(j)))) rows) in
  (* Every column extracted on [t] is carried: kept rows are copied, new
     rows extracted, so no row's value is decoded into a column twice. *)
  b.cols <-
    List.map
      (fun (attr, c) ->
        let c' = make_col (n + m) in
        for j = 0 to n - 1 do
          let s = idx.(j) in
          Bytes.set c'.ok j (Bytes.get c.ok s);
          c'.lo.(j) <- c.lo.(s);
          c'.hi.(j) <- c.hi.(s);
          c'.ta.(j) <- c.ta.(s);
          c'.tb.(j) <- c.tb.(s);
          c'.tc.(j) <- c.tc.(s);
          c'.td.(j) <- c.td.(s)
        done;
        for i = 0 to m - 1 do
          set_col c' (n + i) (Ftuple.value rows.(i) attr)
        done;
        (attr, c'))
      t.cols;
  b

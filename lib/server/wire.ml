exception Protocol_error of string
exception Connection_closed

let protocol_rev = 3

type request =
  | Query of {
      request_id : string;
      deadline_ms : int;
      domains : int;
      sql : string;
    }
  | Cancel
  | Metrics
  | Trace_get of string
  | Top
  | Rep_subscribe of { epoch : int; stream_id : int64; from_lsn : int }
  | Rep_ack of { epoch : int; applied_lsn : int }
  | Promote

type chunk_kind = Data_chunk | Wal_chunk

type reply =
  | Header of string list
  | Row of { degree_bits : int64; values : string list }
  | Done of { rows : int; elapsed_s : float }
  | Error of string
  | Retryable of string
  | Overloaded
  | Rejected of { code : string; diagnostics : string }
  | Cancelled of string
  | Metrics_json of string
  | Trace_json of string option
  | Top_text of string
  | Rep_hello of {
      epoch : int;
      stream_id : int64;
      page_size : int;
      snapshot : bool;
      start_lsn : int;
      data_len : int;
    }
  | Rep_chunk of { kind : chunk_kind; off : int; data : string }
  | Rep_wal of { epoch : int; start_lsn : int; primary_end : int; data : string }
  | Rep_fence of { epoch : int }
  | Promoted of { epoch : int }

let max_frame = 64 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* The output buffer: frames are encoded straight into one growable byte
   buffer, each frame's length prefix patched in once its payload is
   known, so a run of frames leaves in a single write. *)

type writer = { mutable wbuf : Bytes.t; mutable wlen : int }

(* Small: most writers carry one request frame. A connection's writer
   grows to its usual answer once and keeps that. *)
let writer_initial = 256

(* A buffer that grew past this for one large frame (a snapshot chunk, a
   metrics dump) is given back after its flush rather than kept for the
   connection's lifetime. *)
let writer_retain = 256 * 1024

let writer () = { wbuf = Bytes.create writer_initial; wlen = 0 }
let pending w = w.wlen

let reserve w n =
  let need = w.wlen + n in
  if need > Bytes.length w.wbuf then begin
    let b = Bytes.create (max need (2 * Bytes.length w.wbuf)) in
    Bytes.blit w.wbuf 0 b 0 w.wlen;
    w.wbuf <- b
  end

(* Primitive encoders (big-endian) on a writer / decoders on a string. *)

let add_char w c =
  reserve w 1;
  Bytes.unsafe_set w.wbuf w.wlen c;
  w.wlen <- w.wlen + 1

let add_u32 w n =
  if n < 0 then invalid_arg "Wire.add_u32: negative";
  reserve w 4;
  Bytes.set_int32_be w.wbuf w.wlen (Int32.of_int n);
  w.wlen <- w.wlen + 4

let add_u64 w (n : int64) =
  reserve w 8;
  Bytes.set_int64_be w.wbuf w.wlen n;
  w.wlen <- w.wlen + 8

let add_str w s =
  let n = String.length s in
  add_u32 w n;
  reserve w n;
  Bytes.blit_string s 0 w.wbuf w.wlen n;
  w.wlen <- w.wlen + n

let add_strs w ss =
  add_u32 w (List.length ss);
  List.iter (add_str w) ss

(* One frame: room for the length prefix, the payload, then the prefix
   filled in. An encoder that raises (a negative length field) leaves no
   partial frame behind. *)
let framed w encode =
  reserve w 4;
  let at = w.wlen in
  w.wlen <- at + 4;
  match encode () with
  | () -> Bytes.set_int32_be w.wbuf at (Int32.of_int (w.wlen - at - 4))
  | exception e ->
      w.wlen <- at;
      raise e

let get_u32 s pos =
  if !pos + 4 > String.length s then raise (Protocol_error "truncated u32");
  let v = Int32.to_int (String.get_int32_be s !pos) land 0xFFFF_FFFF in
  pos := !pos + 4;
  v

let get_u64 s pos =
  if !pos + 8 > String.length s then raise (Protocol_error "truncated u64");
  let v = String.get_int64_be s !pos in
  pos := !pos + 8;
  v

let get_str s pos =
  let n = get_u32 s pos in
  if !pos + n > String.length s then raise (Protocol_error "truncated string");
  let v = String.sub s !pos n in
  pos := !pos + n;
  v

let get_strs s pos =
  let n = get_u32 s pos in
  List.init n (fun _ -> get_str s pos)

(* ------------------------------------------------------------------ *)
(* Framing over the file descriptor.

   Every syscall loop restarts on EINTR (a signal delivered mid-syscall
   must not kill a session thread), and the peer vanishing — EOF or a
   short read mid-frame, EPIPE/ECONNRESET on write — maps to the single
   [Connection_closed] exception so callers have one case to handle. *)

let write_all fd buf off len =
  try Storage.Fd_io.write_all fd buf off len
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    raise Connection_closed

(* One [read] of whatever the kernel has, up to [len] bytes. *)
let rec read_some fd buf off len =
  match Unix.read fd buf off len with
  | 0 -> raise Connection_closed
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_some fd buf off len
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Connection_closed

(* Each flush is one write, so Nagle's algorithm has nothing to
   coalesce: it only holds a small reply frame back until the peer's
   delayed ACK (~40 ms). Best effort — a socket that is already dead
   fails on its first read or write instead. *)
let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

(* The buffer is emptied before the write, so a failed flush leaves no
   stale frames behind for the next one. *)
let flush w fd =
  let b = w.wbuf and len = w.wlen in
  w.wlen <- 0;
  if Bytes.length b > writer_retain then w.wbuf <- Bytes.create writer_initial;
  write_all fd b 0 len

type reader = {
  rfd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rpos : int;  (** first unread byte *)
  mutable rlen : int;  (** end of the buffered bytes *)
}

let reader_size = 8192
let reader fd = { rfd = fd; rbuf = Bytes.create reader_size; rpos = 0; rlen = 0 }

(* Make at least [n <= reader_size] bytes available at [rpos], moving
   the unread tail to the front first when they would not fit. *)
let fill r n =
  if r.rlen - r.rpos < n then begin
    if r.rpos + n > reader_size then begin
      Bytes.blit r.rbuf r.rpos r.rbuf 0 (r.rlen - r.rpos);
      r.rlen <- r.rlen - r.rpos;
      r.rpos <- 0
    end;
    while r.rlen - r.rpos < n do
      r.rlen <- r.rlen + read_some r.rfd r.rbuf r.rlen (reader_size - r.rlen)
    done
  end

let read_frame r =
  fill r 4;
  let n = Int32.to_int (Bytes.get_int32_be r.rbuf r.rpos) land 0xFFFF_FFFF in
  if n > max_frame then raise (Protocol_error "oversized frame");
  if n = 0 then raise (Protocol_error "empty frame");
  r.rpos <- r.rpos + 4;
  if n <= reader_size then begin
    fill r n;
    let payload = Bytes.sub_string r.rbuf r.rpos n in
    r.rpos <- r.rpos + n;
    payload
  end
  else begin
    (* Larger than the buffer: what is buffered starts the frame, the
       rest is read straight into the frame's own bytes. Those grow as
       bytes arrive, doubling from the reader's size, so what a frame
       holds follows what its peer has sent, not the length it declared. *)
    let payload = ref (Bytes.create reader_size) in
    let have = r.rlen - r.rpos in
    Bytes.blit r.rbuf r.rpos !payload 0 have;
    r.rpos <- 0;
    r.rlen <- 0;
    let got = ref have in
    while !got < n do
      if !got = Bytes.length !payload then begin
        let bigger = Bytes.create (Int.min n (2 * !got)) in
        Bytes.blit !payload 0 bigger 0 !got;
        payload := bigger
      end;
      got := !got + read_some r.rfd !payload !got (Bytes.length !payload - !got)
    done;
    Bytes.unsafe_to_string !payload
  end

(* ------------------------------------------------------------------ *)
(* Messages *)

(* Protocol revisions. Rev 1 had no request IDs and used tag ['Q'] for
   queries. Rev 2 adds the client-generated request ID under the new tag
   ['q'] (plus ['G'] trace fetch and ['P'] stats snapshot), and keeps both
   directions of compatibility:

   - old client / new server: rev-1 ['Q'] frames still decode, yielding
     [request_id = ""] (the server assigns one);
   - new client / old server: a query with [request_id = ""] encodes as a
     byte-identical rev-1 ['Q'] frame, so a client that doesn't opt into
     IDs speaks pure rev 1 and an old server never sees an unknown tag.

   Rev 3 adds replication (['r'] subscribe / ['a'] ack, with the
   streaming replies ['h'] hello, ['c'] snapshot chunk, ['w'] WAL batch,
   ['f'] fence) and admin promotion (['U'] / ['u']). Compatibility is by
   construction: rev 3 only introduces new tags, so every rev-2 frame
   encodes and decodes byte-identically under rev 3, and a rev-2 client
   that never sends the new tags cannot elicit one in response. *)
let add_request w r =
  framed w @@ fun () ->
  match r with
  | Query { request_id = ""; deadline_ms; domains; sql } ->
      add_char w 'Q';
      add_u32 w deadline_ms;
      add_u32 w domains;
      add_str w sql
  | Query { request_id; deadline_ms; domains; sql } ->
      add_char w 'q';
      add_str w request_id;
      add_u32 w deadline_ms;
      add_u32 w domains;
      add_str w sql
  | Cancel -> add_char w 'X'
  | Metrics -> add_char w 'M'
  | Trace_get id ->
      add_char w 'G';
      add_str w id
  | Top -> add_char w 'P'
  | Rep_subscribe { epoch; stream_id; from_lsn } ->
      add_char w 'r';
      add_u32 w epoch;
      add_u64 w stream_id;
      add_u64 w (Int64.of_int from_lsn)
  | Rep_ack { epoch; applied_lsn } ->
      add_char w 'a';
      add_u32 w epoch;
      add_u64 w (Int64.of_int applied_lsn)
  | Promote -> add_char w 'U'

let decode_request payload =
  let pos = ref 1 in
  match payload.[0] with
  | 'Q' ->
      let deadline_ms = get_u32 payload pos in
      let domains = get_u32 payload pos in
      let sql = get_str payload pos in
      Query { request_id = ""; deadline_ms; domains; sql }
  | 'q' ->
      let request_id = get_str payload pos in
      let deadline_ms = get_u32 payload pos in
      let domains = get_u32 payload pos in
      let sql = get_str payload pos in
      Query { request_id; deadline_ms; domains; sql }
  | 'X' -> Cancel
  | 'M' -> Metrics
  | 'G' -> Trace_get (get_str payload pos)
  | 'P' -> Top
  | 'r' ->
      let epoch = get_u32 payload pos in
      let stream_id = get_u64 payload pos in
      let from_lsn = Int64.to_int (get_u64 payload pos) in
      Rep_subscribe { epoch; stream_id; from_lsn }
  | 'a' ->
      let epoch = get_u32 payload pos in
      let applied_lsn = Int64.to_int (get_u64 payload pos) in
      Rep_ack { epoch; applied_lsn }
  | 'U' -> Promote
  | c -> raise (Protocol_error (Printf.sprintf "unknown request tag %C" c))

let add_reply w r =
  framed w @@ fun () ->
  match r with
  | Header cols ->
      add_char w 'H';
      add_strs w cols
  | Row { degree_bits; values } ->
      add_char w 'R';
      add_u64 w degree_bits;
      add_strs w values
  | Done { rows; elapsed_s } ->
      add_char w 'D';
      add_u32 w rows;
      add_u64 w (Int64.bits_of_float elapsed_s)
  | Error msg ->
      add_char w 'E';
      add_str w msg
  | Retryable msg ->
      add_char w 'T';
      add_str w msg
  | Overloaded -> add_char w 'O'
  | Rejected { code; diagnostics } ->
      add_char w 'S';
      add_str w code;
      add_str w diagnostics
  | Cancelled reason ->
      add_char w 'C';
      add_str w reason
  | Metrics_json json ->
      add_char w 'J';
      add_str w json
  | Trace_json None -> add_char w 'F';
      add_char w '\x00'
  | Trace_json (Some json) ->
      add_char w 'F';
      add_char w '\x01';
      add_str w json
  | Top_text text ->
      add_char w 'V';
      add_str w text
  | Rep_hello { epoch; stream_id; page_size; snapshot; start_lsn; data_len } ->
      add_char w 'h';
      add_u32 w epoch;
      add_u64 w stream_id;
      add_u32 w page_size;
      add_char w (if snapshot then '\x01' else '\x00');
      add_u64 w (Int64.of_int start_lsn);
      add_u64 w (Int64.of_int data_len)
  | Rep_chunk { kind; off; data } ->
      add_char w 'c';
      add_char w (match kind with Data_chunk -> 'D' | Wal_chunk -> 'W');
      add_u64 w (Int64.of_int off);
      add_str w data
  | Rep_wal { epoch; start_lsn; primary_end; data } ->
      add_char w 'w';
      add_u32 w epoch;
      add_u64 w (Int64.of_int start_lsn);
      add_u64 w (Int64.of_int primary_end);
      add_str w data
  | Rep_fence { epoch } ->
      add_char w 'f';
      add_u32 w epoch
  | Promoted { epoch } ->
      add_char w 'u';
      add_u32 w epoch

let decode_reply payload =
  let pos = ref 1 in
  match payload.[0] with
  | 'H' -> Header (get_strs payload pos)
  | 'R' ->
      let degree_bits = get_u64 payload pos in
      let values = get_strs payload pos in
      Row { degree_bits; values }
  | 'D' ->
      let rows = get_u32 payload pos in
      let elapsed_s = Int64.float_of_bits (get_u64 payload pos) in
      Done { rows; elapsed_s }
  | 'E' -> Error (get_str payload pos)
  | 'T' -> Retryable (get_str payload pos)
  | 'O' -> Overloaded
  | 'S' ->
      let code = get_str payload pos in
      let diagnostics = get_str payload pos in
      Rejected { code; diagnostics }
  | 'C' -> Cancelled (get_str payload pos)
  | 'J' -> Metrics_json (get_str payload pos)
  | 'F' -> (
      if String.length payload < 2 then
        raise (Protocol_error "truncated trace reply");
      match payload.[1] with
      | '\x00' -> Trace_json None
      | '\x01' ->
          pos := 2;
          Trace_json (Some (get_str payload pos))
      | c -> raise (Protocol_error (Printf.sprintf "bad trace presence %C" c)))
  | 'V' -> Top_text (get_str payload pos)
  | 'h' ->
      let epoch = get_u32 payload pos in
      let stream_id = get_u64 payload pos in
      let page_size = get_u32 payload pos in
      if !pos >= String.length payload then
        raise (Protocol_error "truncated rep hello");
      let snapshot =
        match payload.[!pos] with
        | '\x00' -> false
        | '\x01' -> true
        | c -> raise (Protocol_error (Printf.sprintf "bad snapshot flag %C" c))
      in
      incr pos;
      let start_lsn = Int64.to_int (get_u64 payload pos) in
      let data_len = Int64.to_int (get_u64 payload pos) in
      Rep_hello { epoch; stream_id; page_size; snapshot; start_lsn; data_len }
  | 'c' ->
      if String.length payload < 2 then
        raise (Protocol_error "truncated rep chunk");
      let kind =
        match payload.[1] with
        | 'D' -> Data_chunk
        | 'W' -> Wal_chunk
        | c -> raise (Protocol_error (Printf.sprintf "bad chunk kind %C" c))
      in
      pos := 2;
      let off = Int64.to_int (get_u64 payload pos) in
      let data = get_str payload pos in
      Rep_chunk { kind; off; data }
  | 'w' ->
      let epoch = get_u32 payload pos in
      let start_lsn = Int64.to_int (get_u64 payload pos) in
      let primary_end = Int64.to_int (get_u64 payload pos) in
      let data = get_str payload pos in
      Rep_wal { epoch; start_lsn; primary_end; data }
  | 'f' -> Rep_fence { epoch = get_u32 payload pos }
  | 'u' -> Promoted { epoch = get_u32 payload pos }
  | c -> raise (Protocol_error (Printf.sprintf "unknown reply tag %C" c))

let write_request fd r =
  let w = writer () in
  add_request w r;
  flush w fd

let write_reply fd r =
  let w = writer () in
  add_reply w r;
  flush w fd

let read_request r = decode_request (read_frame r)
let read_reply r = decode_reply (read_frame r)

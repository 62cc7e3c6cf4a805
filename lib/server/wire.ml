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
(* Primitive encoders (big-endian) on a Buffer / decoders on a string. *)

let add_u32 buf n =
  if n < 0 then invalid_arg "Wire.add_u32: negative";
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

let add_u64 buf (n : int64) =
  for shift = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical n (8 * shift)) 0xFFL)))
  done

let add_str buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let add_strs buf ss =
  add_u32 buf (List.length ss);
  List.iter (add_str buf) ss

let get_u32 s pos =
  if !pos + 4 > String.length s then raise (Protocol_error "truncated u32");
  let b i = Char.code s.[!pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  pos := !pos + 4;
  v

let get_u64 s pos =
  if !pos + 8 > String.length s then raise (Protocol_error "truncated u64");
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[!pos + i]))
  done;
  pos := !pos + 8;
  !v

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
(* Framing, directly over the file descriptor.

   Both loops restart on EINTR (a signal delivered mid-syscall must not
   kill a session thread), and both map the peer vanishing — EOF or a
   short read mid-frame, EPIPE/ECONNRESET on write — to the single
   [Connection_closed] exception so callers have one case to handle. *)

let rec write_all fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> write_all fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf off len
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Connection_closed

let read_exact fd buf off len =
  let rec go off len =
    if len > 0 then
      match Unix.read fd buf off len with
      | 0 -> raise Connection_closed
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
          raise Connection_closed
  in
  go off len

(* Each message is one write, so Nagle's algorithm has nothing to
   coalesce: it only holds a small reply frame back until the peer's
   delayed ACK (~40 ms). Best effort — a socket that is already dead
   fails on its first read or write instead. *)
let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let write_frame fd payload =
  let n = String.length payload in
  (* One buffer, one write-loop: header and payload never interleave with
     another thread's frame as long as callers serialise per-connection. *)
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b 0 (4 + n)

let read_frame fd =
  let hdr = Bytes.create 4 in
  read_exact fd hdr 0 4;
  let b i = Char.code (Bytes.get hdr i) in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  if n > max_frame then raise (Protocol_error "oversized frame");
  if n = 0 then raise (Protocol_error "empty frame");
  let payload = Bytes.create n in
  read_exact fd payload 0 n;
  Bytes.unsafe_to_string payload

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
let encode_request r =
  let buf = Buffer.create 64 in
  (match r with
  | Query { request_id = ""; deadline_ms; domains; sql } ->
      Buffer.add_char buf 'Q';
      add_u32 buf deadline_ms;
      add_u32 buf domains;
      add_str buf sql
  | Query { request_id; deadline_ms; domains; sql } ->
      Buffer.add_char buf 'q';
      add_str buf request_id;
      add_u32 buf deadline_ms;
      add_u32 buf domains;
      add_str buf sql
  | Cancel -> Buffer.add_char buf 'X'
  | Metrics -> Buffer.add_char buf 'M'
  | Trace_get id ->
      Buffer.add_char buf 'G';
      add_str buf id
  | Top -> Buffer.add_char buf 'P'
  | Rep_subscribe { epoch; stream_id; from_lsn } ->
      Buffer.add_char buf 'r';
      add_u32 buf epoch;
      add_u64 buf stream_id;
      add_u64 buf (Int64.of_int from_lsn)
  | Rep_ack { epoch; applied_lsn } ->
      Buffer.add_char buf 'a';
      add_u32 buf epoch;
      add_u64 buf (Int64.of_int applied_lsn)
  | Promote -> Buffer.add_char buf 'U');
  Buffer.contents buf

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

let encode_reply r =
  let buf = Buffer.create 128 in
  (match r with
  | Header cols ->
      Buffer.add_char buf 'H';
      add_strs buf cols
  | Row { degree_bits; values } ->
      Buffer.add_char buf 'R';
      add_u64 buf degree_bits;
      add_strs buf values
  | Done { rows; elapsed_s } ->
      Buffer.add_char buf 'D';
      add_u32 buf rows;
      add_u64 buf (Int64.bits_of_float elapsed_s)
  | Error msg ->
      Buffer.add_char buf 'E';
      add_str buf msg
  | Retryable msg ->
      Buffer.add_char buf 'T';
      add_str buf msg
  | Overloaded -> Buffer.add_char buf 'O'
  | Rejected { code; diagnostics } ->
      Buffer.add_char buf 'S';
      add_str buf code;
      add_str buf diagnostics
  | Cancelled reason ->
      Buffer.add_char buf 'C';
      add_str buf reason
  | Metrics_json json ->
      Buffer.add_char buf 'J';
      add_str buf json
  | Trace_json None -> Buffer.add_string buf "F\x00"
  | Trace_json (Some json) ->
      Buffer.add_string buf "F\x01";
      add_str buf json
  | Top_text text ->
      Buffer.add_char buf 'V';
      add_str buf text
  | Rep_hello { epoch; stream_id; page_size; snapshot; start_lsn; data_len } ->
      Buffer.add_char buf 'h';
      add_u32 buf epoch;
      add_u64 buf stream_id;
      add_u32 buf page_size;
      Buffer.add_char buf (if snapshot then '\x01' else '\x00');
      add_u64 buf (Int64.of_int start_lsn);
      add_u64 buf (Int64.of_int data_len)
  | Rep_chunk { kind; off; data } ->
      Buffer.add_char buf 'c';
      Buffer.add_char buf (match kind with Data_chunk -> 'D' | Wal_chunk -> 'W');
      add_u64 buf (Int64.of_int off);
      add_str buf data
  | Rep_wal { epoch; start_lsn; primary_end; data } ->
      Buffer.add_char buf 'w';
      add_u32 buf epoch;
      add_u64 buf (Int64.of_int start_lsn);
      add_u64 buf (Int64.of_int primary_end);
      add_str buf data
  | Rep_fence { epoch } ->
      Buffer.add_char buf 'f';
      add_u32 buf epoch
  | Promoted { epoch } ->
      Buffer.add_char buf 'u';
      add_u32 buf epoch);
  Buffer.contents buf

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

let write_request fd r = write_frame fd (encode_request r)
let write_reply fd r = write_frame fd (encode_reply r)
let read_request fd = decode_request (read_frame fd)
let read_reply fd = decode_reply (read_frame fd)

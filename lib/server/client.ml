type t = {
  fd : Unix.file_descr;
  reader : Wire.reader;  (** every reply is read through it *)
  wlock : Mutex.t;  (** [cancel] may write while [query] reads *)
  rng : Random.State.t;  (** request IDs + jitter for the opt-in retry *)
  mutable last_request_id : string;
  mutable closed : bool;
}

type row = { values : string list; degree : float }

type reply =
  | Answer of { columns : string list; rows : row list; server_elapsed_s : float }
  | Failed of string
  | Retryable of string
  | Overloaded
  | Rejected of { code : string; diagnostics : string }
  | Cancelled of string

exception Connect_timeout

let () =
  Printexc.register_printer (function
    | Connect_timeout -> Some "Client.Connect_timeout"
    | _ -> None)

(* Deadline-bounded connect: flip the socket non-blocking, start the
   connect, wait for writability with [select], then read the pending
   error with [SO_ERROR] — a refused connection reports ECONNREFUSED
   here, not on a later write. The socket goes back to blocking mode
   before use. *)
let connect_deadline fd addr timeout_ms =
  Unix.set_nonblock fd;
  let finish_by_select () =
    let deadline = Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.) in
    let rec wait () =
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then raise Connect_timeout;
      match Unix.select [] [ fd ] [] remaining with
      | [], [], [] -> raise Connect_timeout
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | _ -> (
          match Unix.getsockopt_error fd with
          | None -> ()
          | Some err -> raise (Unix.Unix_error (err, "connect", "")))
    in
    wait ()
  in
  (match Unix.connect fd addr with
  | () -> ()
  | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> finish_by_select ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> finish_by_select ());
  Unix.clear_nonblock fd

let connect ?(host = "127.0.0.1") ?timeout_ms ~port () =
  (* A server that vanishes mid-write must surface as
     [Wire.Connection_closed], not kill the client process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     let addr = Unix.ADDR_INET (Listener.resolve host, port) in
     match timeout_ms with
     | Some ms when ms > 0 -> connect_deadline fd addr ms
     | _ -> Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Wire.set_nodelay fd;
  {
    fd;
    reader = Wire.reader fd;
    wlock = Mutex.create ();
    rng = Random.State.make_self_init ();
    last_request_id = "";
    closed = false;
  }

let of_addr ?timeout_ms addr =
  match String.rindex_opt addr ':' with
  | None -> invalid_arg ("Client.of_addr: expected HOST:PORT, got " ^ addr)
  | Some i -> (
      let host = String.sub addr 0 i in
      let port_s = String.sub addr (i + 1) (String.length addr - i - 1) in
      match int_of_string_opt port_s with
      | Some port when port > 0 && port < 65536 ->
          connect
            ~host:(if host = "" then "127.0.0.1" else host)
            ?timeout_ms ~port ()
      | _ -> invalid_arg ("Client.of_addr: bad port in " ^ addr))

let send t req =
  Mutex.lock t.wlock;
  (match Wire.write_request t.fd req with
  | () -> Mutex.unlock t.wlock
  | exception e ->
      Mutex.unlock t.wlock;
      raise e)

let query_once ?(deadline_ms = 0) t sql =
  (* Fresh ID per attempt: each server-side span tree (and query-log
     record) then corresponds to exactly one wire-level attempt, so a
     retried query never aliases its failed predecessor in the trace
     ring. *)
  let request_id = Telemetry.gen_request_id t.rng in
  t.last_request_id <- request_id;
  send t (Wire.Query { request_id; deadline_ms; domains = 0; sql });
  let columns = ref [] in
  let rows = ref [] in
  let rec read () =
    match Wire.read_reply t.reader with
    | Wire.Header cols ->
        columns := cols;
        read ()
    | Wire.Row { degree_bits; values } ->
        rows := { values; degree = Int64.float_of_bits degree_bits } :: !rows;
        read ()
    | Wire.Done { rows = _; elapsed_s } ->
        Answer
          {
            columns = !columns;
            rows = List.rev !rows;
            server_elapsed_s = elapsed_s;
          }
    | Wire.Error m -> Failed m
    | Wire.Retryable m -> Retryable m
    | Wire.Overloaded -> Overloaded
    | Wire.Rejected { code; diagnostics } -> Rejected { code; diagnostics }
    | Wire.Cancelled reason -> Cancelled reason
    | Wire.Metrics_json _ | Wire.Trace_json _ | Wire.Top_text _
    | Wire.Rep_hello _ | Wire.Rep_chunk _ | Wire.Rep_wal _ | Wire.Rep_fence _
    | Wire.Promoted _ ->
        raise (Wire.Protocol_error "unexpected admin frame in query reply")
  in
  read ()

let last_request_id t = t.last_request_id

let query ?deadline_ms ?retry t sql =
  match retry with
  | None -> query_once ?deadline_ms t sql
  | Some policy ->
      (* Queries are read-only, so resending after [Overloaded] or
         [Retryable] is always safe; back off between attempts so a
         struggling server gets air. *)
      let rec go attempt =
        match query_once ?deadline_ms t sql with
        | (Overloaded | Retryable _) as r ->
            if attempt >= policy.Retry.max_attempts then r
            else begin
              ignore (Retry.sleep (Retry.delay_for policy ~rng:t.rng ~attempt));
              go (attempt + 1)
            end
        | r -> r
      in
      go 1

let cancel t = send t Wire.Cancel

let metrics_json t =
  send t Wire.Metrics;
  match Wire.read_reply t.reader with
  | Wire.Metrics_json json -> json
  | _ -> raise (Wire.Protocol_error "expected a metrics frame")

let trace_json t id =
  send t (Wire.Trace_get id);
  match Wire.read_reply t.reader with
  | Wire.Trace_json r -> r
  | _ -> raise (Wire.Protocol_error "expected a trace frame")

let top_text t =
  send t Wire.Top;
  match Wire.read_reply t.reader with
  | Wire.Top_text s -> s
  | _ -> raise (Wire.Protocol_error "expected a top frame")

let promote t =
  send t Wire.Promote;
  match Wire.read_reply t.reader with
  | Wire.Promoted { epoch } -> Ok epoch
  | Wire.Error m -> Error m
  | _ -> raise (Wire.Protocol_error "expected a promoted frame")

let recv t = Wire.read_reply t.reader
let fd t = t.fd

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

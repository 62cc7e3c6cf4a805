(** A thin blocking client for {!Daemon} — used by [fsql --connect], the
    load and chaos benches, and the server tests.

    One query may be in flight per connection. {!query} blocks until the
    terminal frame; {!cancel} only writes and may be called from another
    thread while a {!query} is blocked on the same connection (writes are
    serialised by a mutex; the cancelled query still receives its
    terminal [Cancelled] frame through the blocked {!query}). *)

type t

type row = { values : string list; degree : float }
(** One answer tuple: printed attribute values and the membership degree,
    bit-identical to the degree the server computed (it travels as
    IEEE-754 bits). *)

type reply =
  | Answer of { columns : string list; rows : row list; server_elapsed_s : float }
  | Failed of string  (** parse / semantic / fatal execution error *)
  | Retryable of string
      (** transient server-side fault; resubmitting may succeed *)
  | Overloaded  (** admission queue full or circuit breaker open *)
  | Rejected of { code : string; diagnostics : string }
      (** the admission-time static analyzer found errors; never retried
          (resubmitting the same text cannot succeed). [code] is the
          primary [FSQL0xx] code, [diagnostics] the rendered report *)
  | Cancelled of string  (** deadline exceeded or explicit cancel *)

exception Connect_timeout
(** {!connect}'s [?timeout_ms] deadline passed without the connection
    completing. *)

val connect : ?host:string -> ?timeout_ms:int -> port:int -> unit -> t
(** Default host ["127.0.0.1"]. Raises [Unix.Unix_error] on failure.
    With [?timeout_ms > 0] the connect is non-blocking and bounded:
    an unreachable or blackholed host raises {!Connect_timeout} after
    the deadline instead of hanging for the kernel's SYN-retry budget
    (minutes). Ignores SIGPIPE process-wide so a vanished server
    surfaces as {!Wire.Connection_closed} instead of killing the
    process. The socket has [TCP_NODELAY] set ({!Wire.set_nodelay}). *)

val of_addr : ?timeout_ms:int -> string -> t
(** ["HOST:PORT"]. [Invalid_argument] on a malformed address. *)

val query :
  ?deadline_ms:int -> ?retry:Retry.policy -> t -> string -> reply
(** Send one statement and block for the full reply. [deadline_ms = 0]
    (default) defers to the server's default deadline, if any. With [?retry], a terminal [Overloaded] or [Retryable]
    reply is retried with exponential backoff + jitter, up to
    [max_attempts] total attempts — safe because queries are read-only;
    the last reply is returned if every attempt is shed. Raises
    {!Wire.Connection_closed} if the server goes away mid-reply,
    {!Wire.Protocol_error} on a malformed stream. *)

val last_request_id : t -> string
(** The request ID sent with the most recent {!query} attempt on this
    connection ([""] before the first). Every attempt gets a fresh ID, so
    after a retried query this is the ID of the attempt whose reply was
    returned — print it next to errors and feed it to {!trace_json}. *)

val cancel : t -> unit
(** Ask the server to cancel this connection's in-flight query. No-op
    (server-side) when none is running. *)

val metrics_json : t -> string
(** Fetch the server's metrics registry as JSON. Do not call concurrently
    with {!query} on the same connection. *)

val trace_json : t -> string -> string option
(** Fetch the Chrome trace of one completed request by its request ID;
    [None] once it has left the server's bounded ring. Same concurrency
    rule as {!metrics_json}. *)

val top_text : t -> string
(** Fetch the server-rendered [\top] snapshot (windowed qps/p50/p99/max,
    gauges, lifetime counters). Same concurrency rule as
    {!metrics_json}. *)

val promote : t -> (int, string) result
(** Ask a replica daemon to promote itself to primary; returns the new
    replication epoch. [Error _] when the peer is not a replica. Same
    concurrency rule as {!metrics_json}. *)

val send : t -> Wire.request -> unit
(** Write one request frame (serialised with {!cancel}). With {!recv},
    how the replication applier drives its subscribe stream over a
    client connection. *)

val recv : t -> Wire.reply
(** Read the next reply frame through the connection's buffered reader.
    Do not call concurrently with {!query} on the same connection. *)

val fd : t -> Unix.file_descr
(** The underlying socket, for [Unix.shutdown] only (to unblock a
    thread parked in {!recv}); reads and writes go through {!send} and
    {!recv}, since the reader may already hold the next frame's
    bytes. *)

val close : t -> unit
(** Close the socket; idempotent. *)

(** The one TCP listener behind every server in the project: the fsqld
    query port ({!Daemon}), the replication-only port
    ({!Replication.Sender.listen}) and the metrics port
    ({!Telemetry.Http}).

    It binds with [SO_REUSEADDR], accepts on one thread and serves each
    connection on a thread of its own, so an idle or slow client never
    holds up another. Accepted sockets get [TCP_NODELAY]
    ({!Wire.set_nodelay}). Transient [accept(2)] failures are retried
    and reported, never fatal: a signal (EINTR), a connection that died
    in the backlog (ECONNABORTED), a spurious wake-up (EAGAIN) and fd
    exhaustion (EMFILE, ENFILE; retried after 50 ms, so the loop does
    not spin while it lasts). Any other failure ends the accept thread.

    Stopping has two halves. {!stop_accepting} closes the listening
    socket; connections already accepted keep running. {!close_connections}
    shuts every live connection down (its handler's next read or write
    fails) and joins its thread, which closes the descriptor on the way
    out. The daemon drains its admitted queries between the two. *)

type t

val resolve : string -> Unix.inet_addr
(** A dotted address or a host name. [Invalid_argument] on an unknown
    host. Clients resolve through it too. *)

val bind : ?host:string -> port:int -> unit -> t
(** Bind [host] (default ["127.0.0.1"]) at [port] and listen; [port = 0]
    picks an ephemeral port ({!port} reads it back). Nothing is accepted
    until {!serve}. *)

val serve : ?on_retry:(unit -> unit) -> t -> (Unix.file_descr -> unit) -> unit
(** Start the accept thread. Each connection runs [handler fd] on its
    own thread; the listener closes [fd] after [handler] returns or
    raises. [on_retry] is called once per retried [accept(2)] failure. *)

val port : t -> int

val connections : t -> int
(** Connections accepted and not yet closed. *)

val stop_accepting : t -> unit
(** Join the accept thread and close the listening socket. Idempotent. *)

val close_connections : t -> unit
(** Shut down every live connection and join their threads. Call after
    {!stop_accepting}. *)

val stop : t -> unit
(** {!stop_accepting}, then {!close_connections}. Idempotent. *)

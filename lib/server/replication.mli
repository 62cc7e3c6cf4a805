(** WAL-shipped replication: primary-side log streaming ({!Sender}) and
    the replica-side applier ({!Replica}), with epoch-fenced failover.

    The replica's log file is kept a {e byte-prefix} of a committed
    prefix of the primary's: the sender ships raw frames read through
    its own fd, the applier appends them verbatim and makes them durable
    only through [Commit]/[Checkpoint] boundaries. LSNs therefore
    coincide on both sides and every shipped frame re-validates locally
    (CRC-32 + offset stamp), so the committed prefix is bit-identical by
    construction — the property the failover chaos bench asserts.

    Fencing: a monotone replication epoch lives in the WAL manifest
    ([Epoch] records, echoed by every checkpoint). Promotion bumps it.
    A sender refuses a subscriber presenting a {e newer} epoch
    ([Rep_fence] — the sender is the zombie); an applier rejects any
    hello or log batch carrying an {e older} one. A deposed primary can
    therefore never feed bytes past a promotion, even where its log
    bytes would parse at identical offsets.

    Waiting: nothing here polls with sleeps. An idle tail blocks until
    the primary's log signals a commit or rotation
    ({!Storage.Wal.shipped}); {!Sender.wait_applied} until an ack
    arrives; {!Replica.wait_synced} until a batch is applied. Heartbeats
    and deadlines come from one ticker thread per {!Sender} and
    {!Replica} that wakes its waiters every [heartbeat_s] (0.2 s), so a
    deadline is honoured to within one tick. *)

(** A writer-preference readers/writer lock. Replica query workers hold
    the read side while the applier (and promotion) takes the write
    side; writer preference keeps a steady query load from starving the
    apply loop. *)
module Rw : sig
  type t

  val create : unit -> t
  val with_read : t -> (unit -> 'a) -> 'a
  val with_write : t -> (unit -> 'a) -> 'a
end

(** Primary side: stream the log to subscribers, track their applied
    LSNs. *)
module Sender : sig
  type t

  val create : env:Storage.Env.t -> t
  (** Serve a live writable environment's log. If the log has never
      carried an epoch (epoch 0), logs and commits epoch 1 first, so a
      first promotion lands on 2 and "epoch 0" always means
      "replication never enabled". Raises [Invalid_argument] on a
      non-durable environment. *)

  val create_for_dir : dir:string -> t
  (** Serve a quiescent data directory (no live writer) — the fencing
      drill runs a deposed primary's sender this way. The log must be
      clean at its last committed boundary. *)

  val serve :
    t ->
    epoch:int ->
    stream_id:int64 ->
    from_lsn:int ->
    send:(Wire.reply -> unit) ->
    int option
  (** Handle one [Rep_subscribe]: either fence the subscriber (its
      epoch is newer; returns [None] after sending [Rep_fence]) or
      start a streaming thread and return its subscriber id. [send]
      must be safe to call from that thread (serialise per connection)
      and must raise when the peer is gone — that ends the stream. If
      [stream_id]/[from_lsn] match the current log generation the
      stream resumes with a tail; otherwise a full snapshot (data file
      first, then the log prefix) precedes it. *)

  val ack : t -> id:int -> applied_lsn:int -> unit
  (** Record a subscriber's [Rep_ack]. *)

  val drop : t -> id:int -> unit
  (** Forget a subscriber whose connection closed. *)

  val epoch : t -> int

  val stream_id : t -> int64
  (** Identity of the current log file generation (device/inode derived);
      changes exactly when a checkpoint rotates the log. *)

  val shippable_end : t -> int
  (** The latest commit boundary whose bytes are visible in the log
      file ({!Storage.Wal.shippable_end}) — what tails stream up to. *)

  val connected : t -> int
  (** Live subscriber count. *)

  val lag_bytes : t -> int
  (** Worst-case replica lag: shippable end minus the minimum acked LSN
      over live subscribers; 0 with none connected. *)

  val fenced : t -> int
  (** Subscribe attempts refused for presenting a newer epoch — each is
      proof this sender is a deposed zombie. *)

  val snapshots_sent : t -> int

  val wait_applied : t -> lsn:int -> timeout_s:float -> bool
  (** Semi-synchronous commit: block until some subscriber has acked
      (applied + fsynced) through [lsn] — woken by the ack itself — or
      the timeout passes, or the sender stops. [false] on timeout,
      returned at most one ticker period (0.2 s) after [timeout_s]. *)

  type peer
  (** One connection's replication requests: the subscriber it started,
      if any, and how to write to it. *)

  val peer : send:(Wire.reply -> unit) -> peer
  (** [send] as for {!serve}. *)

  val handle : t -> peer -> Wire.request -> unit
  (** Dispatch one request read from the peer's connection:
      [Rep_subscribe] goes to {!serve}, [Rep_ack] to {!ack} for the
      peer's subscriber; every other request is ignored. *)

  val disconnect : t -> peer -> unit
  (** The peer's connection closed: {!drop} its subscriber. *)

  val listen : ?host:string -> port:int -> t -> int
  (** Serve replication only (subscribe/ack frames) on a {!Listener} at
      [host] (default ["127.0.0.1"]) — for primaries that are not full
      daemons, like the chaos harness's victim process. [port = 0] binds
      an ephemeral port; the bound port is returned. *)

  val stop : t -> unit
  (** Stop the listener, the ticker and all streaming threads; joins
      them. Releases every blocked {!wait_applied}. *)
end

(** Replica side: catch up (snapshot or local recovery), tail the log,
    apply page effects, ack progress; serve read-only queries under
    {!Rw}; promote on demand. *)
module Replica : sig
  type t

  val create : dir:string -> primary:string -> unit -> t
  (** [primary] is ["HOST:PORT"]. Nothing touches the network until
      {!start}. [Invalid_argument] on a malformed address. *)

  val start : t -> unit
  (** Start the applier thread: recover the local directory (without
      checkpointing, preserving the byte-prefix), subscribe, apply,
      ack; reconnect with bounded backoff forever until {!stop} or
      {!promote}. *)

  val wait_synced : ?timeout_s:float -> t -> bool
  (** Block until the first catch-up completes (local state reflects
      some committed prefix of the primary): woken by the applied batch
      or snapshot. [false] once [timeout_s] (default 30) has passed —
      noticed within one ticker period — or after {!stop}. *)

  val with_read : t -> (unit -> 'a) -> 'a
  (** Run [f] under the read side of the replica's lock: the applier
      will not swap files or write pages while it runs. *)

  val dir : t -> string

  val generation : t -> int
  (** Bumped after every applied batch, snapshot swap, and promotion —
      workers rebuild their read-only environments when it moves. *)

  val applied_lsn : t -> int
  val epoch : t -> int
  val connected : t -> bool
  val promoted : t -> bool

  val lag_bytes : t -> int
  (** Primary's last advertised end minus the applied LSN. *)

  val stale_ms : t -> float
  (** Milliseconds since the replica last observed itself caught up
      (heartbeats refresh this every ~200 ms while connected and idle:
      one per ticker period);
      [infinity] before the first catch-up, [0.0] after promotion. The
      daemon's max-staleness admission check compares against this. *)

  val fenced_rejects : t -> int
  (** Hellos/batches rejected for carrying an older epoch — evidence a
      stale primary tried to feed this (possibly promoted) replica. *)

  val snapshots : t -> int
  (** Full snapshot resyncs performed. *)

  val promote : t -> int
  (** Stop the applier, recover + checkpoint the local directory
      (truncating any torn tail), bump and commit the epoch; returns
      the new epoch. Idempotent. After this, the old primary is fenced:
      its frames carry a stale epoch and are rejected everywhere. The
      caller swaps in a {!Sender.create_for_dir} (or reopens writable)
      to serve as primary. *)

  val stop : t -> unit
  (** Stop the applier and ticker threads and close local handles;
      releases a blocked {!wait_synced}. *)
end

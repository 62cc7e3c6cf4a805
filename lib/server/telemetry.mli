(** Production telemetry for the serving path.

    Five independent pieces, all wired through {!Daemon} and exposed by
    [fsqld]/[fsql]:

    - {b request IDs} ({!gen_request_id}) correlate a client's query with
      its server-side span tree across the wire;
    - {b trace ring} ({!Ring}): the Chrome traces of the last N completed
      requests, keyed by request ID, fetchable over the wire
      ([Wire.Trace_get] / [fsql \trace ID]);
    - {b query log} ({!Query_log}): one JSONL record per finished request
      — id, normalized SQL shape, queue wait, exec time, I/O and
      fuzzy-op counts, retries, outcome — with size rotation and a
      slow-query threshold;
    - {b Prometheus exposition} ({!render_prometheus}) over the metrics
      registry, served by the {!Http} endpoint on [fsqld --metrics-port]
      ([/metrics] and [/healthz]);
    - {b top rendering} ({!render_top}): the server-side plain-text
      snapshot behind [fsql \top].

    Everything here is engine-agnostic plumbing: it depends only on
    {!Storage.Metrics} and Unix, so later serving tiers (scatter-gather,
    result caches) can report through the same spine. *)

val gen_request_id : Random.State.t -> string
(** 16 lowercase hex chars (64 random bits) from the caller's RNG — the
    client generates IDs so a query is attributable before the server
    ever sees it. *)

val normalize_sql : string -> string
(** The statement's {e shape}: string and numeric literals replaced by
    [?], whitespace collapsed. Groups structurally identical queries in
    the log without recording user data. Rebuilt from the real
    {!Fuzzysql.Lexer} token stream so it tracks the grammar exactly;
    statements the lexer refuses (which the log still records, as
    admission rejections) fall back to a character-level scrub with the
    same [?] guarantees. *)

(** Bounded ring of recent request traces, keyed by request ID.
    Thread-safe; memory is bounded by [capacity] (old traces are
    overwritten in completion order). *)
module Ring : sig
  type t

  val create : int -> t
  (** [capacity] must be positive. *)

  val capacity : t -> int

  val add : t -> id:string -> json:string -> unit

  val find : t -> string -> string option
  (** Most-recent-first, so a reused ID resolves to its latest trace. *)

  val ids : t -> string list
  (** Live IDs, oldest first. *)

  val length : t -> int
  (** Live entries (≤ capacity). *)

  val stored : t -> int
  (** Lifetime inserts — for the books-balance check in tests. *)
end

(** Rotating JSONL query log. Writes are serialised internally; when the
    file exceeds [max_bytes] it is renamed to [path ^ ".1"] (replacing a
    previous rotation) and a fresh file is started. *)
module Query_log : sig
  type record = {
    ts : float;  (** completion time, [Unix.gettimeofday] *)
    request_id : string;
    shape : string;  (** {!normalize_sql} of the statement *)
    queue_wait_s : float;
    exec_s : float;
    page_reads : int;
    page_writes : int;
    comparisons : int;
    fuzzy_ops : int;
    rows : int;
    retries : int;  (** server-side attempts beyond the first *)
    outcome : string;
        (** ["ok"], ["error"], ["cancelled_deadline"],
            ["cancelled_client"], ["failed_transient"], ... *)
  }

  type t

  val create : ?max_bytes:int -> ?slow_ms:float -> string -> t
  (** Opens (appending) the file at the given path. [slow_ms] drops
      records whose [exec_s] is below the threshold; the default [0.]
      logs every request. Default [max_bytes] is 64 MB. *)

  val log : t -> record -> unit
  (** Flushes per record, so a crashed server's log is complete up to
      the last finished request. *)

  val written : t -> int
  (** Records actually written (post-[slow_ms] filter). *)

  val reopen : t -> unit
  (** Close and reopen the file at the configured path — the SIGHUP
      handshake with logrotate: after an external rename, this starts a
      fresh file; records logged concurrently are never lost (the swap
      happens under the log's lock). Size-based self-rotation also
      fsyncs the outgoing file before renaming it to [.1], so a crash
      right after rotation cannot lose acknowledged records. *)

  val close : t -> unit
end

val render_prometheus : Storage.Metrics.t -> now:float -> string
(** Prometheus text format 0.0.4: counters and gauges verbatim,
    histograms and window snapshots as quantile-labelled summaries (the
    log2-bucket layout is ours, so computed quantiles are exported, not
    raw buckets). Names are prefixed [fsqld_] and sanitised. Empty
    quantiles render as [NaN], which Prometheus accepts. *)

val render_top : Storage.Metrics.t -> now:float -> string
(** The plain-text snapshot behind [fsql \top]: gauges, windowed
    count/rate/p50/p99/max per window histogram, lifetime counters.
    Rendered server-side so clients need no JSON parser. *)

(** Minimal HTTP/1.0 endpoint for the metrics port, over a {!Listener}:
    one request per connection, each connection on its own thread (an
    idle client holds up no scrape), loopback only, GET only — it serves
    a scraper on a trusted port, not the internet. *)
module Http : sig
  type t

  val start : port:int -> (string -> (int * string * string) option) -> t
  (** [start ~port handler] binds loopback:[port] ([0] picks an
      ephemeral port — read it back with {!port}) and serves each GET by
      calling [handler path], which returns
      [Some (status, content_type, body)] or [None] for 404. The handler
      runs on the connection's thread. *)

  val port : t -> int
  val stop : t -> unit

  val get : port:int -> string -> int * string
  (** One-shot GET against loopback:[port]: [(status, body)]. For tests
      and tooling. *)
end

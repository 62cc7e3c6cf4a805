(** A metrics registry: named counters, gauges, log-scale histograms, and
    sliding-window histograms that aggregate across queries — the bench
    harness records one observation per measured cell, fsql one per
    statement, the daemon one per request — with a human-readable summary
    ({!pp}) and a JSON dump ({!to_json}).

    Registration is idempotent: {!counter}/{!gauge}/{!histogram}/
    {!window_histogram} return the existing instrument when the name is
    already registered, so call sites don't need to coordinate. Instruments
    are cheap mutable records; a registry is single-threaded like the rest
    of the stats layer (parallel jobs record into {!Iostats}/{!Trace} and
    the coordinator observes the merged totals; the daemon serialises its
    registry behind one mutex). *)

type t
type counter
type gauge
type histogram
type window_histogram

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-register a counter. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val counter_name : counter -> string

val gauge : t -> string -> gauge
(** Find-or-register a gauge: a point-in-time float (queue depth, busy
    workers, breaker state) set by the owner at observation or scrape
    time, not accumulated. *)

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_name : gauge -> string

val histogram : t -> string -> histogram
(** Find-or-register a histogram. Observations are bucketed on a log2 scale
    from 1e-6 (64 buckets), so one histogram type serves durations in
    seconds, I/O counts, and cardinalities alike. *)

val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_mean : histogram -> float
val hist_min : histogram -> float
val hist_max : histogram -> float
val hist_name : histogram -> string

val hist_quantile : histogram -> float -> float
(** Upper bound of the quantile's bucket — exact to within the 2x bucket
    width, clamped to the observed max. Edge cases: an {e empty} histogram
    has no quantiles and returns [nan] (never a bucket bound — that would
    invent an observation); a {e single-observation} histogram returns that
    observation exactly for every [q], because the bucket bound is clamped
    to the observed max. *)

(** {1 Sliding-window histograms}

    A ring of log2-bucket snapshots — [slots] slots of [window_s] seconds
    each (default 12 x 5 s = the last minute) — so quantiles are reportable
    "over the last minute" as well as lifetime. Observation and expiry are
    O(1): the slot for [now] is selected by epoch arithmetic and lazily
    zeroed on reuse; readers skip slots that have fallen out of the window.
    Every operation takes [~now] explicitly so tests can drive the clock. *)

val window_histogram :
  t -> ?window_s:float -> ?slots:int -> string -> window_histogram
(** Find-or-register (the window geometry of the first registration
    wins). *)

val observe_window : window_histogram -> now:float -> float -> unit
val window_name : window_histogram -> string

val window_span_s : window_histogram -> float
(** [window_s * slots] — the horizon the reading functions cover. *)

val window_count : window_histogram -> now:float -> int
val window_sum : window_histogram -> now:float -> float

val window_max : window_histogram -> now:float -> float
(** [nan] when no observation is live in the window. *)

val window_quantile : window_histogram -> now:float -> float -> float
(** Same contract as {!hist_quantile}, over the live window only: [nan]
    when the window is empty, the exact observation when it holds one. *)

val window_rate : window_histogram -> now:float -> float
(** Observations per second over the window actually covered so far (the
    full span once the ring has wrapped, less for a fresh registry — so a
    young server's qps is not understated). *)

(** {1 Registry} *)

val reset : t -> unit
(** Zero every registered instrument (instruments stay registered). *)

val counters : t -> counter list
(** Registration order — for exporters ({!Server.Telemetry} renders the
    Prometheus text format from these). *)

val histograms : t -> histogram list
val gauges : t -> gauge list
val window_histograms : t -> window_histogram list

val pp : Format.formatter -> t -> unit

val json_escape : string -> string
(** The body of a JSON string literal for [s]: quote, backslash and
    newline escaped, other control characters as [\uXXXX]. Every JSON
    writer in the project uses it. *)

val to_json : ?now:float -> t -> string
(** Counters, gauges, histograms, and window snapshots evaluated at [now]
    (default: the current time). Quantiles of empty (window) histograms are
    [nan] in OCaml and [null] in the JSON. *)

(** Seeded, deterministic fault injection for the simulated storage stack.

    A fault plane is attached to a {!Sim_disk.t} (usually via
    {!Env.set_fault}) and consulted on every disk read, write and page
    allocation. Each rule in a {!spec} matches one operation kind and
    fires according to its trigger: a per-operation probability drawn
    from a seeded PRNG, the nth operation at that site, or every nth
    operation. Because decisions depend only on the seed and the
    sequence of storage operations, a fault schedule replays exactly:
    same seed + same spec + same operation sequence = same faults. This
    is what lets the chaos harness assert that retried queries return
    answers bit-identical to a fault-free run.

    Injected faults carry a severity: [Transient] faults model
    recoverable conditions (flaky I/O) that the serving layer may retry;
    [Fatal] faults model conditions after which the worker's environment
    is suspect and must be rebuilt. Genuine programming errors keep
    their own typed exceptions ({!Sim_disk.Bad_page}, ...) and are never
    injected. *)

type severity = Transient | Fatal

type kind =
  | Read_fault  (** read fails; no data returned *)
  | Write_fault  (** write fails before any byte reaches the page *)
  | Torn_write  (** half the buffer reaches the page, then the write fails *)
  | Alloc_fault  (** page allocation fails; disk state unchanged *)
  | Latency  (** the operation sleeps [delay_s], then proceeds normally *)

type trigger =
  | Probability of float  (** fire with probability [p] per operation *)
  | Nth of int  (** fire exactly on the nth operation (1-based), once *)
  | Every of int  (** fire on every nth operation *)

type rule = {
  kind : kind;
  trigger : trigger;
  severity : severity;  (** ignored for [Latency] *)
  delay_s : float;  (** sleep duration; [Latency] rules only *)
}

type spec = rule list

type t

exception Injected of { kind : kind; severity : severity; page : int option }
(** Raised at an instrumented site when a non-latency rule fires.
    [page] is the disk page involved, when the site has one. *)

val create : ?seed:int -> spec -> t
(** Fresh plane with all call counters at zero. Default seed 0. *)

val seed : t -> int
val spec : t -> spec

(** {2 Instrumented sites}

    Called by [Sim_disk]; a [None] plane is a no-op (the fault-free fast
    path). These either return normally, sleep (latency rules), or raise
    {!Injected}. *)

val on_read : t option -> page:int -> unit

val on_write : t option -> page:int -> (unit -> unit) -> unit
(** [on_write fo ~page tear] — when a [Torn_write] rule fires, [tear]
    is invoked to blit the torn prefix into the page before the
    exception is raised. *)

val on_alloc : t option -> unit

(** {2 Introspection} *)

val injected : t -> int
(** Total faults raised so far (latency events excluded). *)

val latency_events : t -> int

val counters : t -> (string * int) list
(** Per-kind injection counts, e.g. [("fault_read", 3); ...]. *)

(** {2 Spec syntax}

    Clauses separated by [';'], each
    [kind:trigger\[:severity\]\[:ms=N\]]:
    - kind: [read] | [write] | [torn] | [alloc] | [latency]
    - trigger: [p=F] (probability) | [nth=N] | [every=N]
    - severity: [transient] (default) | [fatal]
    - [ms=N]: latency spike in milliseconds (latency clauses; default 1)

    Example: ["read:p=0.05;write:nth=100:fatal;latency:p=0.02:ms=5"]. *)

val parse_spec : string -> (spec, string) result
val spec_to_string : spec -> string
val kind_name : kind -> string
val severity_name : severity -> string

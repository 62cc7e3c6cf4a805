(** I/O and CPU accounting for the simulated storage engine.

    The paper's experiments (Section 9) report response time, CPU time, the
    percentage of time spent sorting, and the number of I/Os. On modern
    hardware with an in-memory simulated disk the actual wall-clock is CPU
    only, so response time is modelled as
    [cpu_seconds + (page_reads + page_writes) * io_latency] — the same events
    a 1995 disk serialized, charged at a configurable per-page latency. *)

type phase = Sort | Merge | Join | Other

type t

val create : unit -> t
val reset : t -> unit

val record_read : t -> unit
val record_write : t -> unit
val record_fuzzy_op : t -> unit
(** One satisfaction-degree computation ("call to the fuzzy library
    functions" in the paper's Fig. 3 discussion). *)

val record_comparison : t -> unit
(** One tuple comparison during sort/merge/join. *)

val record_fuzzy_ops : t -> int -> unit
val record_comparisons : t -> int -> unit
(** Bulk variants used by the merge-join sweep: one call charges a whole
    window pass, so the counters equal a per-pair count without a field
    increment inside the hot loop. *)

val page_reads : t -> int
val page_writes : t -> int
val total_ios : t -> int
val fuzzy_ops : t -> int
val comparisons : t -> int

val timed : t -> phase -> (unit -> 'a) -> 'a
(** Accumulates wall-clock of [f] into the phase's CPU bucket. Nested calls
    attribute time to the innermost phase only. *)

val cpu_seconds : t -> float
(** Total across phases. *)

val phase_seconds : t -> phase -> float

val phase_ios : t -> phase -> int
(** Page transfers recorded while the given phase was innermost-active
    (transfers outside any [timed] call count as [Other]). *)

val response_time : t -> io_latency:float -> float
(** [cpu_seconds + total_ios * io_latency]. *)

val pp : Format.formatter -> t -> unit

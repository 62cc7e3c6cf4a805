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

val set_phase : t -> phase option -> unit
(** Tag the record so subsequent page transfers are charged to the given
    phase's I/O bucket {e without} starting a timer. This is how a
    {!Task_pool} job's private record attributes its I/O correctly: the
    parallel sort sets [Some Sort] on each worker's record (and on the
    sorter's scratch environments), the parallel sweep sets [Some Merge],
    so after {!add_into} the shared record's per-phase I/O counts match the
    sequential engine's instead of landing in [Other]. Do not use on a
    record that is inside a {!timed} call — [timed] restores its own phase
    on exit. *)

val cpu_seconds : t -> float
(** Total across phases. *)

val phase_seconds : t -> phase -> float

val phase_ios : t -> phase -> int
(** Page transfers recorded while the given phase was innermost-active
    (transfers outside any [timed] call count as [Other]). *)

val response_time : t -> io_latency:float -> float
(** [cpu_seconds + total_ios * io_latency]. *)

val add_into : t -> t -> unit
(** [add_into acc t] accumulates [t]'s counters and timers into [acc].

    A record is single-threaded: concurrent [record_*] calls on one [t]
    race. The parallel operators therefore give every {!Task_pool} job a
    private record and merge it into the shared one with this function
    after the batch joins — counter totals stay exact, and since jobs never
    run inside [timed], the shared record's phase timers remain the
    coordinator's wall clock. Each job's private record is phase-tagged
    with {!set_phase} so worker page transfers are charged to the phase
    that caused them (parallel sort I/O counts as [Sort], parallel sweep
    I/O as [Merge]) rather than all landing in [Other]. *)

val pp : Format.formatter -> t -> unit

(** A fixed-size pool of OCaml 5 domains, the daemon's query workers.

    The pool owns [domains - 1] worker domains; the submitting (coordinator)
    domain participates in every batch, so a pool of size 1 spawns no domains
    at all and degenerates to plain sequential execution. Batches are
    scatter/gather: {!run_list} blocks until every job has finished, then
    returns the results in submission order, re-raising the first exception
    (if any) on the coordinator.

    Sharing discipline: the buffer pool, simulated disk, {!Iostats} record
    and {!Trace} collector are single-threaded, so a job must use only
    structures it owns (the daemon gives each worker its own environment).
    The pool is not reentrant: jobs must not themselves call {!run_list} on
    the pool that is executing them. *)

type t

val create : domains:int -> t
(** Spawn at most [domains - 1] worker domains ([Invalid_argument] if
    [domains < 1]). The actual number of spawned domains is additionally
    capped at [Domain.recommended_domain_count () - 1]: running more domains
    than cores only adds stop-the-world GC synchronisation cost. Jobs the
    capped worker set does not pick up run on the coordinator. *)

val run_list : t -> (unit -> 'a) list -> 'a list
(** Execute the jobs, coordinator included, and return their results in
    order. If any job raised, the first exception (in job order) is
    re-raised after all jobs have completed. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; the pool must be idle. *)

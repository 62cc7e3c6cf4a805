(** An eventcount: a counter that producers bump and consumers block on
    until it moves.

    A consumer reads {!current} {e before} checking its condition, then
    {!await}s that value if the condition does not hold yet. Any
    {!notify} after the read — the event it waits for, or a periodic
    tick that lets it re-check a deadline — makes {!await} return, so no
    wake-up is lost between the check and the wait, and no consumer
    polls with sleeps. Wake-ups may be spurious; consumers re-check. *)

type t

val create : unit -> t

val current : t -> int

val notify : t -> unit
(** Bump the count and wake every waiter. Safe from any thread or
    domain, also while holding an unrelated lock: the eventcount's own
    lock is never held while calling out. *)

val await : t -> seen:int -> unit
(** Block until the count differs from [seen]; returns at once if it
    already does. *)

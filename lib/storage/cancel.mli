(** Cooperative cancellation tokens with optional deadlines.

    A token is shared between the party that may cancel a computation (a
    server connection handler reacting to a client's cancel frame, or the
    admission layer that stamped a deadline on the request) and the
    computation itself, which polls {!check} at operator boundaries — the
    merge-join sweep loop, the sort comparator, the blocked nested-loop scan.
    Polling a token is one atomic load on the fast path; the deadline clock
    is only consulted every {!poll_period} checks, so a check is cheap
    enough for per-tuple call sites.

    Tokens may be cancelled from any domain or thread; the computation
    observes the flag at its next check and unwinds with {!Cancelled}. *)

type t

exception Cancelled of string
(** Raised by {!check} (and {!raise_if_cancelled}) once the token is
    cancelled or its deadline has passed. The payload is the reason
    ([deadline exceeded], [cancelled by client], ...). *)

val create : ?deadline:float -> unit -> t
(** A fresh token. [deadline] is an absolute [Unix.gettimeofday] instant
    after which {!check} raises; omitted means no deadline. *)

val with_timeout : seconds:float -> unit -> t
(** [create] with a deadline [seconds] from now. *)

val cancel : ?reason:string -> t -> unit
(** Request cancellation (default reason ["cancelled"]). Idempotent — the
    first reason wins — and safe to call from any domain or thread. *)

val cancelled : t -> bool
(** Has the token been cancelled (explicitly or by a previous deadline
    check)? Does not itself consult the clock. *)

val reason : t -> string
(** The cancellation reason ([""] while the token is live). *)

val deadline : t -> float option
(** The absolute deadline, if any. *)

val check : t option -> unit
(** Poll the token: raise {!Cancelled} if it has been cancelled, or mark it
    cancelled and raise if its deadline has passed. [None] is the no-op
    token — execution paths thread a [t option] exactly like
    {!Trace.t option}, and the disabled path costs one branch. *)

val raise_if_cancelled : t -> unit
(** {!check} on a known-present token. *)

val poll_period : int
(** Number of {!check} calls between deadline clock reads (the cancel flag
    itself is read on every call). *)

(** Fuzzy tuples: attribute values plus the membership degree [D].

    A tuple belongs to its relation iff its degree is positive; the degree of
    an answer tuple is the satisfaction degree of the query condition
    (Section 2.2 of the paper). *)

type t = { values : Value.t array; degree : Fuzzy.Degree.t }

val make : Value.t array -> Fuzzy.Degree.t -> t
val value : t -> int -> Value.t
val degree : t -> Fuzzy.Degree.t
val with_degree : t -> Fuzzy.Degree.t -> t
val concat : t -> t -> Fuzzy.Degree.t -> t
(** Join-result tuple with an explicitly computed degree. *)

val project : t -> int list -> t
(** Keep the listed positions (in order); the degree is preserved — duplicate
    elimination with max happens in {!Algebra.Max_fold}. *)

val values_equal : t -> t -> bool
(** Structural equality of the value vectors, ignoring degrees (the notion of
    "identical pairs of names" used when eliminating duplicates). *)

val compare_values : t -> t -> int
val pp : Format.formatter -> t -> unit

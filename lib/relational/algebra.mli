(** Fuzzy relational algebra.

    These operators implement the composable single-measure semantics of the
    paper (Section 2): selection combines the tuple's membership degree with
    the predicate's satisfaction degree by [min]; duplicate elimination keeps
    the maximal degree among identical value vectors (fuzzy OR); the
    [WITH D >= z] clause is a plain degree threshold on the result. *)

val select :
  ?name:string -> Relation.t -> pred:(Ftuple.t -> Fuzzy.Degree.t) -> Relation.t
(** Output degree = [min (degree tup) (pred tup)]; tuples whose combined
    degree is 0 are dropped (they are not members of the answer). *)

val project : ?name:string -> Relation.t -> attrs:string list -> Relation.t
(** Projection with max-degree duplicate elimination. Raises
    [Invalid_argument] on unknown attribute names. *)

val project_positions : ?name:string -> Relation.t -> int list -> Relation.t
(** Projection onto attribute positions, max-folded ({!Max_fold}). *)

(** The max-fold behind every duplicate elimination here: one
    accumulator per query, fed straight off the operator that produces
    the tuples, so no pre-dedup relation is written. Tuples equal under
    {!Ftuple.compare_values} collapse into the first one added, carrying
    the max degree of the group.

    Every tuple is folded as its encoding ({!Codec.encode_into}'s
    format). {!add_record} copies an answer's projected values out of a
    record in place on its page, so the merge-join's answers are never
    decoded; {!add} encodes a decoded tuple and folds the bytes the same
    way. An added tuple finds its group through an open-addressed hash
    index keyed by {!Codec.values_hash}, computed from the bytes and
    agreeing with [compare_values] ([Int 3], crisp [3.0] and
    [DIST(3:1)] hash alike, -0.0 as 0.0); the distinct tuples are sorted
    only when the answer is read out (by {!Codec.order_key}, then
    [compare_values]), and they come out in [compare_values] order
    ([LIMIT] without [ORDER BY] and wire row order depend on it).

    Memory: the distinct tuples' encodings in one buffer grown by
    doubling (at most twice their size), plus three words of columns per
    distinct tuple (also grown by doubling) and an index of at most four
    words per distinct tuple (a slot is one word: an entry and 31 bits of
    its hash). An accumulator is a plain value with no
    shared state: concurrent queries each use their own. *)
module Max_fold : sig
  type t

  val create : unit -> t

  val add_record : t -> bytes -> pos:int -> int array -> float -> unit
  (** [add_record t buf ~pos select d] folds the tuple made of the values
      at positions [select] (in that order) of the record encoded at
      [pos] of [buf], with degree [d]; the values' bytes are copied, not
      decoded ({!Codec.project_at}). The caller drops degree 0 (such
      tuples are not members).
      @raise Invalid_argument if the projected arity differs from the
      first tuple's, or a position is out of range. *)

  val add : t -> Ftuple.t -> unit
  (** [add t tup] encodes [tup] and folds it as {!add_record} does. The
      caller drops tuples of degree 0.
      @raise Invalid_argument if the tuple's arity differs from the
      first tuple's. *)

  val to_relation : ?name:string -> t -> Storage.Env.t -> Schema.t -> Relation.t
  (** Write the folded tuples, in [compare_values] order, into a new
      temporary relation (renamed by [?name]), a page per buffer-pool
      write. The accumulator may keep being fed afterwards. *)
end

val dedup_max : ?name:string -> Relation.t -> Relation.t
(** Collapse tuples with identical value vectors, keeping the max degree
    ({!Max_fold} over the relation). *)

val union_max : ?name:string -> Relation.t -> Relation.t -> Relation.t
(** Fuzzy union: max degree per value vector. Schemas must have equal
    arity. *)

val intersect_min : ?name:string -> Relation.t -> Relation.t -> Relation.t
(** Fuzzy intersection: for value vectors present in both operands, the
    [min] of their degrees. Schemas must have equal arity. *)

val difference : ?name:string -> Relation.t -> Relation.t -> Relation.t
(** Fuzzy set difference: degree [min(mu_R(t), 1 - mu_S(t))] per value
    vector (tuples absent from [s] keep their degree). Schemas must have
    equal arity. *)

val threshold : ?name:string -> Relation.t -> Fuzzy.Degree.t -> Relation.t
(** [WITH D >= z]. *)

val product : ?name:string -> Relation.t -> Relation.t -> Relation.t
(** Cross product; degree = [min] of the operand degrees. *)

val group :
  Relation.t -> key:int list -> (Value.t array * Ftuple.t list) list
(** In-memory grouping by structural equality of the key values (GROUPBY);
    groups are returned in ascending key order. *)

val rename : Relation.t -> string -> Relation.t
(** Change the schema name (FROM-clause aliasing); shares storage. *)

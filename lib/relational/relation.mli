(** Fuzzy relations: a schema plus a heap file of encoded fuzzy tuples.

    Insertion enforces the fuzzy-set model: tuples with degree 0 are not
    members and are silently dropped. An optional fixed tuple size ([pad_to])
    reproduces the experiment workloads where every tuple occupies 128-2048
    bytes on disk. *)

type t

exception Bad_meta of string
(** A durable relation's catalog metadata blob failed to decode. *)

val create : ?pad_to:int -> ?durable:bool -> Storage.Env.t -> Schema.t -> t
(** [~durable:true] (durable environments only) places the heap file on
    the durable backend and records the schema in the WAL manifest, so
    the relation survives restart; the default is a temporary relation
    exactly as before. *)

val schema : t -> Schema.t

(** [with_name t n]: same storage under a renamed schema (FROM aliasing). *)
val with_name : t -> string -> t
val env : t -> Storage.Env.t
val file : t -> Storage.Heap_file.t
val pad_to : t -> int option
val is_durable : t -> bool

val insert : t -> Ftuple.t -> unit

val of_list :
  ?pad_to:int -> ?durable:bool -> Storage.Env.t -> Schema.t -> Ftuple.t list -> t

val of_file : ?pad_to:int -> Storage.Env.t -> Schema.t -> Storage.Heap_file.t -> t
(** Wrap an existing heap file of encoded tuples (e.g. the output of the
    external sorter) as a relation. *)

val open_durable : Storage.Env.t -> fid:int -> meta:bytes -> pages:int array -> t
(** Reattach a durable relation from its manifest entry
    ({!Storage.Env.manifest}); raises {!Bad_meta} if the metadata blob
    does not decode. *)

val cardinality : t -> int
val num_pages : t -> int

val iter : t -> (Ftuple.t -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Ftuple.t -> 'a) -> 'a
val to_list : t -> Ftuple.t list

val iter_via : Storage.Buffer_pool.t -> t -> (Ftuple.t -> unit) -> unit
(** Scan through a caller-supplied buffer pool; the join algorithms use
    scoped pools to model the paper's per-operator buffer allocations. *)

val destroy : t -> unit

val pp : Format.formatter -> t -> unit
(** Render as a table (for examples and debugging); degrees shown with four
    decimals. *)

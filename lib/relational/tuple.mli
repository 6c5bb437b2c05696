(** Tuples of database values.

    A tuple is an immutable array of {!Value.t}. Tuples are the elements
    of relations and also the candidate answers to queries ([m]-tuples
    over the active domain, possibly containing nulls — the paper uses
    the permissive notion of certain answers with nulls, after Lipski). *)

type t

val of_list : Value.t list -> t
val of_array : Value.t array -> t

val unsafe_of_array : Value.t array -> t
(** Adopts the array without copying. The caller must not mutate it
    while the tuple is live — reserved for hot paths (the compiled
    evaluation kernel probes indexes with a reused buffer). *)

val copy : t -> t
(** A fresh tuple with the same values: keeps a tuple whose array
    {!unsafe_of_array} adopted from a reused buffer. *)

val to_list : t -> Value.t list
val to_array : t -> Value.t array

val empty : t
(** The unique 0-ary tuple [()]. *)

val arity : t -> int
val get : t -> int -> Value.t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val nulls : t -> int list
(** Identifiers of the nulls occurring, without duplicates, in order of
    first occurrence. *)

val constants : t -> int list
(** Codes of the constants occurring, without duplicates. *)

val has_null : t -> bool

val map : (Value.t -> Value.t) -> t -> t

val consts : string list -> t
(** Convenience: a tuple of named constants. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

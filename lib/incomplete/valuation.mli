(** Valuations: assignments of constants to nulls.

    A valuation [v : Null(D) → Const] replaces each null of a database
    by a constant; [v(D)] is a complete database and the semantics of
    [D] is [[D]] = {v(D) | v} (closed-world, §2 of the paper). *)

type t

val empty : t

val of_list : (int * int) list -> t
(** [(null id, constant code)] pairs.
    @raise Invalid_argument on duplicate null ids or codes [< 1]. *)

val bindings : t -> (int * int) list
(** Sorted by null id. *)

val find : t -> int -> int option
val find_exn : t -> int -> int

val defined_on : t -> int list -> bool
(** Is the valuation defined on all the given null ids? *)

val domain : t -> int list
val range : t -> int list
(** Constant codes in the range, sorted, deduplicated. *)

val is_injective : t -> bool

val is_bijective_for : avoid:int list -> t -> bool
(** [C]-bijectivity (Definition 2): injective with range disjoint from
    [avoid] (which callers set to [Const(D) ∪ C]). *)

val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Application} *)

val value : t -> Relational.Value.t -> Relational.Value.t
(** Replaces a null by its image ([Invalid_argument] if unassigned);
    constants are unchanged. *)

val tuple : t -> Relational.Tuple.t -> Relational.Tuple.t
val instance : t -> Relational.Instance.t -> Relational.Instance.t

val preimage_relation :
  t -> Relational.Relation.t -> Relational.Relation.t -> Relational.Relation.t
(** [preimage_relation v candidates answers]: the tuples [t] of
    [candidates] with [v(t) ∈ answers] — the [v⁻¹(…)] step of naïve
    evaluation via bijective valuations (Definition 3). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

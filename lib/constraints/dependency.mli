(** Integrity constraints: functional dependencies, inclusion
    dependencies, keys and foreign keys (paper §4).

    Every constraint compiles to a first-order sentence, so a set [Σ] of
    constraints is a generic Boolean query as the paper requires. Keys
    carry, in addition to their functional dependency, the RDBMS-style
    requirement that key attributes of the {e incomplete} database hold
    no nulls (paper §4.3: "attributes declared as keys cannot be
    nulls"); that part is a syntactic condition on [D] itself, checked
    by {!keys_null_free}, not part of the compiled sentence. *)

type fd = {
  fd_relation : string;
  fd_lhs : int list;  (** 0-based determining positions [X] *)
  fd_rhs : int;  (** 0-based determined position [A] *)
}

type ind = {
  ind_src : string;
  ind_src_cols : int list;
  ind_dst : string;
  ind_dst_cols : int list;  (** [π_src_cols(src) ⊆ π_dst_cols(dst)] *)
}

type key = { key_relation : string; key_cols : int list }

type foreign_key = {
  fk_src : string;
  fk_src_cols : int list;
  fk_dst : string;
  fk_dst_cols : int list;  (** which must be a key of [fk_dst] *)
}

type t =
  | Fd of fd
  | Ind of ind
  | Key of key
  | ForeignKey of foreign_key

(** {1 Constructors} *)

val fd : string -> int list -> int -> t
val ind : string -> int list -> string -> int list -> t
(** @raise Invalid_argument if the column lists have different
    lengths. *)

val key : string -> int list -> t
val foreign_key : string -> int list -> string -> int list -> t

val key_of_attrs : Relational.Schema.t -> string -> string list -> t

(** {1 Semantics} *)

val to_formula : Relational.Schema.t -> t -> Logic.Formula.t
(** The FO sentence asserting the constraint (a key contributes its
    functional dependencies; its null-freeness is {e not} part of the
    sentence — see the module preamble).
    @raise Invalid_argument on positions out of range. *)

val set_to_formula : Relational.Schema.t -> t list -> Logic.Formula.t
(** The conjunction of all constraint sentences ([True] for []). *)

val holds : Relational.Instance.t -> t -> bool
(** Direct structural check on a (typically complete) instance, without
    going through FO evaluation; agreement with {!to_formula} on
    complete instances is a test. On incomplete instances this checks
    the naïve reading (nulls as themselves). *)

val all_hold : Relational.Instance.t -> t list -> bool

val keys_null_free : Relational.Instance.t -> t list -> bool
(** Does the incomplete database put constants in every position
    declared key (directly or as a foreign-key target)? *)

val fds_of_schema : Relational.Schema.t -> t list -> fd list
(** All FDs contributed by a constraint set: explicit FDs, plus for
    every key (and foreign-key target) on relation [R] with columns
    [X], the FDs [X → A] for every other position [A] of [R]. *)

val pp : Relational.Schema.t option -> Format.formatter -> t -> unit
val to_string : ?schema:Relational.Schema.t -> t -> string

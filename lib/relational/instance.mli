(** Incomplete database instances.

    An instance interprets every relation name of its schema as a finite
    relation over [Const ∪ Null] (paper, §2). An instance with no nulls
    is {e complete}. The semantics [[D]] of an incomplete instance is
    the set of complete instances [v(D)] for valuations [v] — that
    machinery lives in [certainty.incomplete]; this module is the purely
    structural substrate. *)

type t

(** {1 Construction} *)

val empty : Schema.t -> t

val of_rows : Schema.t -> (string * Value.t list list) list -> t
(** [of_rows schema [("R", rows); …]]. Relations not listed are empty.
    @raise Invalid_argument on unknown relations or arity mismatches. *)

val add_tuple : string -> Tuple.t -> t -> t
(** @raise Invalid_argument on unknown relation or arity mismatch. *)

val remove_tuple : string -> Tuple.t -> t -> t
(** Removes the tuple if present (no-op content otherwise; the result
    carries a fresh {!generation} either way).
    @raise Invalid_argument on unknown relation. *)

val set_relation : string -> Relation.t -> t -> t
(** @raise Invalid_argument on unknown relation or arity mismatch. *)

(** {1 Access} *)

val generation : t -> int
(** A process-unique, monotone stamp allocated at construction: every
    instance value — including the result of every functional update
    ({!add_tuple}, {!remove_tuple}, {!set_relation}, {!map_values},
    {!union}) — gets a fresh stamp. Caches key instance-derived state
    (kernel databases, compiled kernels) by this stamp: equal stamps
    guarantee the same underlying value, so a stale derivation can
    never be served for a mutated database. The stamp is identity
    metadata only; {!equal}/{!compare}/{!isomorphic} ignore it. *)

(** {1 Derived structures}

    One structure derived from an instance value can be memoized on
    the value itself, so that a caller holding only the instance
    reuses it (the incomplete library's kernel database: split and
    hash indexes). Like the generation stamp it is identity metadata:
    every construction and functional update starts without one, and
    {!equal}/{!compare} ignore it. *)

type derived = ..

val memo : t -> derived option

val memoize : t -> derived -> unit
(** Replace the memoized structure. Safe from several domains; the
    structure must be a function of the instance's content. *)

val schema : t -> Schema.t

val relation : t -> string -> Relation.t
(** @raise Not_found on unknown relation names. *)

val mem : t -> string -> Tuple.t -> bool
val fold : (string -> Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val total_tuples : t -> int

(** {1 Domains}

    Both lists are memoized per instance value: the first demand scans
    every tuple, later demands are O(1). [add_tuple] carries the memo
    forward (the domain only grows under insertion); a removal or a
    value map drops it, and the next demand rescans. The memo is
    identity metadata like the generation stamp — invisible to
    {!equal} and {!compare}. *)

val nulls : t -> int list
(** [Null(D)]: identifiers of nulls occurring, sorted, deduplicated. *)

val constants : t -> int list
(** [Const(D)]: codes of constants occurring, sorted, deduplicated. *)

val adom : t -> Value.t list
(** Active domain: all values occurring, constants first. *)

val null_count : t -> int
val is_complete : t -> bool

val max_constant : t -> int
(** Largest constant code occurring; [0] when none. Constant codes are
    process-global intern order, so this depends on what else the
    process has parsed — use {!constant_count} for anything that must
    be a function of the instance's content alone. *)

val constant_count : t -> int
(** [|Const(D)|], the number of distinct constants — content-determined,
    identical in every process that holds this instance. *)

(** {1 Transformation} *)

val map_values : (Value.t -> Value.t) -> t -> t

val subst_nulls : (int -> Value.t) -> t -> t
(** Replaces each null [⊥i] by the image of [i] (constants unchanged). *)

val union : t -> t -> t
(** Relation-wise union; schemas must be equal.
    @raise Invalid_argument otherwise. *)

(** {1 Comparison} *)

val equal : t -> t -> bool
val compare : t -> t -> int

val isomorphic : t -> t -> bool
(** Equality up to a bijective renaming of nulls (used, e.g., to state
    chase confluence; the paper notes the chase result is unique "up to
    renaming of nulls"). Exponential in the number of nulls; intended
    for small instances and tests. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Multi-line rendering with one table per non-empty relation. *)

val to_string : t -> string

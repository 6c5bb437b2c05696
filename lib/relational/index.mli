(** Hash indexes over a relation.

    {!Relation.t} is a balanced set — membership is [O(log n)] with a
    full-tuple comparison per level. The evaluation kernels probe
    relations millions of times with freshly built tuples, so this
    module trades one [O(n)] build for [O(1)] membership and indexed
    selections: a full-tuple hash table plus one posting-list table per
    column.

    An index value is immutable and may be shared across OCaml 5
    domains (reads of an unmutated hash table race with nothing). It is
    a snapshot: it does {e not} follow later updates of the relation it
    was built from. Single-tuple maintenance is {e incremental}:
    {!add} and {!remove} are pure and return a new index that shares
    the hashed bulk of the original plus a small overlay of
    added/removed tuples — no rebuild per update. The overlay is
    compacted into a fresh base automatically once it outgrows a fixed
    cap, so probe overhead stays bounded and un-updated indexes pay
    (almost) nothing. *)

type t

val of_relation : Relation.t -> t

val arity : t -> int
val cardinal : t -> int

val add : t -> Tuple.t -> t
(** The index with the tuple present; [t] itself when already a member.
    O(overlay) — shares the original's hashed base.
    @raise Invalid_argument on arity mismatch. *)

val remove : t -> Tuple.t -> t
(** The index without the tuple; [t] itself when not a member.
    O(overlay + postings touched at compaction). *)

val overlay : t -> int
(** Number of pending overlay entries (added + removed since the last
    base build); 0 for a freshly built or just-compacted index.
    Exposed for tests and diagnostics. *)

val mem : t -> Tuple.t -> bool
(** [O(1)] expected; tuples of the wrong arity are never members. *)

val mem_values : t -> Value.t array -> bool
(** Membership probed directly with a value array, avoiding the
    {!Tuple.of_array} copy. The array is only read. *)

(** {1 Scans}

    The row iterators of the compiled kernels' guarded quantifiers.
    They walk the live tuples in place (base rows in {!Relation.to_list}
    order, then the tuples added since the base in insertion order,
    skipping removed ones), stop at the first tuple the callback
    accepts, and allocate nothing themselves. *)

val exists : t -> (Tuple.t -> bool) -> bool
(** Whether the callback accepts some live tuple. *)

val exists_posting : t -> column:int -> Value.t -> (Tuple.t -> bool) -> bool
(** Whether the callback accepts some live tuple whose [column] holds
    the value — the column's posting list, never the whole relation.
    @raise Invalid_argument on a bad column. *)

(** {1 Selections} *)

val postings : t -> column:int -> Value.t -> Tuple.t list
(** Live tuples whose [column] holds the value: base tuples in
    {!Relation.to_list} row order, then tuples added since the base in
    insertion order. @raise Invalid_argument on a bad column. *)

val column_cardinal : t -> column:int -> Value.t -> int
(** [List.length (postings …)]. *)

val select : t -> (int * Value.t) list -> Tuple.t list
(** Tuples matching all [(column, value)] bindings — the selection
    [σ_{c₁=v₁,…}(R)] served from the smallest posting list, in the same
    order as {!postings}. [select t \[\]] lists every live tuple.
    @raise Invalid_argument on a bad column. *)

val to_list : t -> Tuple.t list
(** Every live tuple, same order as [select t \[\]]. *)

(** Compiled support-check kernel.

    Computes [v(D) ⊨ φ[v]] — the predicate behind every measure of the
    paper ([µ^k], support polynomials, conditional measures, certain
    answers) — without rebuilding anything per valuation. It is the
    composition of the two halves of the evaluation pipeline:

    - {!Split}: the instance is partitioned once into its ground
      fragment (hash-indexed, {!Relational.Index}) and the few
      null-carrying tuples;
    - {!Logic.Compiled}: the sentence is compiled once, with nulls
      resolved through a per-valuation image array.

    The null-carrying tuples are completed {e in place}: at compile
    time each becomes a fixed row whose constant cells are final and
    whose null cells are recorded in a null → (row, cell) dependency
    map. Checking a valuation refreshes only the null images, the
    dependent row cells, and the fresh-constant suffix of the
    evaluation domain — no per-valuation hash table, no allocation.

    [holds (compile (db_of_instance d) φ) v =
     Eval.sentence_holds (Valuation.instance v d)
       (Formula.map_values (Valuation.value v) φ)]
    for every sentence and valuation defined on the nulls of [d] and
    [φ] — property-tested in [test/test_kernel.ml] and re-verified
    bit-for-bit by [bench --parallel] on every run.

    A {!db} is immutable and may be shared across domains; a compiled
    {!t} carries mutable scratch and is single-threaded — parallel
    folds compile one [t] per chunk from the shared [db]. *)

type db
(** The shareable half: split instance + ground-fragment indexes. *)

val db_of_instance : Relational.Instance.t -> db

val split : db -> Split.t
val instance : db -> Relational.Instance.t

val db_generation : db -> int
(** The {!Relational.Instance.generation} stamp of the presented
    instance. The kernel-db cache keys dbs by this stamp
    (equal stamps ⇒ the same instance value), so derived state can
    never outlive a mutation: a delta-updated db carries the fresh
    stamp of its new base instance. *)

(** {1 Single-tuple deltas}

    [db_insert]/[db_delete] return a new db without rebuilding: the
    split is patched for the touched relation ({!Split.insert} /
    {!Split.remove}), a ground tuple additionally updates that
    relation's index incrementally ({!Relational.Index.add} /
    [remove] — overlay, not rebuild), and the indexes of every other
    relation are shared physically with the input. Equivalent to
    [db_of_instance] of the updated instance (property-tested); the
    input db is untouched, so in-flight readers of the old generation
    stay consistent. *)

val db_insert : db -> name:string -> tuple:Relational.Tuple.t -> db
(** @raise Invalid_argument on unknown relation, arity mismatch, or a
    tuple already present. *)

val db_delete : db -> name:string -> tuple:Relational.Tuple.t -> db
(** @raise Invalid_argument on unknown relation or a tuple not
    present. *)

type t
(** A sentence compiled against a [db]; single-threaded. *)

val compile : db -> Logic.Formula.t -> t
(** @raise Invalid_argument if the formula is not a sentence. *)

val sentence : t -> Logic.Formula.t

val holds : t -> Valuation.t -> bool
(** [v(D) ⊨ φ[v]].
    @raise Invalid_argument if [v] misses a null of [D] or [φ]. *)

(** {1 Open mode}

    A query compiles to an enumerator of its answers
    ({!Logic.Compiled.of_source_open}) over the same in-place
    completion: one evaluation yields every answer of [v(D)], not one
    verdict for one tuple. Both entry points map the answers back to
    the active domain of [D]. *)

val compile_query : db -> Logic.Query.t -> t
(** Compile a query in open mode; {!holds} and {!holds_digits} do not
    apply to the result. *)

val answers : t -> Valuation.t -> (Relational.Tuple.t -> unit) -> unit
(** [answers t v f] calls [f] on every tuple of
    [{ā ∈ adom(D)^m : v(ā) ∈ Q(v(D))}], i.e. [v⁻¹(Q(v(D)))] over the
    active domain, by one open evaluation on [v(D)]. A tuple may be
    passed more than once. It is a reused buffer, valid only during
    the call: copy it to retain it.
    @raise Invalid_argument if [v] misses a null of [D] or of the
    query. *)

val naive_answers : t -> Relational.Relation.t
(** [Q^naïve(D)]: one open evaluation with every null read as itself
    ({!Naive.answers}). Equal to [Eval.answers] on the instance. *)

(** {1 Digit fast path}

    The exhaustive-sweep loop: an {!Enumerate.odometer} steps an
    in-place digit array through [V^k(D)] in rank order, and
    {!holds_digits} consumes it directly — bypassing [Valuation.t]
    construction and [Valuation.find_exn] lookups entirely. Because
    the kernel remembers the digits of the previous call, and an
    odometer step changes only trailing digits, each check refreshes
    only the null images, completed-row cells and domain suffix the
    changed digits actually touch (delta refresh). *)

val prepare_digits : t -> nulls:int list -> unit
(** Bind the kernel to a sweep over [nulls]: digit position [i] of
    every subsequent {!holds_digits} call assigns the [i]-th null of
    [nulls] (the {!Enumerate.odometer} digit convention). Idempotent
    when called again with an equal null list; switching lists rebuilds
    the position map and invalidates the delta state.
    @raise Invalid_argument if [nulls] misses a null of [D] or the
    sentence, or lists a null twice. *)

val holds_digits : t -> int array -> bool
(** [v(D) ⊨ φ[v]] for the valuation sending the [i]-th null of the
    prepared sweep to constant code [digits.(i)]. Allocation-free; the
    array is read, never retained, so passing an odometer's live
    {!Enumerate.digits} between steps is safe. Agrees with {!holds} on
    the corresponding {!Valuation.t} — property-tested and bench-gated.
    @raise Invalid_argument without a matching {!prepare_digits}, on a
    length mismatch, or on a code [< 1]. *)

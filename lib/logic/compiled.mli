(** Compiled first-order evaluation.

    {!Eval} interprets a formula structurally on every call: variables
    resolve through [List.assoc] environments, quantifiers re-walk the
    domain list, atoms pay a balanced-set membership, and
    [Eval.domain] re-folds the whole instance for the active domain.
    This module performs that work {e once}: {!compile} translates a
    formula into a tree of closures with

    - variables resolved to slots of a preallocated environment array,
    - the evaluation domain hoisted into an array,
    - atom lookups served by per-relation hash indexes
      ({!Relational.Index}) probed with a reused buffer,
    - quantifier blocks run as guarded joins. In [∃x̄. c₁ ∧ … ∧ cₙ] a
      variable is bound by an equation with a constant or a quantified
      variable, or else from the rows matching a positive atom that
      mentions it (through a posting list when one of the atom's
      positions is already bound; over all rows when the relation has
      no more rows than the domain has tuples for the atom's new
      variables; otherwise by the domain loop and a probe). Only
      variables that no atom or equation covers loop over the domain.
      A [∀]-block runs as [¬∃x̄.¬body], the negation pushed through
      [¬], [→] and [∨].

    Truth values agree with {!Eval.holds} on every instance,
    environment and formula (property-tested in [test/test_kernel.ml]);
    only the cost model changes.

    A compiled formula owns mutable scratch (environment, domain and
    guard arrays), so a value of type {!t} must be used from one domain
    at a time. Compilation is cheap — parallel folds compile one per
    chunk.

    The {!source}/{!of_source} layer exposes the compiler over abstract
    atom/null resolvers; {!Incomplete.Kernel} plugs in split-instance
    completion to evaluate one sentence under thousands of valuations
    without materializing any completed instance. *)

type t

(** {1 Compiling against an instance} *)

val compile : Relational.Instance.t -> Formula.t -> t
(** Compile for repeated evaluation on a fixed instance. Quantifiers
    range over {!Eval.domain}, i.e. [adom(D)] plus the formula's
    constants. Nulls evaluate to themselves — naive-evaluation
    semantics, exactly like {!Eval}. *)

val holds : t -> (string * Relational.Value.t) list -> bool
(** Truth under an environment binding the free variables — the
    compiled counterpart of {!Eval.holds}.
    @raise Invalid_argument if a free variable is unbound. *)

val sentence_holds : t -> bool
(** @raise Invalid_argument if the formula is open. *)

(** {1 Generic compilation (kernel plumbing)} *)

type scan = {
  scan_rows : int;  (** live rows (an upper bound) *)
  scan_all : (Relational.Tuple.t -> bool) -> bool;
      (** Whether the callback accepts some live row. *)
  scan_with : int -> Relational.Value.t -> (Relational.Tuple.t -> bool) -> bool;
      (** [scan_with column v]: the same over the live rows whose
          [column] holds [v] — a posting list, not the whole relation. *)
}
(** The live rows of one relation, scanned in place. Rows passed to the
    callback are only valid during the call. *)

type source = {
  src_mem : string -> int -> Relational.Value.t array -> bool;
      (** [src_mem r arity] is applied once per atom at compile time;
          the resulting closure answers membership probes. The probe
          buffer is only valid during the call — copy to retain. *)
  src_scan : string -> int -> scan option;
      (** [src_scan r arity]: the rows of [r] for guarded quantifiers,
          applied once per candidate guard atom at compile time; [None]
          for an unknown relation or an arity mismatch (the atom is then
          only probed, through [src_mem]). The rows must be exactly
          those [src_mem] accepts. *)
  src_null : int -> unit -> Relational.Value.t;
      (** Eval-time meaning of a null occurring in the formula.
          [fun n () -> Value.null n] gives naive semantics. *)
}

val of_source : ?free:string list -> source -> Formula.t -> t
(** Compile against abstract resolvers. [?free] fixes the slot order of
    the free variables (default {!Formula.free_vars} order). The domain
    starts empty — call {!set_domain} before evaluating quantifiers.

    {b Domain invariant.} Quantified variables are bound from scanned
    rows, so the domain must contain every value of every row the
    source exposes, plus the formula's constants. A narrower domain
    gives wrong answers. *)

(** {1 Open mode}

    An open formula compiles to an enumerator of the bindings of its
    free variables: the guarded-join plan of a quantifier block over
    the free variables, with an emit step in place of the early exit.
    In [Q(x,y) := R(x,y) ∧ ¬S(x,y)] the rows of [R] bind [x] and [y],
    [¬S] is probed, and every surviving row is emitted — one scan, not
    one sentence check per tuple of the domain. *)

val of_source_open : free:string list -> source -> Formula.t -> t
(** Compile [f] in open mode over the free variables [free] (every
    free variable of [f] must be listed; a listed variable [f] does not
    mention ranges over the domain). The domain invariant of
    {!of_source} applies. *)

val enumerate : t -> (Relational.Value.t array -> unit) -> unit
(** [enumerate t k] calls [k] on every binding of the free variables
    (in [free] order) over the domain under which the formula holds.
    A binding may be passed more than once (a row and an equal
    completed row are both scanned). The array is a reused buffer,
    valid only during the call.
    @raise Invalid_argument if [t] was not compiled in open mode. *)

val answers : Relational.Instance.t -> Query.t -> Relational.Relation.t
(** The compiled counterpart of {!Eval.answers}: one open evaluation
    on the instance, nulls read as themselves, answer tuples kept when
    they lie in [adom(D)^m]. Equal to [Eval.answers] on every instance
    and query (property-tested). *)

val set_domain : t -> Relational.Value.t array -> int -> unit
(** [set_domain t dom n]: quantifiers range over [dom.(0..n-1)]. The
    array is adopted, not copied — callers may refresh it between
    evaluations (the kernel rewrites a suffix per valuation).
    @raise Invalid_argument if [n] is not a valid prefix length. *)

val run : t -> bool
(** Evaluate with the environment array as-is: {!sentence_holds}
    without the open-formula check, for compiled-sentence hot loops. *)

(** {1 Introspection} *)

val formula : t -> Formula.t
val free_vars : t -> string list
val has_quantifier : t -> bool

val uses_domain : t -> bool
(** Whether evaluation reads the domain: some quantified variable is
    not bound by a guard through a bound column or by an equation (see
    the module preamble). When [false], {!set_domain} can be skipped. *)

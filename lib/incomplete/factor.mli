(** Decomposition plans: the data factorized µ^k evaluation runs on.

    Valuations assign nulls independently, so whenever a support
    sentence [φ] splits into conjuncts touching disjoint null sets the
    measure factorizes over the connected components of the null
    interaction graph and the [k^m] sweep collapses to [Σᵢ k^{mᵢ}].
    This module holds the plan representation shared by the planner
    ([Analysis.Decomp], which builds plans and proves them sound) and
    the evaluators ({!Support.supp_count_plan}, the per-component
    sampler of [Approx_measure.Estimator]).

    The soundness side conditions live here too, next to the kernel
    they reason about: {!dsafe} is the syntactic guardedness check
    certifying that a conjunct's verdict is invariant under extending
    the evaluation domain with elements fresh to the conjunct — the
    exact gap between a component's restricted kernel domain and the
    monolithic one. *)

type component = {
  c_nulls : int list;  (** the component's null ids, sorted *)
  c_sentence : Logic.Formula.t;
      (** conjunction of the conjuncts assigned to this component *)
  c_relations : string list;
      (** relations the conjuncts mention — the kernel restriction *)
  c_conjuncts : int;
}

type plan = {
  components : component list;
  free_nulls : int list;
      (** swept nulls no conjunct depends on: factor [k^f] in the
          support count, factor 1 in the measure *)
  all_nulls : int list;  (** the monolithic sweep set, sorted *)
}

val parts : plan -> int
(** Components plus one for a nonempty free block — [≥ 2] is a real
    decomposition. *)

val whole :
  Relational.Instance.t -> Logic.Formula.t -> nulls:int list -> plan
(** The one-component plan: [sentence] swept over all of [nulls] on the
    whole instance — the monolithic µ^k as a plan. *)

val restricted_instance :
  Relational.Instance.t -> string list -> Relational.Instance.t
(** Same schema, but only the named relations keep their tuples. *)

(** {1 Conjunct extraction} *)

val normalize : Logic.Formula.t -> Logic.Formula.t
(** Distributes [∀] over [∧] (valid on every domain, empty included)
    so independent conjuncts under a shared universal become separate
    top-level conjuncts. Binders are never dropped. *)

val conjuncts : Logic.Formula.t -> Logic.Formula.t list
(** Top-level conjuncts of {!normalize}, in order; at least one. *)

(** {1 Domain-safety} *)

val dsafe : Logic.Formula.t -> bool
(** Every quantifier is guarded: no existential is witnessed and no
    universal refuted by an element fresh to the formula's relations
    and constants. A dsafe conjunct evaluated on its kernel
    restriction (nonempty domain) returns exactly the monolithic
    verdict — the soundness lemma behind the bit-identity gate. *)

val falsified_fresh : string -> Logic.Formula.t -> bool
(** [falsified_fresh x f]: f is definitely false whenever [x] holds an
    element fresh to f's relations and values, whatever the other
    variables hold (assumes a nonempty domain). *)

val satisfied_fresh : string -> Logic.Formula.t -> bool
(** Dual: definitely true under the same regime. *)

val has_quantifier : Logic.Formula.t -> bool

val relations : Logic.Formula.t -> string list
(** Relation names mentioned, sorted, deduplicated. *)

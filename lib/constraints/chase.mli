(** The chase with functional dependencies (paper §4.4).

    A chase step picks two tuples violating an FD [X → A] (equal on
    [X], different on [A]) and
    - replaces a null by the other side's constant everywhere, or
    - replaces one null by the other everywhere, or
    - fails when both sides are distinct constants.

    Every successful chase sequence yields the same instance up to
    renaming of nulls; its length is polynomial (each step removes a
    null or fails). [chase_Σ(D)] is the basis of Theorem 5 and
    Corollary 4: for FDs, [µ(Q|Σ,D,ā) = µ(Q, chase_Σ(D), ā)]. *)

type outcome =
  | Success of Relational.Instance.t
  | Failure of Dependency.fd * Relational.Tuple.t * Relational.Tuple.t
      (** the violated FD and the two clashing tuples *)

val chase : Dependency.fd list -> Relational.Instance.t -> outcome

val chase_constraints :
  Relational.Schema.t -> Dependency.t list -> Relational.Instance.t -> outcome
(** Chases with all FDs contributed by the constraint set (keys and
    foreign-key targets included); inclusion dependencies are ignored —
    the FD chase does not handle them. *)

val successful : outcome -> Relational.Instance.t option

val trace :
  Dependency.fd list ->
  Relational.Instance.t ->
  (Dependency.fd * Relational.Value.t * Relational.Value.t) list * outcome
(** Like {!chase} but also returns the substitution steps performed
    (the FD fired, the value replaced, the value it was replaced by). *)

(** {1 Incremental chase}

    Resuming a finished chase after a single-tuple insertion, instead
    of re-chasing the grown instance from scratch. The recorded steps
    of [chase_Σ(D)] are a valid prefix of a chase sequence of [D + t]
    (an insertion removes no violation), so it suffices to apply their
    cumulative substitution to [t] alone, add the result to the chased
    instance, and resume the fixpoint — by confluence this agrees with
    the from-scratch chase up to a renaming of nulls, and exactly on
    success versus failure. Cost: [O(|steps|)] plus the resumed
    fixpoint, which is empty whenever no FD constrains the touched
    relation. Deletions get no such shortcut (removing a tuple can
    retract a forced merge): drop the memo and re-chase lazily. *)

val chase_inc :
  Dependency.fd list ->
  prev:
    ((Dependency.fd * Relational.Value.t * Relational.Value.t) list * outcome) ->
  name:string ->
  tuple:Relational.Tuple.t ->
  (Dependency.fd * Relational.Value.t * Relational.Value.t) list * outcome
(** [chase_inc fds ~prev ~name ~tuple] where [prev = trace fds d]
    returns the steps and outcome of the chase of [d] with [tuple]
    added to relation [name], reusing [prev]'s work. A failed [prev]
    is returned unchanged — an FD clash between constant tuples
    survives any insertion. *)

(** {1 Chase with tuple-generating dependencies}

    The standard chase over the full constraint set: EGD repair (the
    FD chase above) alternated with TGD steps that insert a target
    tuple for each unmatched inclusion, fresh nulls in existential
    positions. Unlike the FD-only chase this need not terminate — the
    step budget applies to TGD insertions only. {!Wacyclic.check}
    certifies termination statically: on a weakly acyclic set the
    fixpoint is reached on every instance within polynomially many
    steps, so a generous budget never triggers (the property-tested
    agreement between certificate and oracle). *)

type tgd_outcome =
  | Tgd_fixpoint of Relational.Instance.t
      (** all dependencies satisfied (naïve reading) *)
  | Tgd_failed of Dependency.fd * Relational.Tuple.t * Relational.Tuple.t
      (** an FD clashed two constants — no repair exists *)
  | Tgd_budget of Relational.Instance.t
      (** TGD budget exhausted before a fixpoint; partial result *)

val chase_tgds :
  ?max_steps:int ->
  Relational.Schema.t ->
  Dependency.t list ->
  Relational.Instance.t ->
  tgd_outcome
(** [max_steps] defaults to 10_000 TGD insertions. *)

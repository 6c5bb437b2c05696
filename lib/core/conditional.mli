(** Conditional measures of certainty under constraints (paper §4).

    [µ(Q|Σ,D,ā) = lim_k |Supp^k(Σ ∧ Q(ā),D)| / |Supp^k(Σ,D)|] — the
    probability that a random valuation satisfying the constraints also
    witnesses the answer. Theorem 3: the limit always exists and is a
    rational in [0,1] (computed here as a ratio of leading coefficients
    of support polynomials). By convention the measure is 0 when [Σ] is
    unsatisfiable in [D].

    Also provided: the degenerate implication measure [µ(Σ → Q, D)]
    (Proposition 3), and the chase shortcut for sets of functional
    dependencies (Theorem 5 / Corollary 4), under which the 0–1 law is
    recovered.

    [?jobs] runs the underlying support counts — numerator and
    denominator together, in one chunked pass — on parallel domains
    ({!Exec.Pool}); all accumulation is exact bigint/rational
    arithmetic, so results are identical for any [jobs]. [?cache]
    shares the kernel database of an {!Incomplete.Support.cache}
    across calls on the same database. *)

type report = {
  numerator : Arith.Poly.t;  (** [|Supp^k(Σ ∧ Q(ā), D)|] *)
  denominator : Arith.Poly.t;  (** [|Supp^k(Σ, D)|] *)
  value : Arith.Rat.t;  (** the limit [µ(Q|Σ,D,ā)] *)
  census : Support_poly.t;
      (** the class census behind both polynomials, sentences
          [\[Σ ∧ Q(ā); Σ\]] — exact [µ^k(Q|Σ)] at every [k]
          ({!Pipeline.series}) *)
}

val mu_cond :
  ?jobs:int ->
  ?cache:Incomplete.Support.cache ->
  sigma:Logic.Formula.t ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  Arith.Rat.t
(** [µ(Q|Σ,D,ā)] for a constraint sentence [Σ]. *)

val mu_cond_boolean :
  ?jobs:int ->
  ?cache:Incomplete.Support.cache ->
  sigma:Logic.Formula.t ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Arith.Rat.t

val mu_cond_report :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Incomplete.Support.cache ->
  sigma:Logic.Formula.t ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  report
(** The polynomials behind the limit, for inspection (experiment E7),
    and their census. [?guard] cancels the class pass
    ({!Support_poly.of_sentences}). *)

val mu_cond_deps :
  ?jobs:int ->
  ?cache:Incomplete.Support.cache ->
  Relational.Schema.t ->
  Constraints.Dependency.t list ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  Arith.Rat.t
(** Constraints given as dependencies; compiled through
    {!Constraints.Dependency.set_to_formula}. *)

val mu_cond_deps_direct :
  ?jobs:int ->
  Constraints.Dependency.t list ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  Arith.Rat.t
(** Same value as {!mu_cond_deps} but checks the constraints
    structurally on each class representative
    ({!Constraints.Dependency.holds}) instead of evaluating a compiled
    [∀…∀]-sentence — typically orders of magnitude faster for FDs and
    keys on wider relations. Agreement with {!mu_cond_deps} is
    property-tested. *)

val mu_cond_k :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Incomplete.Support.cache ->
  sigma:Logic.Formula.t ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  k:int ->
  Arith.Rat.t
(** Brute-force [µ^k(Q|Σ,D,ā)], the oracle the census-based series of
    {!Pipeline.series} is tested against; 0 when no valuation in [V^k]
    satisfies [Σ].
    @raise Arith.Bigint.Overflow if the space [V^k] exceeds [max_int]. *)

val cond_decomp :
  ?k:int ->
  sigma:Logic.Formula.t ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  Analysis.Decomp.t * Analysis.Decomp.t
(** Decomposition certificates for the numerator sentence [Σ ∧ Q(ā)]
    and the denominator sentence [Σ], both over the sweep set of
    {!mu_cond_k} (database, tuple and [Σ] nulls). *)

val mu_cond_k_plans :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Incomplete.Support.cache ->
  num_plan:Incomplete.Factor.plan ->
  den_plan:Incomplete.Factor.plan ->
  Relational.Instance.t ->
  k:int ->
  Arith.Rat.t
(** Factorized [µ^k(Q|Σ)]: both counts run component-by-component on
    restricted kernels ({!Incomplete.Support.supp_count_plan}) and the
    quotient of the exact bigint counts is formed (0 when no valuation
    satisfies [Σ]) — bit-identical to
    {!mu_cond_k} on sound plans sharing its sweep set (which
    {!cond_decomp} guarantees). *)

val mu_implication :
  ?jobs:int ->
  ?cache:Incomplete.Support.cache ->
  sigma:Logic.Formula.t ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  Arith.Rat.t
(** [µ(Σ → Q(ā), D)] — by Proposition 3, 1 when [µ(Σ,D) = 0] and
    [µ(Q,D,ā)] otherwise. Computed symbolically. *)

val mu_cond_fds :
  Constraints.Dependency.fd list ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  Arith.Rat.t
(** Theorem 5 / Corollary 4: for FDs and a tuple of constants,
    [µ(Q|Σ,D,ā) = µ(Q, chase_Σ(D), ā)] — i.e. 1 if the chase succeeds
    and [ā ∈ Q^naïve(chase_Σ(D))], else 0. Polynomial in the size of
    [D] (given the query).
    @raise Invalid_argument if [ā] contains nulls (the chase renames
    nulls, so the statement only makes sense for constant tuples). *)

val mu_cond_chased :
  Constraints.Chase.outcome ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  Arith.Rat.t
(** {!mu_cond_fds} on an already-chased outcome — for callers that
    maintain the chase incrementally across updates
    ({!Constraints.Chase.chase_inc}) and answer many conditional
    queries against it. The value only reads success/failure and the
    naïve answer, both invariant under the null renaming incremental
    resumption may introduce, so memoized and from-scratch outcomes
    give the same measure.
    @raise Invalid_argument if [ā] contains nulls. *)

(** {1 Classifier-driven dispatch} *)

type strategy =
  | Chase_fds  (** the Theorem 5 chase shortcut applies *)
  | Symbolic  (** support-polynomial counting over valuation classes *)

val strategy : Constraints.Dependency.t list -> Relational.Tuple.t -> strategy
(** Consults {!Analysis.Classify.constraint_class}: [Chase_fds] exactly
    when the dependency set is FD-only and the tuple is null-free. *)

val mu_cond_auto :
  ?jobs:int ->
  ?cache:Incomplete.Support.cache ->
  Relational.Schema.t ->
  Constraints.Dependency.t list ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  strategy * Arith.Rat.t
(** [µ(Q|Σ,D,ā)] by the cheapest sound algorithm: routes through
    {!strategy} and returns the route taken together with the value.
    Both routes compute the same measure (Theorem 5); agreement is
    property-tested. *)

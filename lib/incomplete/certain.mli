(** Certain and possible answers, decided exactly.

    A tuple [ā] is a certain answer ([ā ∈ □(Q,D)]) iff
    [Supp(Q,D,ā) = V(D)], and a possible answer iff
    [Supp(Q,D,ā) ≠ ∅] (paper §2). Although [V(D)] is infinite, by
    [C]-genericity the truth of [v(ā) ∈ Q(v(D))] is constant on each
    valuation equivalence class ({!Classes}), and every class is
    non-empty; hence certainty is universality over class
    representatives and possibility is existence of one. This is exact
    for {e every} generic query — including full first-order queries,
    where naïve evaluation is unsound for certainty — at exponential
    cost in the number of nulls (coNP-hardness is Theorem 6's
    territory; no polynomial algorithm is expected).

    The passes are {e class-major}. The classes are enumerated once
    ({!Support.space}); for each representative [v] the query runs
    once, in the open mode of the compiled kernel
    ({!Kernel.answers}), on the in-place completion [v(D)], and its
    answers map back to [P_v = {ā ∈ adom(D)^m : v(ā) ∈ Q(v(D))}].
    Then [□(Q,D) = ∩_v P_v] and the possible answers are [∪_v P_v]:
    [|classes|] open evaluations, whatever the size of [adom(D)^m].
    The candidate-major pass (one compiled sentence per tuple of
    [adom(D)^m], scanned over the classes) remains as the oracle
    {!certain_answers_enumerated} and decides single tuples
    ({!is_certain}, {!is_possible}), which may carry values outside
    the database.

    The passes take [?jobs] to fold the classes on parallel domains
    (each pool chunk compiles one open kernel on the shared kernel db;
    chunks merge by ∩ and ∪, so the answer sets are identical for any
    [jobs]), and [?cache] to share the kernel database (split +
    indexes) through a {!Support.cache} with other calls on the same
    instance. [?guard] is called at chunk boundaries and every 16
    classes a chunk evaluates (every 256 checks in the candidate-major
    oracle), and cancels the pass by raising (the query service's
    deadline hook). *)

type answers = {
  certain : Relational.Relation.t;  (** [□(Q,D)] *)
  possible : Relational.Relation.t;
      (** the tuples over the active domain with [Supp(Q,D,ā) ≠ ∅] *)
  naive : Relational.Relation.t;  (** {!Naive.answers} *)
}

val answers :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Support.cache ->
  Relational.Instance.t -> Logic.Query.t -> answers
(** Certain, possible and naïve answers from one class pass: one open
    evaluation with nulls read as themselves (the naïve answers), then
    one per valuation class (span [certain.sweep]). When neither the
    database nor the query has a null, all three are the naïve answers
    and no class is evaluated. *)

val is_certain :
  ?cache:Support.cache ->
  Relational.Instance.t -> Logic.Query.t -> Relational.Tuple.t -> bool

val certain_answers :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Support.cache ->
  Relational.Instance.t -> Logic.Query.t -> Relational.Relation.t
(** [□(Q,D)]: all certain answers among tuples over the active domain
    (certain answers {e with nulls}, after [Lipski 1984]).

    Dispatches on {!Logic.Fragment.classify}: for queries within Pos∀G
    that name no constant and no null, naïve evaluation computes
    certain answers (Corollary 3), so the class enumeration is skipped
    entirely — certain answers
    then cost one query evaluation instead of exponentially many. All
    other queries take the class pass for certainty alone, which stops
    a chunk once its intersection is empty. Both paths agree with
    {!certain_answers_enumerated} wherever they apply — a property the
    test suite checks. *)

val certain_answers_enumerated :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Support.cache ->
  Relational.Instance.t -> Logic.Query.t -> Relational.Relation.t
(** The candidate-major oracle: every tuple of [adom(D)^m] is checked
    as a sentence on the classes until one refutes it. Ground truth for
    every generic query, kept for tests and the bench identity gate; no
    serving path calls it. *)

val certain_answers_null_free :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Support.cache ->
  Relational.Instance.t -> Logic.Query.t -> Relational.Relation.t
(** The classical intersection-based certain answers: the restriction
    of [□(Q,D)] to null-free tuples (paper §1: "this is simply the
    restriction of □(Q,D) to tuples without nulls"). *)

val is_possible :
  ?cache:Support.cache ->
  Relational.Instance.t -> Logic.Query.t -> Relational.Tuple.t -> bool

val possible_answers :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Support.cache ->
  Relational.Instance.t -> Logic.Query.t -> Relational.Relation.t
(** The [possible] field of {!answers}: the class pass for
    possibility alone, without the naïve evaluation. *)

val is_certain_sentence :
  ?cache:Support.cache -> Relational.Instance.t -> Logic.Formula.t -> bool
(** Certain truth of a Boolean query: [Q(D') = true] for all
    [D' ∈ [[D]]]. *)

val is_possible_sentence :
  ?cache:Support.cache -> Relational.Instance.t -> Logic.Formula.t -> bool

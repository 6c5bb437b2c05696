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

    Both quantifiers run in one class pass ({!answers}): the classes
    are enumerated once ({!Support.space}), each candidate tuple's
    sentence is compiled once, and its scan stops as soon as the
    verdicts asked for are known. Every other function here is a
    projection of that pass.

    The passes take [?jobs] to check candidate tuples on parallel
    domains (each candidate is independent; chunk results are merged by
    set union, so the answer sets are identical for any [jobs]), and
    [?cache] to share the kernel database (split + indexes) through a
    {!Support.cache} with other calls on the same instance. [?guard] is
    called at candidate-chunk boundaries and every 256 classes a chunk
    checks, and cancels the pass by raising (the query service's
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
(** Certain, possible and naïve answers from one pass: the query is
    evaluated naïvely once, and for constant-free Pos∀G queries those
    answers are the certain ones (Corollary 3), so the class scan only
    looks for possibility witnesses. When neither the database nor the
    query has a null, all three are the naïve answers and no class is
    checked. *)

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

    Dispatches on {!Logic.Fragment.classify}: for constant-free queries
    within Pos∀G, naïve evaluation computes certain answers (Corollary
    3), so the class enumeration is skipped entirely — certain answers
    then cost one query evaluation instead of exponentially many. All
    other queries take the exact enumeration path
    ({!certain_answers_enumerated}). The two paths agree wherever both
    apply — a property the test suite checks. *)

val certain_answers_enumerated :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Support.cache ->
  Relational.Instance.t -> Logic.Query.t -> Relational.Relation.t
(** The class-enumeration path, unconditionally: ground truth for every
    generic query, exponential in the number of nulls. *)

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
(** The [possible] field of {!answers}, by a scan that stops at each
    candidate's first witness, without the naïve evaluation. *)

val is_certain_sentence :
  ?cache:Support.cache -> Relational.Instance.t -> Logic.Formula.t -> bool
(** Certain truth of a Boolean query: [Q(D') = true] for all
    [D' ∈ [[D]]]. *)

val is_possible_sentence :
  ?cache:Support.cache -> Relational.Instance.t -> Logic.Formula.t -> bool

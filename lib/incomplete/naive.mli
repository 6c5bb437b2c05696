(** Naïve evaluation (Definitions 2–3 and Proposition 1 of the paper).

    Naïve evaluation treats nulls as if they were pairwise-distinct
    fresh constants. The paper defines it via an arbitrary [C]-bijective
    valuation [v] as [Q^naïve(D) = v⁻¹(Q(v(D)))]; Proposition 1 shows
    the choice of [v] is irrelevant. Evaluating the formula directly on
    the incomplete instance (nulls compared structurally) computes the
    same thing; both implementations are provided and their agreement is
    a test, not an assumption.

    {!answers} runs on the compiled kernel ({!Kernel.naive_answers})
    over the instance's kernel db, with every null read as itself: one
    open evaluation yields every answer, and the db is the one memoized
    on the instance (or held by [?cache]), so a repeated call on one
    instance neither splits nor indexes it again. It agrees with
    {!Logic.Eval.answers} on every input (property-tested). The
    single-verdict entry points interpret the formula ({!Logic.Eval}),
    which needs no index. *)

val answers :
  ?cache:Support.cache ->
  Relational.Instance.t -> Logic.Query.t -> Relational.Relation.t
(** [Q^naïve(D)] by direct structural evaluation. *)

val boolean : Relational.Instance.t -> Logic.Query.t -> bool
(** Boolean naïve evaluation. @raise Invalid_argument if not Boolean. *)

val tuple_in : Relational.Instance.t -> Logic.Query.t -> Relational.Tuple.t -> bool
(** [ā ∈ Q^naïve(D)]? *)

val answers_via_bijective :
  ?valuation:Valuation.t ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Relation.t
(** Definition 3 literally: apply a [C]-bijective valuation [v]
    (a canonical fresh one unless supplied), evaluate on [v(D)], pull
    the result back through [v⁻¹].
    @raise Invalid_argument if the supplied valuation is not
    [C]-bijective for the query's constants and [Const(D)]. *)

val sentence : Relational.Instance.t -> Logic.Formula.t -> bool
(** Naïve truth of a sentence. @raise Invalid_argument on free
    variables. *)

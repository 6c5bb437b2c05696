(** Open-world measure (paper §3.4, Proposition 2).

    Under open-world semantics,
    [[D]]_owa = {v(D) ∪ D' | v a valuation, D' finite and complete};
    restricting to active domains inside [{c1..ck}] gives the finite
    family over which [owa-m^k(Q,D)] is the fraction of members
    satisfying [Q]. Proposition 2 shows the connection with naïve
    evaluation breaks down: a query can be naïvely true yet have
    [owa-m = 0], and vice versa.

    Enumeration is doubly exponential in nature ([2^(Σ k^arity)]
    candidate databases); {!owa_m_k} guards against blow-up and is meant
    for the small instances of the paper's examples (experiment E4). *)

val owa_m_k :
  ?max_tuple_space:int ->
  Relational.Instance.t ->
  Logic.Query.t ->
  k:int ->
  Arith.Rat.t
(** [owa-m^k(Q,D)] for a Boolean query.
    @raise Invalid_argument if the query is not Boolean, or if the
    total tuple space [Σ_R k^arity(R)] exceeds [max_tuple_space]
    (default 20), or if [k] is smaller than a constant of [D]. *)

val owa_semantics_k :
  Relational.Instance.t -> k:int -> Relational.Instance.t list
(** The finite family [[D]]_owa^k itself (for inspection and tests). *)

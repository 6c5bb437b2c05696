(** Symbolic support counting: [|Supp^k(q,D)|] as a polynomial in [k].

    This is the construction at the heart of the proof of Theorem 3:
    partition the valuations of [D] into equivalence classes
    ({!Incomplete.Classes}) on which the truth of a generic sentence is
    constant and whose sizes are falling-factorial polynomials in [k];
    then
    [|Supp^k(q,D)| = Σ {count_poly(c) | class c satisfies q}].

    The polynomials are exact for every [k ≥ max(anchor codes)], so
    {e all} asymptotic quantities of the paper — [µ(Q,D,ā)] (Theorem 1),
    [µ(Q|Σ,D,ā)] (Theorem 3), the values of Propositions 3–4 — reduce to
    {!Arith.Poly.limit_ratio} on these polynomials. *)

type t = {
  anchor_set : int list;  (** [A = C ∪ Const(D)], sorted *)
  nulls : int list;  (** nulls of [D] (and of the sentences) *)
  polys : Arith.Poly.t list;  (** one support polynomial per sentence *)
  total : Arith.Poly.t;  (** [k^m], the size of [V^k(D)] *)
}

val of_sentences :
  ?jobs:int ->
  ?cache:Incomplete.Support.cache ->
  Relational.Instance.t -> Logic.Formula.t list -> t
(** Computes the support polynomials of several sentences over the same
    database in one pass over the valuation classes (sharing the anchor
    set, as required when forming conditional measures). Cost:
    [Bell(m) · Σ_j C(m,j)·P(|A|,j)] class evaluations.

    [?jobs] chunks the class list over pool domains; the per-chunk
    partial polynomial sums have exact coefficients, so the result is
    identical to the sequential one for any [jobs]. [?cache] memoizes
    the completed representatives and verdicts across calls. *)

val of_sentence :
  ?jobs:int ->
  ?cache:Incomplete.Support.cache ->
  Relational.Instance.t -> Logic.Formula.t -> Arith.Poly.t
(** [|Supp^k(φ,D)|] for one sentence. *)

val of_query :
  ?jobs:int ->
  ?cache:Incomplete.Support.cache ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  Arith.Poly.t
(** [|Supp^k(Q,D,ā)|]: the support polynomial of the sentence [Q(ā)]. *)

val mu_k_exact : t -> sentence:int -> k:int -> Arith.Rat.t
(** [µ^k] of the [sentence]-th sentence, read off the polynomials
    (valid for [k ≥ max(anchor codes)]). *)

val limit : Arith.Poly.t -> Arith.Poly.t -> Arith.Rat.t
(** [limit num den = lim_k num(k) / den(k)] for a support count [num]
    over a count [den] of a superset — [|Supp^k|] over [k^m] is µ
    (Theorem 1), [|Supp^k(Σ∧Q)|] over [|Supp^k(Σ)|] is µ(Q|Σ)
    (Theorem 3). 0 when [den] is the zero polynomial (Σ unsatisfiable
    in [D]). *)

val of_predicates :
  ?jobs:int ->
  anchor_set:int list ->
  nulls:int list ->
  Relational.Instance.t ->
  (Incomplete.Valuation.t -> Relational.Instance.t -> bool) list ->
  t
(** Like {!of_sentences} but with opaque predicates receiving each class
    representative [v] and the complete instance [v(D)]. Much faster
    when a property has a direct structural check (e.g. functional
    dependencies via {!Constraints.Dependency.holds}, instead of a
    compiled [∀∀]-sentence).

    {b Caller's obligation}: each predicate must be generic with
    genericity constants inside [anchor_set] — i.e. invariant under
    bijections of [Const] fixing [anchor_set] pointwise — and
    [anchor_set] must contain [Const(D)]; otherwise the class sums are
    meaningless. [nulls] must cover [Null(D)]. *)

(** Symbolic support counting: [|Supp^k(q,D)|] as a polynomial in [k].

    This is the construction at the heart of the proof of Theorem 3:
    partition the valuations of [D] into equivalence classes
    ({!Incomplete.Classes}) on which the truth of a generic sentence is
    constant and whose sizes are falling-factorial polynomials in [k];
    then
    [|Supp^k(q,D)| = Σ {count_poly(c) | class c satisfies q}].

    The pass is a {e census}: it tallies the satisfying classes of each
    sentence by two integers, the class's number [f] of free blocks and
    the position [j] in the sorted anchor set of the largest anchor it
    uses. That tally answers two questions without touching a
    valuation:
    - the polynomial [Σ_f n_f·(k−|A|)(k−|A|−1)⋯(k−|A|−f+1)], exact for
      every [k ≥ max(anchor codes)], to which {e all} asymptotic
      quantities of the paper — [µ(Q,D,ā)] (Theorem 1), [µ(Q|Σ,D,ā)]
      (Theorem 3), the values of Propositions 3–4 — reduce through
      {!Arith.Poly.limit_ratio};
    - the exact count [|Supp^k|] at {e every} [k ≥ 0] ({!supp_count}),
      which is what a µ^k series needs. *)

type t = {
  anchor_set : int list;  (** [A = C ∪ Const(D)], sorted *)
  nulls : int list;  (** nulls of [D] (and of the sentences) *)
  census : int array list;
      (** per sentence, the number of satisfying classes with [f] free
          blocks and largest anchor at 1-based position [j] of
          [anchor_set] ([j = 0]: no anchor), at index
          [f * (|anchor_set| + 1) + j] *)
  polys : Arith.Poly.t list;  (** one support polynomial per sentence *)
  total : Arith.Poly.t;  (** [k^m], the size of [V^k(D)] *)
}

val of_sentences :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Incomplete.Support.cache ->
  Relational.Instance.t -> Logic.Formula.t list -> t
(** Computes the census of several sentences over the same database in
    one pass over the valuation classes (sharing the anchor set, as
    required when forming conditional measures). Cost:
    [Bell(m) · Σ_j C(m,j)·P(|A|,j)] class evaluations.

    [?jobs] chunks the class list over pool domains; per-chunk tallies
    are integers added element-wise, so the result is identical to the
    sequential one for any [jobs]. [?guard] is the cancellation hook of
    {!Exec.Pool.fold_list}, also polled every 256 classes within a
    chunk; when it raises, the pass is abandoned. [?cache] shares the
    kernel database (split + indexes) across calls on the same
    instance. *)

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

val supp_count : t -> sentence:int -> k:int -> Arith.Bigint.t
(** [|Supp^k|] of the [sentence]-th sentence over the valuations of
    [nulls] into [{c1..ck}], exact for every [k ≥ 0]. With
    [a_k = |{a ∈ A : a ≤ k}|] it is the sum, over the census entries
    [n_{f,j}] with [j = 0] or [A_j ≤ k], of
    [n_{f,j}·(k−a_k)(k−a_k−1)⋯(k−a_k−f+1)]: a valuation lies in exactly
    one class, whose anchored blocks need their anchor [≤ k] and whose
    free blocks go injectively into the [k − a_k] codes of [{c1..ck}]
    outside [A]. Below [max(anchor codes)] this differs from the
    polynomial's value, and is the right one.
    @raise Invalid_argument if [k < 0]. *)

val mu_k_exact : t -> sentence:int -> k:int -> Arith.Rat.t
(** [µ^k = |Supp^k| / k^m] of the [sentence]-th sentence, from
    {!supp_count}; 0 on the empty space ([k = 0] with [m > 0]). *)

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

(** The measure of certainty [µ(Q,D,ā)] and the 0–1 law (Theorem 1).

    [µ(Q,D,ā) = lim_k µ^k(Q,D,ā)] always exists and is 0 or 1 for
    generic queries, and equals 1 exactly when naïve evaluation returns
    the tuple. Two independent computations are provided:

    - {!mu}: via Theorem 1 — evaluate naïvely (linear in the cost of
      query evaluation; this is the paper's Corollary 2);
    - {!mu_symbolic}: via the support polynomial — the limit of
      [|Supp^k| / k^m] as a ratio of polynomials.

    Their agreement on every instance {e is} the 0–1 law; the test
    suite and benchmark E2 exercise it. *)

type verdict =
  | Almost_certainly_true  (** [µ = 1] *)
  | Almost_certainly_false  (** [µ = 0] *)

val mu :
  Relational.Instance.t -> Logic.Query.t -> Relational.Tuple.t -> verdict
(** Theorem 1: [µ = 1] iff [ā ∈ Q^naïve(D)]. *)

val mu_boolean : Relational.Instance.t -> Logic.Query.t -> verdict

val mu_symbolic :
  Relational.Instance.t -> Logic.Query.t -> Relational.Tuple.t -> Arith.Rat.t
(** [lim_k |Supp^k(Q,D,ā)| / k^m], from one pass over the valuation
    classes ({!Support_poly.of_sentences}). The 0–1 law asserts this is
    0 or 1 and matches {!mu}. *)

val to_rat : verdict -> Arith.Rat.t
val is_almost_certainly_true : verdict -> bool

val almost_certain_answers :
  Relational.Instance.t -> Logic.Query.t -> Relational.Relation.t
(** The almost-certainly-true answers — by Theorem 1, exactly
    [Q^naïve(D)]. *)

val pp_verdict : Format.formatter -> verdict -> unit

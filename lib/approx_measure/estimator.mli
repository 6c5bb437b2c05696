(** Seeded Monte-Carlo (ε,δ)-estimation of the finite measures [µ^k].

    The exact [µ^k] is read off the class census ([Zeroone.Pipeline])
    at every [k], at a cost set by the number of valuation classes.
    Following the randomized-approximation line of Arenas, Barceló &
    Monet (arXiv 1912.11064, 2011.06330), this module instead draws [n]
    valuations uniformly from [V^k(D)] and reports the hit frequency,
    with [n] sized by Hoeffding's inequality so that

      [P(|estimate − µ^k| > ε) < δ].

    {!mu_k} is the one estimator of [µ^k]: [certainty measure --approx]
    and the served [approx] op both call it, so a request answers the
    same figures through either front end.

    {b Sampling.} A sample is a digit array: position [i] holds the
    code of the [i]-th null, with no list, map or {!Incomplete.Valuation.t}
    built per sample. When [k^m] fits a machine int the sampler draws a
    uniform rank and decodes it mixed-radix, last null least
    significant (the visit order of the exact sweep). Beyond the
    overflow frontier it draws the [m] digits independently — the same
    distribution (a uniform bigint rank {e is} [m] independent uniform
    digits in [\[0,k)]), with no bigint in the loop. Every quantity
    reported is an exact {!Arith.Rat}; floats appear only inside the
    one-off Hoeffding sample-size ceiling.

    {b Class table.} By the proof of Theorem 1, whether a valuation
    satisfies a generic sentence depends only on its class
    ({!Incomplete.Classes}): the equality pattern of the nulls plus the
    anchors of [C ∪ Const(D)] they hit. Each pool chunk keeps a table
    from class key to verdict bitmask (one bit per sentence). A key
    maps an anchor code to its index in the sorted anchor set and any
    other code to the first position holding the same code. Only the
    first sample of a class builds a valuation and runs the chunk's
    compiled kernels; later samples of that class reuse its bits. The
    table belongs to one chunk and dies with it — no state is shared
    between domains or kept across requests — and every sample scores
    the hit the kernel returns for it, so estimates are those of a
    per-sample loop (differential-tested in
    [test/test_approx_measure.ml]). {!Obs.Metrics.valuations_evaluated}
    therefore counts the classes each chunk met, per sentence, not the
    samples.

    {b Determinism.} Sample [i] draws from its own {!Srng.stream}
    keyed by [(seed, i)], so its digits, and with them its class and
    hit, are independent of the chunk partition; chunk subtotals are
    ints summed in chunk order by {!Exec.Pool.fold_range}. A fixed seed
    therefore reproduces every figure bit-for-bit for any [?jobs]
    (1/2/4/…), guarded or not — enforced by [scripts/check-approx.sh]
    in CI.

    {b Stratification.} The optional second pass partitions [V^k(D)]
    by {e null support}: stratum [j] holds the valuations mapping
    exactly [j] of the [m] nulls into the anchor set [C ∪ Const(D)]
    (the constants collisions with which decide most support checks —
    paper §3.3). Stratum weights [C(m,j)·a^j·(k−a)^{m−j} / k^m] are
    exact rationals; allocations are inflated until the weighted
    Hoeffding bound again guarantees (ε,δ), so both passes carry the
    same-width confidence interval.

    Observability: each estimate runs under an [approx.run] trace span
    and bumps {!Obs.Metrics.approx_samples} / [approx_strata]. *)

(** {1 Parameters} *)

val rat_of_string : string -> (Arith.Rat.t, string) result
(** Parse a CLI/wire probability parameter: ["0.05"], [".5"], ["1/20"]
    or ["3"]. Exact — ["0.05"] is [1/20], no float round-trip. *)

val sample_size : eps:Arith.Rat.t -> delta:Arith.Rat.t -> int
(** The Hoeffding bound [⌈ln(2/δ) / (2ε²)⌉] (at least 1): the number
    of samples after which [P(|estimate − µ| > ε) < δ].
    @raise Invalid_argument unless [0 < ε < 1] and [0 < δ < 1]. *)

val strata :
  m:int -> anchors:int -> k:int -> n:int -> (int * Arith.Rat.t * int) list
(** The stratified pass's plan for an [n]-sample budget over [m]
    nulls, with [anchors] anchor codes in [1..k]: one
    [(j, weight, samples)] per positive-weight stratum, in increasing
    [j]. The estimate is [Σ weight · hits/samples]. *)

(** {1 Results} *)

type stratified = {
  s_estimate : Arith.Rat.t;
      (** [Σ_j w_j · hits_j/n_j] — unbiased for any allocation. *)
  s_ci_lo : Arith.Rat.t;
  s_ci_hi : Arith.Rat.t;
  s_samples : int;  (** total across strata; ≥ the first pass's [n]. *)
  s_strata : int;  (** strata of positive weight actually sampled. *)
}

type t = {
  estimate : Arith.Rat.t;  (** [hits/samples], exact. *)
  ci_lo : Arith.Rat.t;  (** [max(0, estimate − ε)]. *)
  ci_hi : Arith.Rat.t;  (** [min(1, estimate + ε)]. *)
  samples : int;
  hits : int;
  seed : int;
  eps : Arith.Rat.t;
  delta : Arith.Rat.t;
  stratified : stratified option;
}

(** {1 Estimators} *)

val mu_k :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Incomplete.Support.cache ->
  ?stratify:bool ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  k:int ->
  eps:Arith.Rat.t ->
  delta:Arith.Rat.t ->
  seed:int ->
  t
(** Estimate [µ^k(Q,D,ā)]. [?jobs]/[?guard]/[?cache] mean what they
    mean on {!Incomplete.Support.mu_k}; [?stratify] (default false)
    adds the null-support second pass.
    @raise Invalid_argument if [k < 1] or ε/δ are out of range. *)

type cond = {
  c_estimate : Arith.Rat.t;
      (** [hits_num/hits_den] — a ratio estimate of [µ^k(Q|Σ)]. *)
  c_ci_lo : Arith.Rat.t;
  c_ci_hi : Arith.Rat.t;
  c_samples : int;
  c_hits_num : int;  (** samples satisfying [Σ ∧ Q(ā)]. *)
  c_hits_den : int;  (** samples satisfying [Σ]. *)
  c_seed : int;
}

val mu_cond_k :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Incomplete.Support.cache ->
  sigma:Logic.Formula.t ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  k:int ->
  eps:Arith.Rat.t ->
  delta:Arith.Rat.t ->
  seed:int ->
  cond
(** Estimate the conditional measure [µ^k(Q|Σ,D,ā)] from one sample
    pass counting both [Σ ∧ Q(ā)] and [Σ]. Each frequency gets an
    (ε, δ/2) Hoeffding guarantee (so the sample is sized with δ/2 and
    the interval [\[(p̂_∧−ε)/(p̂_Σ+ε), (p̂_∧+ε)/(p̂_Σ−ε)\] ∩ \[0,1\]]
    holds with probability [> 1−δ] by the union bound); when [p̂_Σ ≤ ε]
    the upper bound degrades to 1, and with no [Σ]-hit at all the
    estimate is reported as 0 over the full interval. *)

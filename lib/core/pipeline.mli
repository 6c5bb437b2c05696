(** The exact path of [measure] and [conditional], shared by the CLI and
    the query service: one class pass ({!measure}, {!conditional}) takes
    the census of the counted sentences ({!Support_poly}); then, for a
    µ^k series, [ks] validation and the series read off that same
    census at every [k ≥ 0] ({!series}), and the decomposition
    certificate front ends report ({!route}) — a request runs no second
    evaluator, sweeps no valuation space and refuses no [k] for its
    size. Failures are typed {!error}s that each front end renders in
    its own words. *)

type error =
  | Negative_k of int
  | Unknown_null of int
      (** the query names a null that occurs neither in [D] nor in [ā] *)

type target =
  | Answer of Logic.Query.t * Relational.Tuple.t  (** µ^k(Q,D,ā) *)
  | Given of Logic.Formula.t * Logic.Query.t * Relational.Tuple.t
      (** µ^k(Q|Σ,D,ā) for the constraint sentence Σ *)

(** The decomposition verdict of a series. It picks no evaluator and
    refuses nothing — the census answers every [k] — it only decides the
    [decomposition] lines and fields that front ends report. *)
type route =
  | Monolithic  (** the space [V^k] is taken whole *)
  | Factorized of Analysis.Decomp.t list
      (** a certificate with a plan per counted sentence: [Q(ā)]; or
          [Σ ∧ Q(ā)] then [Σ] *)

type measure = {
  supp_poly : Arith.Poly.t;  (** [|Supp^k(Q,D,ā)|] *)
  mu : Arith.Rat.t;  (** its limit over [k^m] (Theorem 1) *)
  verdict : Measure.verdict;  (** the 0–1 law, by naïve evaluation *)
  census : Support_poly.t;  (** the class census of [Q(ā)] *)
}

val measure :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Incomplete.Support.cache ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  (measure, error) result
(** [Unknown_null] first; then the class pass, which [?guard] cancels by
    raising and [?cache] lets reuse a kernel db built for the same
    instance ({!Support_poly.of_sentences}). *)

val conditional :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Incomplete.Support.cache ->
  sigma:Logic.Formula.t ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  (Conditional.report, error) result
(** [Unknown_null] first; then {!Conditional.mu_cond_report}. *)

val route : Relational.Instance.t -> target -> ks:int list -> route
(** {!route_of_certificates} on the certificates at
    [k = max(1, max ks)]. *)

val route_of_certificates : Analysis.Decomp.t list -> route
(** [Factorized] when some counted sentence is [Decomposable] (ANL401)
    and all have plans — for a front end that already holds the
    certificates, such as the CLI's precheck report. *)

val series :
  census:Support_poly.t ->
  Relational.Instance.t ->
  target ->
  ks:int list ->
  ((int * Arith.Rat.t) list, error) result
(** Every [k ≥ 0], then the exact [(k, µ^k)] series:
    [|Supp^k| / k^m] for [Answer], [|Supp^k(Σ∧Q)| / |Supp^k(Σ)|] for
    [Given] (0 when no valuation satisfies Σ), from
    {!Support_poly.supp_count} — exact at every [k ≥ 0] and equal to
    the sweeps of {!Incomplete.Support.mu_k_series} and
    {!Conditional.mu_cond_k}. [census] is the one {!measure} (for
    [Answer]) or {!conditional} (for [Given]) returned for the same
    target.
    @raise Invalid_argument if [census] counts a null outside the
    target's space. *)

(** The exact path of [measure] and [conditional], shared by the CLI and
    the query service: one class pass ({!measure}, {!conditional}) takes
    the census of the counted sentences ({!Support_poly}); then, for a
    µ^k series, [ks] validation and the decomposition gate ({!route}),
    the space preflight, and the series read off that same census
    ({!series}) — a request runs no second evaluator and sweeps no
    valuation space. Failures are typed {!error}s that each front end
    renders in its own words. *)

type error =
  | Negative_k of int
  | Unknown_null of int
      (** the query names a null that occurs neither in [D] nor in [ā] *)
  | Space_too_large of { k : int; nulls : int; size : Arith.Bigint.t }
      (** the monolithic space [k^nulls] exceeds [max_int] *)
  | Component_too_large of {
      k : int;
      component : int;  (** 1-based, in plan order *)
      nulls : int;
      total_nulls : int;  (** of the monolithic space *)
      size : Arith.Bigint.t;
    }  (** even factorized, one component's space exceeds [max_int] *)

type target =
  | Answer of Logic.Query.t * Relational.Tuple.t  (** µ^k(Q,D,ā) *)
  | Given of Logic.Formula.t * Logic.Query.t * Relational.Tuple.t
      (** µ^k(Q|Σ,D,ā) for the constraint sentence Σ *)

(** The decomposition verdict of a series. It no longer picks an
    evaluator — the census answers every route — but it still decides
    the space preflight and the [decomposition] lines and fields that
    front ends report. *)
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

val route :
  ?decomp:bool ->
  Relational.Instance.t ->
  target ->
  ks:int list ->
  (route, error) result
(** Every [k ≥ 0], then the gate at [k = max(1, max ks)]: [Factorized]
    when some counted sentence is [Decomposable] (ANL401) and all have
    plans. [~decomp:false] always answers [Monolithic]. *)

val series :
  census:Support_poly.t ->
  Relational.Instance.t ->
  target ->
  route ->
  ks:int list ->
  ((int * Arith.Rat.t) list, error) result
(** The space preflight of [route], then the exact [(k, µ^k)] series:
    [|Supp^k| / k^m] for [Answer], [|Supp^k(Σ∧Q)| / |Supp^k(Σ)|] for
    [Given] (0 when no valuation satisfies Σ), from
    {!Support_poly.supp_count} — exact at every [k ≥ 0] and equal to
    the sweeps of {!Incomplete.Support.mu_k_series} and
    {!Conditional.mu_cond_k}. [census] is the one {!measure} (for
    [Answer]) or {!conditional} (for [Given]) returned for the same
    target.
    @raise Invalid_argument if [census] counts a null outside the
    target's space. *)

(** The exact path of [measure] and [conditional], shared by the CLI and
    the query service: one support-polynomial class pass ({!measure}),
    then, for a µ^k series, [ks] validation and the decomposition gate
    ({!route}), the space preflight and the sweep ({!series}). Failures
    are typed {!error}s that each front end renders in its own words.
    The factorized and monolithic evaluators agree bit for bit, so the
    route changes what a request costs, never its answer. *)

type error =
  | Negative_k of int
  | Space_too_large of { k : int; nulls : int; size : Arith.Bigint.t }
      (** the monolithic space [k^nulls] exceeds [max_int] *)
  | Component_too_large of {
      k : int;
      component : int;  (** 1-based, in plan order *)
      nulls : int;
      total_nulls : int;  (** of the monolithic sweep set *)
      size : Arith.Bigint.t;
    }  (** even factorized, one component's space exceeds [max_int] *)

type target =
  | Answer of Logic.Query.t * Relational.Tuple.t  (** µ^k(Q,D,ā) *)
  | Given of Logic.Formula.t * Logic.Query.t * Relational.Tuple.t
      (** µ^k(Q|Σ,D,ā) for the constraint sentence Σ *)

type route =
  | Monolithic
      (** one sweep of [V^k]; for [Given], the fused pass of
          {!Conditional.mu_cond_k}, which checks [Q(ā)] only where Σ
          holds *)
  | Factorized of Analysis.Decomp.t list
      (** a certificate with a plan per counted sentence: [Q(ā)]; or
          [Σ ∧ Q(ā)] then [Σ] *)

type measure = {
  supp_poly : Arith.Poly.t;  (** [|Supp^k(Q,D,ā)|] *)
  mu : Arith.Rat.t;  (** its limit over [k^m] (Theorem 1) *)
  verdict : Measure.verdict;  (** the 0–1 law, by naïve evaluation *)
}

val measure :
  ?jobs:int ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  measure

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
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:Incomplete.Support.cache ->
  Relational.Instance.t ->
  target ->
  route ->
  ks:int list ->
  ((int * Arith.Rat.t) list, error) result
(** The space preflight of [route], then the exact [(k, µ^k)] series. *)

(** Decomposition certificates: the machine-checkable output of the
    null-dependency analysis.

    [analyze] builds the interaction graph ({!Depgraph}) of a support
    sentence over a database, proves (or refuses to prove) that the
    sentence factorizes over the graph's connected components, and
    packages the result as a certificate: per-component null sets,
    exact [Bigint] space sizes, and stable diagnostics —

    - [ANL401] (hint): decomposable, with the component sizes and the
      collapsed cost [Σᵢ k^{mᵢ}];
    - [ANL402] (hint): no decomposition — a single component spans
      every null, or a conjunct fails the {!Incomplete.Factor.dsafe}
      guardedness check;
    - [ANL403] (warning): a component exceeds the machine-integer
      frontier even after decomposition — no sweep enumerates it (the
      class census still counts it exactly).

    A [Decomposable] or [Trivial] certificate converts to the
    {!Incomplete.Factor.plan} the factorized evaluators run on; the
    planner's side conditions (guardedness, nonempty quantified
    domains, sweep-set coverage) are exactly what makes that plan
    bit-identical to the monolithic path. *)

type verdict =
  | Decomposable  (** ≥ 2 independent parts — factorization pays *)
  | Trivial  (** sound but a single component spans all nulls *)
  | Indecomposable of string  (** reason; no sound plan *)

type t = {
  verdict : verdict;
  components : Incomplete.Factor.component list;
  free_nulls : int list;
  all_nulls : int list;
  k : int;  (** sampled domain size the space bounds are quoted at *)
  spaces : Arith.Bigint.t list;  (** per component, [k^mᵢ], exact *)
  machines : int option list;
      (** per component, [k^mᵢ] as machine int; [None] = over the
          machine-integer frontier *)
}

val analyze :
  ?k:int ->
  ?extra_nulls:int list ->
  Relational.Instance.t ->
  Logic.Formula.t ->
  t
(** [k] defaults to [Instance.max_constant + 16] (as {!Cost.analyse});
    [extra_nulls] adds sweep nulls not occurring in the database (a
    candidate tuple's nulls). Emits the [analysis.decomp] trace span
    and bumps the [decomp_*] metrics. *)

val plan : t -> Incomplete.Factor.plan option
(** [None] exactly when the verdict is [Indecomposable]. *)

val parts : t -> int
val verdict_string : verdict -> string
val sizes_string : t -> string
(** ["8^3 + 8^3"] — the collapsed cost, human form. *)

val diagnostics : t -> Diag.t list
val to_json : t -> string

(** Decomposition certificates: the machine-checkable output of the
    null-dependency analysis.

    [analyze] builds the interaction graph ({!Depgraph}) of a support
    sentence over a database, proves (or refuses to prove) that the
    sentence factorizes over the graph's connected components, and
    packages the result as a certificate: per-component null sets and
    stable diagnostics —

    - [ANL401] (hint): decomposable, with the component sizes;
    - [ANL402] (hint): no decomposition — a single component spans
      every null, or a conjunct fails the {!Incomplete.Factor.dsafe}
      guardedness check.

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
  k : int;  (** the domain size {!sizes_string} quotes *)
}

val analyze :
  ?k:int ->
  ?extra_nulls:int list ->
  Relational.Instance.t ->
  Logic.Formula.t ->
  t
(** [k] defaults to [Instance.constant_count + 16], a function of the
    database's content alone; [extra_nulls] adds sweep nulls not occurring in the database (a
    candidate tuple's nulls). Emits the [analysis.decomp] trace span
    and bumps the [decomp_*] metrics. *)

val plan : t -> Incomplete.Factor.plan option
(** [None] exactly when the verdict is [Indecomposable]. *)

val parts : t -> int
val verdict_string : verdict -> string
val sizes_string : t -> string
(** ["8^3 + 8^3"] — each part's valuation space at [k], free block
    last. *)

val diagnostics : t -> Diag.t list
val to_json : t -> string

(** Cost analysis of the brute-force valuation sweeps.

    The exhaustive computations ([µ^k], certain/possible answers by
    class enumeration, generic satisfiability) visit up to [k^m]
    valuations for [m] nulls. This module bounds that space through
    {!Incomplete.Enumerate.space_size}/{!Incomplete.Enumerate.count}
    and turns the bound into diagnostics: a blow-up warning when [k^m]
    overflows machine integers (no sweep can enumerate it; the class
    census that [measure] and [conditional] run still answers exactly)
    and a parallelism hint when the space is large but tractable. *)

type t = {
  nulls : int;  (** [m], counting nulls of the database and the tuple *)
  k : int;  (** the sampled domain size for the concrete bound *)
  space : Arith.Bigint.t;  (** [k^m], exact *)
  machine : int option;  (** [k^m] as a machine int, [None] on overflow *)
}

val big_space_threshold : int
(** Above this many valuations the ANL202 parallelism hint fires. *)

val analyse :
  ?k:int -> ?tuple:Relational.Tuple.t -> Relational.Instance.t -> t
(** [k] defaults to [Instance.max_constant + 16], the largest domain of
    the CLI's default [µ^k] series. *)

val diagnostics : ?certificate:Decomp.t -> t -> Diag.t list
(** ANL201 (overflow) or ANL202 (large but machine-representable);
    empty when the space is small. With a decomposition certificate
    the bounds are post-decomposition: the largest component's space
    replaces the monolithic [k^m], so ANL201 only fires when a
    component is genuinely over the frontier. *)

val to_json : t -> string

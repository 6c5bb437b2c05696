(** The aggregate static-analysis report: one call runs every check and
    bundles its findings, dispatch consequences and diagnostics, with text
    and JSON renderers. This is what the [analyze] CLI subcommand and
    the pre-evaluation gate of [certain]/[measure]/[conditional]
    consume. *)

type t = {
  query : Logic.Query.t;
  fragment : Logic.Fragment.fragment;
  safe : bool;
  generic : bool;
  cclass : Classify.constraint_class option;  (** when constraints given *)
  decomp : Decomp.t option;
      (** decomposition certificate — when a database is given and the
          support sentence is closed (a candidate tuple, or arity 0) *)
  wacyclic : Constraints.Wacyclic.t option;
      (** chase-termination certificate — when the constraint set has
          tuple-generating dependencies *)
  diags : Diag.t list;  (** checks: errors and warnings *)
  hints : Diag.t list;  (** dispatch consequences and the certificate's *)
}

val analyze :
  ?inst:Relational.Instance.t ->
  ?deps:Constraints.Dependency.t list ->
  ?tuple:Relational.Tuple.t ->
  ?k:int ->
  Relational.Schema.t ->
  Logic.Query.t ->
  t
(** [k] is the domain size the decomposition certificate quotes its
    part sizes at ({!Decomp.analyze}'s default when absent). *)

val has_errors : t -> bool

val all_diags : t -> Diag.t list
(** Checks and hints together, sorted. *)

val to_text : t -> string
(** The human-facing report (fragment, check results, decomposition,
    diagnostics, dispatch). *)

val to_json : t -> string

(** The null interaction graph of a support sentence.

    Nulls are linked when a conjunct's verdict may read both: they
    co-occur in an atom or equality of the conjunct, or they occur in
    null tuples of a relation the conjunct mentions (membership probes
    the valuation's image of those tuples), or they are bridged by the
    conjunct's shared quantified variables. After {!Incomplete.Factor.normalize}
    every such link lives inside a single top-level conjunct, so the
    graph is the per-conjunct cliques over the conjunct dependency
    sets, and connected components are computed by union-find.

    [Decomp] turns the components into a certificate and an evaluation
    plan; this module only builds the graph. *)

type node = {
  n_sentence : Logic.Formula.t;  (** one top-level conjunct *)
  n_relations : string list;
  n_nulls : int list;
      (** dependency set: conjunct nulls + null-tuple nulls of its
          relations, sorted *)
  n_dsafe : bool;  (** {!Incomplete.Factor.dsafe} verdict *)
}

type t = {
  nodes : node list;
  g_all_nulls : int list;  (** the monolithic sweep set *)
}

val build :
  all_nulls:int list -> Incomplete.Split.t -> Logic.Formula.t -> t
(** [all_nulls] is the sweep set of the monolithic engine
    ([Support.all_nulls]); the split supplies the per-relation null
    tuples of the database the sentence is evaluated on. *)

val first_unsafe : t -> node option

val components : t -> Incomplete.Factor.component list
(** Connected components in order of first conjunct; ground conjuncts
    (empty dependency set) merge into one zero-null component. *)

val free_nulls : t -> Incomplete.Factor.component list -> int list
(** Swept nulls no component touches. *)

(** The support orderings [⊴] and [◁] on candidate answers (§5).

    [ā ⊴_{Q,D} b̄] iff [Supp(Q,D,ā) ⊆ Supp(Q,D,b̄)] — [b̄] is at least as
    well supported; [ā ◁ b̄] is the strict version. Theorem 6: for FO
    queries, deciding [⊴] is coNP-complete and [◁] is DP-complete in
    data complexity; the implementations here are exact and exponential
    in the number of nulls. *)

val leq :
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  Relational.Tuple.t ->
  bool
(** [ā ⊴ b̄], i.e. [¬Sep(ā,b̄)]. *)

val lt :
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  Relational.Tuple.t ->
  bool
(** [ā ◁ b̄], i.e. [¬Sep(ā,b̄) ∧ Sep(b̄,ā)]. *)

val equiv :
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  Relational.Tuple.t ->
  bool
(** Equal supports. *)

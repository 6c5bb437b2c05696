(** The alternative, instance-counting measure [m^k] (paper §3.3).

    Instead of counting valuations, [m^k] counts the distinct complete
    databases they produce:
    [m^k(Q,D,ā) = |{v(D) | v ∈ Supp^k(Q,D,ā)}| / |{v(D) | v ∈ V^k(D)}|].
    These numerators and denominators genuinely differ from the
    valuation counts (different valuations may produce the same
    instance), yet Theorem 2 shows the limits coincide:
    [m(Q,D,ā) = µ(Q,D,ā)]. This module computes [m^k] by brute-force
    enumeration so the theorem can be checked empirically (experiment
    E3). *)

val m_k :
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  k:int ->
  Arith.Rat.t
(** [m^k(Q,D,ā)]. Enumerates the [k^m] valuations; intended for small
    instances. By convention 0 when the semantics is empty. *)

val m_k_boolean :
  Relational.Instance.t -> Logic.Query.t -> k:int -> Arith.Rat.t

val semantics_size : Relational.Instance.t -> k:int -> int
(** [|[[D]]^k|]: the number of distinct complete databases representable
    with the first [k] constants. *)

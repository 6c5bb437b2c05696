(** Valuation equivalence classes.

    The central combinatorial device, taken from the proofs of
    Theorems 1, 3 and 8: fix the {e anchor set} [A = C ∪ Const(D)]
    (genericity constants of the query/constraints plus the constants of
    the database). Every valuation [v] determines
    - the partition [ρ] of [Null(D)] given by the kernel of [v]
      (nulls in the same block receive the same constant);
    - an injective partial map [σ] from the blocks of [ρ] into [A]
      (the blocks whose value lands in the anchor set);
    - an injective map of the remaining "free" blocks to constants
      outside [A].

    Two valuations with the same [(ρ, σ)] are related by a bijection of
    [Const] fixing [A] pointwise, so by [C]-genericity the truth of
    [v(ā) ∈ Q(v(D))] depends only on the class. The number of
    valuations of a class with range in [{c1..ck}] is the falling
    factorial [(k−|A|)(k−|A|−1)⋯] with one factor per free block — a
    polynomial in [k]. Summing class polynomials over the classes whose
    representative satisfies the property yields [|Supp^k(q,D)|] as a
    polynomial, which is how Theorem 3 and all symbolic measures are
    computed. *)

type t = {
  partition : int list list;  (** blocks of null ids *)
  anchors : int option list;  (** per block: [Some code] in [A], or free *)
}

val enumerate : anchor_set:int list -> nulls:int list -> t list
(** All classes: set partitions crossed with injective partial
    anchor maps. Their number depends only on [|A|] and [m]. *)

val count : anchor_set:int list -> nulls:int list -> Arith.Bigint.t
(** [List.length (enumerate ~anchor_set ~nulls)] in closed form,
    without enumerating: [Σ_j S(m,j) · Σ_i C(j,i) · P(|A|,i)] for
    [m] nulls, where [S] counts the partitions into [j] blocks, [C]
    the choices of the [i] anchored blocks and [P] (falling factorial)
    their injections into [A]. *)

val free_block_count : t -> int

val representative : anchor_set:int list -> t -> Valuation.t
(** A canonical member: free blocks receive distinct constants beyond
    [max(anchor_set)] (and beyond any code in the class's anchors). *)

val count_poly : anchor_set:int list -> t -> Arith.Poly.t
(** The polynomial in [k] counting the members with range ⊆ [{c1..ck}]
    (valid for [k ≥ max(anchor_set)]). *)

val classify : anchor_set:int list -> nulls:int list -> Valuation.t -> t
(** The class of a given valuation.
    @raise Invalid_argument if the valuation misses a null. *)

val same_class : t -> t -> bool

val total_poly : anchor_set:int list -> nulls:int list -> Arith.Poly.t
(** Sum of all class polynomials; must equal [k^m] — this identity is a
    property test of the whole machinery. *)

val pp : Format.formatter -> t -> unit

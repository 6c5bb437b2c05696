(** Enumeration of the finite valuation spaces [V^k(D)].

    [V^k(D)] is the set of valuations whose range lies in the first [k]
    constants [{c1,…,ck}] (represented by codes [1..k]); it has [k^m]
    elements for [m] nulls. These enumerations drive the brute-force
    computation of [µ^k] that cross-checks the symbolic machinery. *)

val fold_valuations :
  nulls:int list -> k:int -> ('a -> Valuation.t -> 'a) -> 'a -> 'a
(** Folds over all of [V^k(D)] without materializing the list. *)

val all_valuations : nulls:int list -> k:int -> Valuation.t list
(** Materialized version; beware the [k^m] blow-up. *)

val count : nulls:int list -> k:int -> Arith.Bigint.t
(** [k^m]. *)

val space_size : nulls:int list -> k:int -> int option
(** [k^m] as a machine integer, or [None] when it overflows (in which
    case rank-based chunking — and any exhaustive enumeration — is
    hopeless anyway). *)

val space_size_exn : nulls:int list -> k:int -> int
(** Same, but raises {!Arith.Bigint.Overflow} carrying the exact
    [k^m], so front ends can tell the user how large the space they
    asked for actually is. *)

val valuation_of_rank : nulls:int list -> k:int -> int -> Valuation.t
(** The [r]-th valuation of [V^k(D)] in the visit order of
    {!fold_valuations} (the last null of [nulls] is the least
    significant mixed-radix digit). Ranks index [\[0, k^m)]. The sweeps
    and the sampler decode ranks into digit arrays instead; this
    [Valuation.t] form is the oracle their tests check against.
    @raise Invalid_argument if [k < 1] or the rank is out of range. *)

(** {1 Odometer enumeration}

    The sweep hot path. An odometer is an in-place mixed-radix digit
    array over [V^k(D)]: seeded once per valuation-range chunk by
    decoding the chunk's first rank, then advanced by an O(1)-amortized
    {!step} — no list, [Valuation.t] or any other allocation per
    valuation. Digit position [i] holds the code ([1..k]) of the [i]-th
    null of [nulls]; the last null is the least significant digit, so
    step order coincides with the rank order of {!valuation_of_rank}
    and the visit order of {!fold_valuations}. *)

type odometer

val odometer : nulls:int list -> k:int -> rank:int -> odometer
(** Seed an odometer at the given rank of [\[0, k^m)].
    @raise Invalid_argument if [k < 1] over a nonempty [nulls] (or
    [k < 0]), or if the rank is out of range. *)

val digits : odometer -> int array
(** The live digit array — mutated in place by {!step}; callers must
    read it (e.g. via {!Kernel.holds_digits}) before stepping again and
    must not retain or modify it. *)

val step : odometer -> unit
(** Advance to the next valuation in rank order. The all-[k] digit
    vector wraps to all-[1] (rank [k^m − 1] → rank [0]). *)

val valuation : odometer -> Valuation.t
(** Materialize the current position as a {!Valuation.t} — for
    boundary/debug use; the sweep loops stay on {!digits}. *)

val fold_digits_range :
  nulls:int list -> k:int -> lo:int -> hi:int -> ('a -> int array -> 'a) -> 'a -> 'a
(** Folds [f] over the digit vectors of ranks [\[lo, hi)], in rank
    order, seeding one odometer and stepping it in place. [f] receives
    the {e shared} live digit array and must not retain it across
    calls. *)

val fold_valuations_range :
  nulls:int list -> k:int -> lo:int -> hi:int -> ('a -> Valuation.t -> 'a) -> 'a -> 'a
(** Folds over the valuations of ranks [\[lo, hi)], in rank order. The
    full-range call [~lo:0 ~hi:(k^m)] visits exactly the valuations of
    {!fold_valuations}, in the same order. Materializes a
    [Valuation.t] per rank — sweeps that can consume raw digit vectors
    should use {!fold_digits_range} instead. *)

val fold_bijective :
  nulls:int list -> avoid:int list -> k:int -> ('a -> Valuation.t -> 'a) -> 'a -> 'a
(** Folds over the [C]-bijective valuations with range in [{c1..ck}]:
    injective, range disjoint from [avoid]. *)

val count_bijective : nulls:int list -> avoid:int list -> k:int -> Arith.Bigint.t
(** Number of the above: the falling factorial [(k−a)·…] where [a] is
    the number of codes of [avoid] that are [≤ k]. *)

val fresh_bijective : nulls:int list -> avoid:int list -> Valuation.t
(** One canonical [C]-bijective valuation assigning to each null a
    distinct constant beyond [max(avoid)] — the witness used by naïve
    evaluation (Definition 3). *)

(** Seeded, splittable pseudo-random streams for the Monte-Carlo
    estimator — a vendored splitmix64.

    [Stdlib.Random] is deliberately not used: its algorithm is an
    implementation detail of the compiler version, while the estimates
    printed by [certainty measure --approx] are cram-tested and gated
    byte-for-byte in CI, so the generator itself must be part of this
    code base.

    The determinism contract of the estimator rests on {!stream}: the
    draw sequence of sample [i] is a pure function of [(seed, i)] —
    never of which pool chunk the sample landed in — so any partition
    of the sample range produces bit-identical totals. *)

type t
(** A mutable generator state. Single-threaded, like {!Kernel.t}:
    parallel folds derive one stream per sample, never share one. *)

val of_seed : int -> t
(** A stream keyed by [seed] alone. *)

val stream : seed:int -> index:int -> t
(** The stream of sample [index] under [seed]. Distinct indices give
    decorrelated streams (each initial state is a splitmix64 hash of
    the pair). *)

val next62 : t -> int
(** The top 62 bits of the next 64-bit draw, as a nonnegative int.
    Draws allocate nothing. *)

val uniform : t -> int -> int
(** [uniform t bound] draws uniformly from [\[0, bound)], unbiased, by
    rejection over {!next62} (so [bound] may be any
    positive OCaml int, including a full [max_int]-sized valuation
    space). [uniform t 1] is [0] and consumes no draw.
    @raise Invalid_argument if [bound < 1]. *)

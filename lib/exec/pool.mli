(** Deterministic fork-join parallelism over a persistent pool of
    OCaml 5 domains.

    The measures of the paper ([µ^k], [µ(Q|Σ,D)], the support
    polynomials) are all folds over large finite spaces — [k^m]
    valuations or the equivalence classes of §3.3. This module splits
    such a fold into contiguous chunks, runs the chunks on pool
    domains, and combines the partial results {e in chunk order}.

    Domains are spawned {e once} (lazily, sized to
    [recommended_domain_count - 1] so workers plus the calling domain
    never oversubscribe the machine) and fed chunk closures over a
    work queue; a fold never pays [Domain.spawn]. While its chunks run
    elsewhere the calling domain helps, draining the queue, and only
    sleeps when every outstanding chunk is already running — so folds
    may nest and pools may be shared without deadlock. On a
    single-core machine the shared pool has zero workers and every
    fold runs on the caller: requesting [~jobs:4] there costs nothing
    over the sequential fold.

    Determinism: the partition of [\[0,n)] is a pure function of
    [(n, jobs)] — independent of pool size or scheduling — and the
    partial results are always combined left-to-right in increasing
    chunk order, so [fold_range] is reproducible run to run for any
    [combine]. Moreover every accumulator used in this code base
    ({!Arith.Bigint} addition, {!Arith.Rat} addition, element-wise
    addition of [int] tallies, relation union) is exact and
    associative-commutative, so the result is {e bit-identical} to the
    sequential fold regardless of the number of domains — property-tested in
    [test/test_parallel.ml] and re-checked by [bench --parallel].

    Fallback: when [jobs <= 1], when the range is smaller than
    [min_work], or when fewer than two items remain, the fold runs
    sequentially on the calling domain without touching the pool. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [?jobs] defaults to. *)

(** {1 Pools} *)

type t
(** A persistent set of worker domains sharing one work queue. *)

val create : ?workers:int -> unit -> t
(** Spawn a pool. [workers] defaults to {!default_workers}; [0] is
    valid (folds then run entirely on the calling domain). *)

val default_workers : unit -> int
(** [recommended_domain_count - 1]: the pool size that, together with
    the calling domain, matches the machine. *)

val worker_count : t -> int

val shutdown : t -> unit
(** Stop and join the workers. Idempotent. Folds on the shared pool
    ([?pool] omitted) never need this — it is shut down at exit. *)

val is_stopped : t -> bool
(** Whether {!shutdown} has been initiated on this pool. *)

val with_pool : ?workers:int -> (t -> 'a) -> 'a
(** [with_pool f] spawns a pool, runs [f pool], and shuts the pool
    down whether [f] returns or raises — spawned domains can never
    leak past an exceptional exit. Prefer this over a bare {!create}
    wherever the pool's lifetime is a scope. *)

(** {1 Folds} *)

val fold_range :
  ?pool:t ->
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?min_work:int ->
  n:int ->
  chunk:(int -> int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  'a ->
  'a
(** [fold_range ~jobs ~min_work ~n ~chunk ~combine init] evaluates
    [chunk lo hi] over a partition of [\[0,n)] into at most [jobs]
    contiguous half-open intervals (sizes differing by at most one) and
    folds the results with [combine], seeded with [init], in interval
    order. With one interval this is [combine init (chunk 0 n)].

    [jobs] controls the {e partition}; how many chunks actually run
    concurrently is bounded by the pool's workers + 1. [jobs] defaults
    to {!default_jobs}; values [< 1] are treated as 1. [min_work]
    (default [1024]) is the smallest [n] worth chunking; below it the
    fold is sequential. [pool] defaults to the lazily-created shared
    pool.

    If any chunk raises, every chunk still runs to completion and the
    first exception (in chunk order) is re-raised.

    [guard], when given, is called on the executing domain before
    {e every} chunk (and once before the sequential fallback); if it
    raises, that chunk is treated as failed and the remaining chunks
    fail fast at their own guard call. This is the cancellation hook
    behind request deadlines: a guard that raises once its deadline
    has passed aborts the fold at the next chunk boundary, with the
    partial work discarded. A guard also {e refines the partition} —
    chunks are capped at [2^16] items (at most 8192 chunks) so the
    guard runs at a bounded interval even over huge ranges. All
    accumulators used in this code base are exact, so guarded folds
    remain bit-identical to unguarded ones.

    [n = 0] returns [init] immediately without touching the pool, so
    an empty fold is safe even against a pool that has been shut down.
    @raise Invalid_argument if [n < 0]. *)

val fold_list :
  ?pool:t ->
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?min_work:int ->
  chunk:('b list -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  'a ->
  'b list ->
  'a
(** Same, over contiguous sublists of a list. [chunk] receives each
    sublist in original order; partials are combined in list order. *)

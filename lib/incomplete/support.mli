(** Supports of query answers and the finite measures [µ^k].

    [Supp(Q,D,ā)] is the set of valuations [v] with [v(ā) ∈ Q(v(D))];
    [µ^k(Q,D,ā) = |Supp^k(Q,D,ā)| / |V^k(D)|] is the probability that a
    valuation drawn uniformly from [V^k(D)] witnesses [ā] (paper §3.2).
    This module computes these quantities by brute-force enumeration —
    the ground truth against which the symbolic machinery
    ([Zeroone.Support_poly]) is verified.

    The per-valuation check runs on the compiled kernel ({!Kernel}):
    the instance is split and indexed once ({!kernel_db}), the sentence
    compiled once per pool chunk (a kernel's scratch belongs to the
    chunk that runs it), and each valuation only delta-refreshes the
    null images the previous one did not share ([Kernel.holds_digits] fed by an
    [Enumerate.odometer]). [sentence_in_support_naive] keeps the
    original complete-then-interpret path as the executable reference;
    the two agree on every input (property-tested, and re-verified
    bit-for-bit by [bench --parallel]).

    The enumeration is the [FP^#P]-hard counting workload of the
    measures, so every counting entry point takes two optional knobs,
    off by default:

    - [?jobs] — split the [k^m]-valuation space into contiguous rank
      chunks folded on the persistent domain pool ({!Exec.Pool}).
      Defaults to {!Exec.Pool.default_jobs}; chunk subcounts are summed
      exactly in chunk order, so the result is bit-identical to the
      sequential count for any [jobs].
    - [?cache] — a {!cache} sharing the kernel database (split +
      indexes) across calls on the same instance. It holds no
      verdicts: the class path evaluates each representative once per
      request and a sweep visits each valuation once, so a verdict
      lookup would cost more than the kernel run it replaces. The
      approximate sampler ([Approx_measure.Estimator]) does repeat
      verdicts, and keeps them in a table per pool chunk keyed by
      valuation class, which takes no lock and dies with the chunk. A
      cache is tied to the instance it was first used with — never
      reuse it across databases.

    A third knob, [?guard], is the cancellation hook of the query
    service: it is invoked at every pool-chunk boundary
    ({!Exec.Pool.fold_range}'s [?guard]; the class passes of
    [Zeroone.Support_poly] also poll it every 256 classes) and aborts
    the count by raising — the mechanism behind per-request
    deadlines. *)

val anchor_set : Relational.Instance.t -> Logic.Query.t -> int list
(** [C ∪ Const(D)]: the query's genericity constants plus the
    database's constants, sorted. *)

val anchor_set_sentences :
  Relational.Instance.t -> Logic.Formula.t list -> int list
(** Anchor set for a family of sentences evaluated on the same
    database (e.g. [Σ ∧ Q(ā)] and [Σ]). *)

val anchor_set_sentences_split : Split.t -> Logic.Formula.t list -> int list
(** Same anchor set, served from the constants hoisted when the split
    was built — for per-candidate loops that would otherwise re-fold
    the instance each time. *)

(** {1 Class space} *)

type space = {
  anchor_set : int list;  (** [C ∪ Const(D)], sorted *)
  nulls : int list;  (** the nulls of [D] and of the sentences, sorted *)
  classes : Classes.t list;  (** {!Classes.enumerate} over both *)
}

val space : Kernel.db -> Logic.Formula.t list -> space
(** The valuation classes that decide sentences evaluated on one
    database: the anchor set of the database and the sentences, every
    null either mentions, and the classes over them. Every class pass
    (certain and possible answers, the support census, separation
    witnesses) draws its classes here. *)

(** {1 Kernel-db cache} *)

type cache
(** Memoizes, behind a mutex (safe to share across pool domains), the
    kernel databases (split + indexes) of the last few instance
    generations. Keyed by the monotone
    {!Relational.Instance.generation} stamp, so a cache can follow a
    {e session} across single-tuple updates: a mutated instance is
    never served a stale db. *)

val create_cache : unit -> cache

val kernel_db : ?cache:cache -> Relational.Instance.t -> Kernel.db
(** The split + indexed form of the instance. It is built at most once
    per instance value and memoized on it ({!Relational.Instance.memo}),
    so a call without a cache reuses it too. With [?cache] the lookup
    goes through the cache first (its hit and miss counters count
    these lookups). *)

val install_kernel_db : cache -> Kernel.db -> unit
(** Seed the memo with a db under its own generation stamp, and
    memoize it on the instance it presents. The
    session mutation path (lib/server) applies a single-tuple delta to
    the kernel db ({!Kernel.db_insert}/[db_delete]) and installs the
    result, so the next query for that instance generation reuses it
    instead of rebuilding from scratch. *)

(** {1 Support checks} *)

val in_support :
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  Valuation.t ->
  bool
(** [v ∈ Supp(Q,D,ā)], i.e. [v(ā) ∈ Q(v(D))].
    @raise Invalid_argument on arity mismatch or if the valuation
    misses a null of [D] or [ā]. *)

val sentence_in_support :
  Relational.Instance.t -> Logic.Formula.t -> Valuation.t -> bool
(** [v(D) ⊨ φ[v]] for a sentence [φ] (whose nulls, if any, are replaced
    through [v] as well), by the original uncompiled path: materialize
    [v(D)], rewrite [φ[v]], interpret with {!Logic.Eval}. One-shot
    entry point; loops should hoist a {!checker} instead. *)

val sentence_in_support_naive :
  Relational.Instance.t -> Logic.Formula.t -> Valuation.t -> bool
(** The same function as {!sentence_in_support}; the name marks the
    call sites that use it as the executable reference the kernel is
    verified against (tests, bench identity checks). *)

(** {1 Hoisted checkers}

    One compiled kernel per (sentence, loop) instead of one completed
    instance per check. A checker wraps a single-threaded
    {!Kernel.t} — parallel folds create one checker per chunk from the
    shared {!Kernel.db}. *)

type checker

val checker : Kernel.db -> Logic.Formula.t -> checker
(** Compile a sentence for repeated support checks.
    @raise Invalid_argument on open formulas. *)

val check : checker -> Valuation.t -> bool
(** [check (checker db φ) v = sentence_in_support (base db) φ v]. *)

(** {1 Counting} *)

val count_satisfying :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  db:Kernel.db ->
  sentence:Logic.Formula.t ->
  nulls:int list ->
  k:int ->
  unit ->
  Arith.Bigint.t
(** The raw sweep: how many of the [k^|nulls|] valuations of [nulls]
    satisfy [sentence] on [db]. The building block of {!supp_count}
    and of the per-component counts of {!supp_count_plan}; exposed as
    the raw count those are tested against.

    This is the odometer hot path: each pool chunk compiles its own
    kernel, steps an in-place digit array through its rank range and
    feeds it to [Kernel.holds_digits].
    @raise Arith.Bigint.Overflow if [k^|nulls|] exceeds [max_int]. *)

val supp_count :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:cache ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  k:int ->
  Arith.Bigint.t
(** [|Supp^k(Q,D,ā)|] by enumeration of all [k^m] valuations. *)

val mu_k :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:cache ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  k:int ->
  Arith.Rat.t
(** [µ^k(Q,D,ā)]. By convention 1 when [D] has no nulls and the tuple
    is an answer, 0 when it is not ([V^k(D)] is the singleton empty
    valuation); 0 when [k = 0] and [D] has nulls ([V^0(D)] is empty). *)

val mu_k_boolean :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:cache ->
  Relational.Instance.t -> Logic.Query.t -> k:int -> Arith.Rat.t
(** [µ^k(Q,D)] for Boolean [Q]. *)

val mu_k_series :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:cache ->
  Relational.Instance.t ->
  Logic.Query.t ->
  Relational.Tuple.t ->
  ks:int list ->
  (int * Arith.Rat.t) list
(** The convergence series [(k, µ^k)] — the paper's limit object,
    sampled: {!mu_k_series_plan} on the one-component plan, so the
    kernel db is looked up once for the whole series. *)

(** {1 Factorized counting}

    The decomposition-aware path: a {!Factor.plan} (built and proven
    sound by the planner in [Analysis.Decomp]) names independent
    components of the support sentence; each is counted on its own
    kernel restriction and the exact [Bigint.t] counts are multiplied.
    The monolithic entry points above are the one-component case
    ({!Factor.whole}), so every [µ^k] here is [|Supp^k| / k^m] on the
    same quotient — bit-identical to the monolithic sweep on every
    sound plan, [k = 0] included (property-tested and enforced by the
    bench identity gate). A one-component plan whose restriction would
    drop no tuple runs on {!kernel_db}[ ?cache inst] rather than a
    rebuilt copy. *)

val supp_count_plan :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:cache ->
  Relational.Instance.t ->
  Factor.plan ->
  k:int ->
  Arith.Bigint.t

val mu_k_plan :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:cache ->
  Relational.Instance.t ->
  Factor.plan ->
  k:int ->
  Arith.Rat.t

val mu_k_series_plan :
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  ?cache:cache ->
  Relational.Instance.t ->
  Factor.plan ->
  ks:int list ->
  (int * Arith.Rat.t) list
(** Like {!mu_k_series} but sweeping [Σᵢ k^{mᵢ}] valuations per [k]
    instead of [k^m]; component kernels are compiled once. *)


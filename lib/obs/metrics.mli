(** Process-wide observability counters and histograms.

    Every hot path of the engine increments one of the counters below
    (valuations checked, kernel refreshes, cache traffic, pool
    scheduling, chase steps). The counters are [Atomic.t] cells, so
    they are safe to bump from any {!Exec.Pool} worker domain without
    taking a lock, and reading them never perturbs the run.

    Metrics are {e disabled by default}: every [incr]/[add]/
    [observe_span] first reads one atomic flag and returns — a load
    and a predictable branch, no allocation — so instrumented code
    costs nothing measurable when observability is off. Enabling is
    global (there is one process-wide registry, shared by all domains,
    matching the process-wide worker pool). *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every counter and drop every histogram. *)

(** {1 Counters} *)

type t
(** A named monotone counter. *)

val name : t -> string

val value : t -> int
(** Current value; readable whether or not metrics are enabled. *)

val incr : t -> unit
(** No-op when disabled. *)

val add : t -> int -> unit
(** No-op when disabled. *)

val valuations_evaluated : t
(** Support checks performed: one per valuation (or class
    representative) whose verdict was requested. *)

val kernel_refreshes : t
(** {!Incomplete.Kernel.holds} runs: per-valuation refreshes of the
    compiled kernel's null images / domain suffix / null tables.
    [valuations_evaluated - kernel_refreshes] is the number of checks
    that took the naive path. *)

val short_circuits : t
(** Candidate class scans ([Incomplete.Certain]) that stopped before
    exhausting the class list, once every verdict they were asked for
    was known. *)

val cache_hits : t
val cache_misses : t
val cache_evictions : t
(** Aggregated over every {!Exec.Cache} in the process; per-cache
    figures remain available from [Exec.Cache.stats]. *)

val pool_tasks_queued : t
(** Chunk tasks enqueued on a {!Exec.Pool} work queue. *)

val pool_tasks_stolen : t
(** Queued tasks drained by the {e calling} domain while helping. *)

val pool_tasks_completed : t
(** Queued tasks that finished running (worker or caller). *)

val chase_steps : t
(** Null substitutions applied by {!Constraints.Chase}. *)

val approx_samples : t
(** Valuations drawn by the Monte-Carlo estimator
    ([Approx_measure.Estimator]) — uniform and stratified passes
    both. Only the first sample of each valuation class a pool chunk
    meets is checked, so a pass adds one {!valuations_evaluated} per
    sentence per class met, not per sample. *)

val approx_strata : t
(** Null-support strata sampled by the estimator's stratified second
    pass (strata of weight zero are skipped and not counted). *)

(** {2 Query-service counters}

    Bumped by the concurrent query service ([Server], [certainty
    serve]); zero in one-shot CLI runs. *)

val serve_connections : t
(** Client connections accepted. *)

val serve_requests : t
(** Request lines received (well-formed or not, all endpoints). *)

val serve_parse_errors : t
(** Request lines rejected with a [parse_error] response. *)

val serve_overloaded : t
(** Requests shed with an [overloaded] response because the admission
    queue was full. *)

val serve_deadline_exceeded : t
(** Requests answered with [deadline_exceeded] — whether the deadline
    expired while queued or during evaluation. *)

val serve_session_loads : t
(** Databases parsed and indexed into the session store (misses; a
    request for an already-loaded database does not count). *)

val serve_session_evictions : t
(** Sessions dropped by the store's LRU cap. *)

val serve_updates : t
(** Single-tuple updates applied to live sessions (the [update] op). *)

(** {2 Decomposition-analysis counters}

    Bumped by the null-dependency planner ([Analysis.Decomp]). *)

val decomp_plans : t
(** Decomposition analyses run (every [analysis.decomp] span). *)

val decomp_components : t
(** Independent components certified across all sound plans. *)

val decomp_indecomposable : t
(** Analyses that ended [Indecomposable] (no sound plan). *)

(** {2 Router-tier counters}

    Bumped by the sharding router ([Shard.Router], [certainty
    router]); zero everywhere else. Per-shard latency lands in the
    [router.shard.<name>] span histograms. *)

val router_requests : t
(** Request lines received by the router (well-formed or not). *)

val router_forwards : t
(** Request lines sent to backend shards — proxied client requests
    and replayed [update] lines both. *)

val router_retries : t
(** Requests sent again: reads retried on another replica after a
    shard conversation failed, and requests sent again, after a
    replay of their session's log, to a shard that answered
    [unknown_session] to their digest. *)

val router_replica_forwards : t
(** Accepted [update] lines forwarded to read replicas (one count per
    replica reached). *)

val router_shard_unavailable : t
(** Requests answered with the typed [shard_unavailable] error. *)

val router_ring_remaps : t
(** Membership transitions (shard ejected, re-admitted, or observed
    restarting under a new generation) — each remaps one ring arc. *)

val router_probe_failures : t
(** Health probes that failed (connect refused, timeout, bad reply). *)

(** {1 Span histograms}

    {!Trace.span} feeds the wall-time of every completed span into a
    per-name histogram (log2 buckets of nanoseconds), so a trace run
    also yields aggregate timings without post-processing the JSONL. *)

val observe_span : string -> int -> unit
(** [observe_span name ns] — no-op when disabled or [ns < 0]. *)

type span_stats = {
  count : int;
  total_ns : int;
  max_ns : int;
  buckets : int array;  (** [buckets.(i)] counts durations in [[2^i, 2^{i+1})]. *)
}

(** {1 Snapshots} *)

type snapshot = {
  counters : (string * int) list;  (** declaration order, all counters *)
  spans : (string * span_stats) list;  (** sorted by span name *)
}

val snapshot : unit -> snapshot

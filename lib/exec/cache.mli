(** Domain-safe memoization tables for the evaluation hot paths.

    A cache maps keys to computed values behind a mutex, so a single
    cache can be shared by all the domains of a {!Pool} fold (the
    critical section is a hash-table probe; the memoized computation
    itself runs outside the lock). Hit/miss/eviction counters are kept
    per cache for benchmark reporting, and mirrored into the global
    {!Obs.Metrics} counters when metrics are enabled.

    Keys are compared with structural equality and hashed with
    [Hashtbl.hash]; do not use keys containing functions or cyclic
    values. *)

type ('k, 'v) t

type stats = { hits : int; misses : int; entries : int; evictions : int }

val create : ?size:int -> ?max_entries:int -> unit -> ('k, 'v) t
(** [size] is the initial hash-table capacity (default 256).
    [max_entries] caps the table: once more than [max_entries] keys
    are resident, the oldest inserted entries are evicted (FIFO) until
    the cap holds again, so long-running sessions cannot grow a cache
    without bound. Omitted means unbounded (the pre-cap behaviour).
    Eviction only discards memoized values — the computations cached
    here are pure, so an evicted key is simply recomputed on its next
    miss. @raise Invalid_argument if [max_entries < 0]. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t key compute] returns the cached value for [key], or
    runs [compute ()], stores the result, and returns it. [compute]
    runs outside the lock: two domains racing on the same fresh key may
    both compute it (the first store wins), which is harmless for the
    pure evaluations cached here. *)

val stats : _ t -> stats

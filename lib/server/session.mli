(** The server's session store: parsed databases and their caches.

    A session is keyed by the literal (schema text, database text)
    pair of the request. The first request for a pair parses both and
    creates an {!Incomplete.Support.cache}; every later request for
    the same pair — from any connection — shares the parsed instance
    and the kernel database (split + indexes) built inside the cache
    on first use. This is what makes the server cheaper than one CLI
    process per query: parsing, splitting and indexing are paid once
    per session, not once per request. Verdicts are not memoized:
    every request runs its compiled kernels.

    Sessions are {e mutable}: the [update] op applies a single-tuple
    insert or delete in place. The kernel database is delta-maintained
    ({!Incomplete.Kernel.db_insert}/[db_delete]) instead of rebuilt,
    and finished FD chases are resumed ({!Constraints.Chase.chase_inc})
    instead of re-run. The session key stays the {e original} database
    text: the store is a live instance seeded from that text.

    Each entry is also indexed by its {!digest}, computed once when the
    entry loads and dropped with it: a request may name its session by
    the digest alone ({!find}). A text whose digest already names a
    different pair is refused, so a digest collision can cost a load,
    never answer from another session's data.

    Concurrency: an update swaps [entry.inst] under the entry's lock;
    a query takes one snapshot of [inst] and is internally consistent
    against it — the generation stamp keys every derived structure, so
    a racing update can neither corrupt a running query nor have its
    own state poisoned by one.

    The store holds at most [max_sessions] entries and evicts the
    least recently used — every [get] (hit or load) refreshes a
    session's position, so a hot session survives a burst of one-shot
    ones. {!Obs.Metrics.serve_session_loads} and
    {!Obs.Metrics.serve_session_evictions} count the churn; loads
    count winning inserts only, not parses that lost the race to a
    concurrent connection. *)

type entry = private {
  digest : string;  (** {!digest} of the (schema, db) text pair *)
  schema : Relational.Schema.t;
  cache : Incomplete.Support.cache;
  ulock : Mutex.t;  (** serializes updates and chase-memo access *)
  mutable inst : Relational.Instance.t;
      (** current state; read it {e once} per request and evaluate
          against the snapshot *)
  mutable chase_gen : int;
  mutable chase_memos :
    (Constraints.Dependency.fd list
    * ((Constraints.Dependency.fd * Relational.Value.t * Relational.Value.t)
         list
      * Constraints.Chase.outcome))
    list;
  mutable updates : int;
      (** updates acknowledged on this session since it was loaded *)
  mutable last_used : int;
}

type t

val digest : schema:string -> db:string -> string
(** The 32-character hex MD5 of [schema ^ "\000" ^ db]: the name a
    [session] request field gives the pair. *)

val create :
  ?max_sessions:int ->
  ?digest:(schema:string -> db:string -> string) ->
  unit ->
  t
(** [max_sessions] defaults to 16 and is clamped to at least 1.
    [digest] defaults to {!digest}; tests pass a colliding one. *)

val get : t -> schema:string -> db:string -> (entry, string) result
(** Find or load the session for this (schema, db) text pair. Parsing
    happens outside the store lock, so a slow parse does not stall
    other connections; [Error] is a parse diagnostic, or the refusal
    of a pair whose digest names another live entry. *)

val find : t -> string -> entry option
(** The live session with this digest, if any; a hit refreshes its LRU
    position like {!get}. [None] for a digest never loaded or
    evicted: the caller must resend the text. *)

val count : t -> int
(** Number of live sessions (for the [health] endpoint). *)

(** {1 Updates} *)

type action = Insert | Delete

val apply :
  entry ->
  action:action ->
  relation:string ->
  tuple:Relational.Tuple.t ->
  (int, string) result
(** Apply a single-tuple update to a session found by {!get} or
    {!find}; the result is as for {!update}. *)

val update :
  t ->
  schema:string ->
  db:string ->
  action:action ->
  relation:string ->
  tuple:Relational.Tuple.t ->
  (entry * int, string) result
(** {!get}, then {!apply}: a single-tuple update to the (possibly
    just-loaded) session, returning the entry and its generation: the
    number of updates acknowledged on the session, this one included
    (1 for the first). It counts this session's updates only, so the
    same update history answers the same generation in any process.
    [Error]s:
    unknown relation, arity mismatch, inserting a tuple already
    present, deleting a tuple that is absent — all leave the session
    untouched. *)

val chase_outcome :
  entry ->
  inst:Relational.Instance.t ->
  Constraints.Dependency.fd list ->
  Constraints.Chase.outcome
(** The chase of [inst] (the caller's snapshot of [entry.inst]) with
    [fds], memoized in the entry: the first conditional query for an
    FD set pays the full chase, later ones — including after inserts,
    which advance the memo incrementally — reuse it. A snapshot
    outdated by a concurrent update is chased from scratch without
    disturbing the memo. *)

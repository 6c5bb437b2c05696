(** The sharded serving tier's front router.

    A router is a process that speaks the daemon's wire protocol to
    clients (one flat-JSON request per line, one response line per
    request, in order — see [docs/PROTOCOL.md]) through the daemon's
    own socket tier, {!Server.Listener} (bind, 1 MiB line cap, ordered
    writer with its 30 s write cap, signal-safe drain); the router is
    only its line handler and drain hook. It owns no engine of its
    own: every evaluating request is consistent-hashed by its
    [(schema, db)] session key onto a {!Ring} of backend shards — each
    a stock [certainty serve] daemon — and the client's request line
    is proxied {e verbatim} over a pooled {!Server.Client} connection,
    the shard's response line relayed back untouched. Proxying bytes,
    not re-encoding, is what makes the byte-identity gate against a
    single-process [Service.handle] hold by construction.

    Membership is health-gated: a prober thread polls every shard's
    [health] op each [probe_interval_s]; [fail_threshold] consecutive
    failures eject a shard (remapping only its ring arcs — see
    {!Ring}), one success re-admits it. The [generation] field of the
    health response detects a shard that restarted behind the same
    address: its pooled connections are dropped and its per-session
    replay state is invalidated (the state is keyed by generation, so
    invalidation is free).

    Reads on a session spread round-robin over the key's [replicas]
    first live ring successors and fail over to the next replica on a
    transport error. Writes ([update]) go to the key's primary; on an
    accepted response the raw line is appended to the session's
    ordered update log and forwarded to the replicas — a per-session
    sequence (the applied prefix length, tracked per shard generation)
    lets the router catch any shard up by replaying exactly the suffix
    it has not seen, which is also how a remapped or restarted shard
    resumes byte-identical service after failover.

    Requests that cannot reach any live replica are answered with the
    typed [shard_unavailable] error — never a hang (shard
    conversations are bounded by [shard_timeout_s]) and never a wrong
    answer. [health] is answered by the router itself, reporting
    membership. Draining walks the shards one at a time, each bounded
    by [drain_grace_s], and lets the replies already on their way
    leave before the listener hangs up. *)

type config = {
  addr : Server.Daemon.addr;  (** where the router listens *)
  shards : Server.Daemon.addr array;  (** the configured backend ring *)
  replicas : int;  (** live ring successors serving each session's reads *)
  window : int;  (** per-shard in-flight request bound *)
  fail_threshold : int;  (** consecutive probe failures before ejection *)
  probe_interval_s : float;
  shard_timeout_s : float;  (** per-conversation send/receive bound *)
  connect_attempts : int;  (** backed-off connect attempts per checkout *)
  drain_grace_s : float;  (** per-shard wait during rolling drain *)
}

val default_config :
  addr:Server.Daemon.addr -> shards:Server.Daemon.addr list -> config
(** 1 replica, window 32, 3 failures to eject, 0.25s probe interval,
    30s shard timeout, 3 connect attempts, 30s drain grace. *)

val parse_addr : string -> (Server.Daemon.addr, string) result
(** Parse a [--shard] operand: ["host:port"] (numeric port, no slash
    in the host part) is TCP, anything else a Unix socket path. *)

type t

val start : config -> t
(** Bind, run one synchronous probe pass over the shards (so a router
    started after its backends serves immediately), then spawn the
    listener and prober threads and return.
    @raise Unix.Unix_error when the address cannot be bound.
    @raise Invalid_argument on an empty shard list or [replicas < 1]. *)

val drain : t -> unit
(** Begin the rolling drain; idempotent, safe from signal handlers. *)

val wait : t -> unit
(** Block until fully shut down. Call {!drain} first. *)

val run : ?signals:bool -> config -> unit
(** [start], install SIGTERM/SIGINT handlers that {!drain} (unless
    [~signals:false]), then {!wait}. The [certainty router] main
    loop. *)

(** {1 Introspection}

    For tests and the bench harness — which shard a session maps to
    right now, under the current membership. *)

val live_shards : t -> string list
(** Names of the shards currently admitted. *)

val replica_set : t -> schema:string -> db:string -> string list
(** The session's current primary (head) and read replicas. *)

val primary_of : t -> schema:string -> db:string -> string option

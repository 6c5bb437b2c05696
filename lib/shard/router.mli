(** The sharded serving tier's front router.

    A router is a process that speaks the daemon's wire protocol to
    clients (one flat-JSON request per line, one response line per
    request, in order — see [docs/PROTOCOL.md]) through the daemon's
    own socket tier, {!Server.Listener} (bind, 1 MiB line cap, ordered
    writer with its 30 s write cap, signal-safe drain); the router is
    only its line handler and drain hook. It owns no engine of its
    own: every evaluating request is consistent-hashed onto a {!Ring}
    of backend shards — each a stock [certainty serve] daemon — by its
    session's digest ({!Server.Session.digest} of the [(schema, db)]
    texts, computed once per session record), and the shard's
    response line is relayed back untouched. Relaying bytes, not
    re-encoding, is what makes the byte-identity gate against a
    single-process [Service.handle] hold by construction.

    Clients always send the texts; the router sends each shard a
    session's text only until the shard holds it. A shard holds a
    session once it answers [ok:true] to a line that carried the text
    (the client's line, forwarded verbatim, or a replayed update);
    from then on the router sends it the request's other fields plus
    ["session":"<digest>"], and no 50 KB database crosses that hop. A
    holder that answers [unknown_session] (it evicted the session, or
    restarted) is forgotten, replayed the session's update log behind
    the text, and sent the request again by digest, once (the client's
    line when the log is empty); a shard that loses the session again
    meanwhile fails the attempt. A client line that itself carries
    [session] is a [bad_request].

    Membership is health-gated: a prober thread polls every shard's
    [health] op each [probe_interval_s]; [fail_threshold] consecutive
    failures eject a shard (remapping only its ring arcs — see
    {!Ring}), one success re-admits it. The [generation] field of the
    health response detects a shard that restarted behind the same
    address, and its pooled connections are dropped. The sessions it
    lost answer [unknown_session] to their digest, before or after the
    prober has seen the restart, and get the text again.

    Reads on a session spread round-robin over the key's [replicas]
    first live ring successors and fail over to the next replica on a
    transport error. Writes ([update]) go to the key's primary; on an
    accepted response the update is appended to the session's ordered
    log and forwarded to the replicas — the applied prefix length,
    tracked per holder, lets the router catch any shard up
    by replaying exactly the suffix it has not seen, which is also how
    a remapped, restarted or evicting shard resumes byte-identical
    service.

    Session records are bounded: those that no [update] request has
    touched are capped at 16 (a shard's default session capacity) per
    shard, the least recently used dropped first, which costs one text
    forward per shard when the session returns. A record an update
    touched may hold the only copy of acknowledged updates and is
    never dropped.

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

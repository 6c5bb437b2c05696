(** The query service daemon: admission control, workers, deadlines,
    graceful drain.

    Architecture: the socket tier is {!Listener} — bind, the 1 MiB
    request-line cap, one reader thread per connection, the ordering
    writer with its [SO_SNDTIMEO] cap, and the signal-safe drain. The
    daemon is its line handler: it answers the cheap cases inline on
    the reader thread — [parse_error] (the connection survives),
    [health], [bad_request] for a non-positive [deadline_ms],
    [overloaded] when the bounded admission queue is full,
    [shutting_down] while draining — and queues the rest for one of
    [service_threads] worker threads, which run them through
    {!Service.handle} on the shared {!Session} store and the
    persistent {!Exec.Pool}, under a {!Obs.Trace} span and a
    per-endpoint {!Obs.Metrics} latency histogram. Responses, inline
    or worker-produced, reach a pipelining client strictly in request
    order through the listener's reorder buffer.

    Deadlines: a request's budget ([deadline_ms] field, else the
    server default) is converted to an absolute {!Obs.Clock} instant
    at admission. Workers re-check it at dequeue and pass a guard into
    the engine that re-checks at every pool-chunk boundary and, within
    a class pass, every 256 classes; either way the client gets a
    typed [deadline_exceeded] and the partial count is discarded. A
    non-positive [deadline_ms] is refused with [bad_request] — a
    client cannot opt out of the operator's budget cap.

    Drain ({!drain}, also wired to SIGTERM/SIGINT by {!run}): the
    listener stops accepting; the daemon lets queued and in-flight
    requests finish, then stops the workers; the listener shuts down
    every connection and all threads are joined. During the drain
    window readers still answer [health] (reporting [draining]) and
    refuse evaluating requests with [shutting_down]. The wait for
    in-flight work is bounded by [drain_grace_s]: past it every
    connection socket is shut down, which unblocks any worker stuck
    writing to a peer that stopped reading, so SIGTERM always
    terminates the process. *)

type addr = Listener.addr = Unix_sock of string | Tcp of string * int

type config = {
  addr : addr;
  jobs : int option;  (** chunk count for the parallel sweeps *)
  service_threads : int;  (** worker threads executing requests *)
  max_queue : int;  (** admission-queue bound; 0 rejects all queueing *)
  deadline_ms : int option;  (** default per-request budget *)
  max_sessions : int;  (** session-store cap *)
  drain_grace_s : float;
      (** how long drain waits for in-flight work before force-closing
          connections *)
  shard_id : string option;
      (** stable identity reported by [health] (defaults to the
          listen address) — lets a router tell shards apart *)
}

val default_config : addr -> config
(** [jobs = None], 4 service threads, queue bound 64, no deadline,
    16 sessions, 30s drain grace, [shard_id = None]. *)

val addr_string : addr -> string
(** {!Listener.addr_string}. *)

val resolve_ipv4 : string -> Unix.inet_addr
(** {!Listener.resolve_ipv4}. *)

type t

val start : config -> t
(** Bind ({!Listener.bind}), spawn the listener and worker threads,
    and return. Each start stamps a fresh nonzero [generation],
    reported by [health]: a router seeing it change behind a fixed
    address knows the shard restarted and lost its sessions.
    @raise Unix.Unix_error when the address cannot be bound.
    @raise Failure when a TCP host name does not resolve. *)

val drain : t -> unit
(** Begin graceful shutdown; idempotent, safe from signal handlers
    (sets a flag and writes the self-pipe, nothing else). *)

val wait : t -> unit
(** Block until the server has fully shut down (listener, workers and
    readers joined). Call {!drain} first — or from another thread or a
    signal handler — otherwise this blocks forever. *)

val run : ?signals:bool -> config -> unit
(** [start], install SIGTERM/SIGINT handlers that {!drain} (unless
    [~signals:false]), then {!wait}. The [certainty serve] main
    loop. *)

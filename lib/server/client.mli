(** A minimal blocking client for the wire protocol — the [certainty
    client] subcommand, the load generators of [bench --serve] and the
    CI smoke test all speak through this. One request line out, one
    response line back, in order, over a single connection. *)

type conn

val connect : Listener.addr -> conn
(** @raise Unix.Unix_error when the server is not there.
    @raise Failure when a TCP host name does not resolve. *)

val connect_retry :
  ?attempts:int -> ?delay:float -> ?backoff:float -> ?cap:float ->
  Listener.addr -> conn
(** Retry [connect] with exponential backoff — for scripts that just
    started the server and are waiting for the socket, and for the
    router's shard-reconnect loop. Attempt [i] (0-based) sleeps
    [min cap (delay *. backoff^i)] scaled by ±25% jitter (defaults:
    50 attempts, [delay = 0.1], [backoff = 2.0], [cap = 2.0]).
    @raise Unix.Unix_error when the last attempt still fails. *)

val retry_delays :
  ?delay:float -> ?backoff:float -> ?cap:float -> int -> float list
(** The jitter-free schedule [connect_retry] draws from:
    [retry_delays n] is the capped geometric series of [n] sleeps. *)

val set_timeout : conn -> float -> unit
(** Bound every subsequent send/receive on the connection by [seconds]
    ([SO_RCVTIMEO]/[SO_SNDTIMEO]); a timed-out read surfaces as
    [recv_line = None]. *)

val shutdown : conn -> unit
(** [Unix.shutdown] both directions, waking any thread blocked on the
    connection; never raises. Follow with {!close}. *)

val send_line : conn -> string -> unit
val recv_line : conn -> string option
(** [None] on EOF (server hung up). *)

val request : conn -> string -> string option
(** [send_line] then [recv_line]. *)

val close : conn -> unit

val with_conn : Listener.addr -> (conn -> 'a) -> 'a
(** Connect, run, always close. *)

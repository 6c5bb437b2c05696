(** The socket tier shared by {!Daemon} and [Shard.Router]: one
    line-protocol server that binds, accepts, reads capped request
    lines, writes responses in request order, and drains on demand or
    on SIGTERM/SIGINT. The two servers differ only in the {!handler}
    they pass in.

    One listener thread (or the caller's, under {!run}) accepts
    connections and is woken by a self-pipe for shutdown; each
    connection gets a reader thread, which reads the socket in blocks
    of up to 64 KiB and splits them into lines (a line spanning blocks
    is gathered; one block's bytes past a newline wait for the next
    line). Blank lines are ignored, [\r] is kept, and a final line
    without a newline is still a line. Every non-blank line gets the
    next per-connection sequence number and goes to [handler.line] —
    except that a line longer than 1 MiB (its newline not counted)
    goes as an [Error] once that much of it has arrived, and the
    connection is closed after it.

    Ordering: responses go out through {!send}, which holds them in a
    per-connection reorder buffer and flushes strictly by sequence
    number, so a server may answer lines from any thread in any order.
    Past [128] unflushed responses the reader stops reading until the
    buffer drains (backpressure through the socket). Every write is
    capped by [SO_SNDTIMEO] (30 s); a failed or timed-out write drops
    the connection's further output and shuts it down.

    Drain ({!drain}): the listener closes the listening socket,
    unlinks a Unix socket path, runs [handler.drain], then shuts every
    connection down so the readers end. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_string : addr -> string
(** Human-readable form: the socket path, or [host:port]. *)

val parse_addr : string -> (addr, string) result
(** ["host:port"] (numeric port, no slash in the host part) is TCP,
    anything else a Unix socket path; [Error] on the empty string. *)

val resolve_ipv4 : string -> Unix.inet_addr
(** Resolve a dotted-quad or host name to an IPv4 address.
    @raise Failure with a readable message when the name does not
    resolve. *)

val sockaddr : addr -> Unix.sockaddr
(** The socket address to bind or connect to ({!resolve_ipv4} for TCP).
    @raise Failure when a TCP host name does not resolve. *)

type conn

val send : conn -> int -> string -> unit
(** [send conn seq line] delivers the response to request [seq]
    (without its newline). Safe from any thread; a no-op once the
    connection is closed or a write on it failed. *)

type handler = {
  accepted : unit -> unit;  (** on each reader thread's start *)
  line : conn -> int -> (string, string) result -> unit;
      (** a non-blank request line and its sequence number, or [Error]
          with the reason the line was refused unread (it is over-long;
          answer with [parse_error] before returning — the connection
          closes next). Must eventually {!send} exactly one response
          per sequence number. *)
  drain : unit -> unit;
      (** on the listener thread, after the listening socket is gone:
          the server's own teardown. Returns once the lines already
          handed to [line] are answered (or the server gives up on
          them) and its threads are joined; the connections are shut
          down right after. *)
}

type t

val bind : addr -> t
(** Bind and listen; also ignores SIGPIPE process-wide (a client
    hanging up mid-response must not kill the server).
    @raise Unix.Unix_error when the address cannot be bound.
    @raise Failure when a TCP host name does not resolve. *)

val start : t -> handler -> unit
(** Spawn the listener thread. *)

val run : ?signals:bool -> t -> handler -> unit
(** Install SIGTERM/SIGINT handlers that {!drain} (unless
    [~signals:false]), run the accept loop on the calling thread — so
    the OCaml signal handler has a poll point — then {!wait}. *)

val drain : t -> unit
(** Begin shutdown; idempotent, safe from signal handlers (sets a flag
    and writes the self-pipe, nothing else). *)

val draining : t -> bool

val shutdown_all : t -> unit
(** Shut every open connection down, unblocking its reader and any
    writer stuck on it; never waits on a blocked write. *)

val wait : t -> unit
(** Join the listener (if {!start}ed) and every reader. Call {!drain}
    first, and call this once. *)

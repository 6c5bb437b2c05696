type addr = Unix_sock of string | Tcp of string * int

let addr_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

(* "host:port" with a numeric port and no slash is TCP; anything else
   is a Unix socket path (so "./srv.sock" and "/tmp/a:b" both work). *)
let parse_addr s =
  if s = "" then Error "empty shard address"
  else
    match String.rindex_opt s ':' with
    | Some i when i > 0 && i < String.length s - 1 -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 && not (String.contains host '/') ->
            Ok (Tcp (host, p))
        | _ -> Ok (Unix_sock s))
    | _ -> Ok (Unix_sock s)

let resolve_ipv4 host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } ->
        failwith (Printf.sprintf "host %s resolves to no addresses" host)
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found ->
        failwith (Printf.sprintf "cannot resolve host %s" host))

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (resolve_ipv4 host, port)

(* Protocol limits. A request line longer than [max_line_bytes] is
   refused (admission bounds memory everywhere else; the reader must
   not be the exception). [max_pipeline] bounds the per-connection
   reorder buffer: past it the reader stops reading — backpressure
   through the socket — instead of buffering without limit.
   [send_timeout_s] caps how long a single write to a peer that
   stopped reading can block a writer. [read_block] is the size of a
   connection's read buffer, and the most one [Unix.read] returns. *)
let max_line_bytes = 1 lsl 20
let read_block = 65536
let max_pipeline = 128
let send_timeout_s = 30.0

(* A connection. PROTOCOL.md promises responses in request order on
   the connection, but a server may answer some lines inline on the
   reader thread while others finish on worker threads in any order —
   so every non-blank request line gets a sequence number and
   responses pass through a reorder buffer ([pending]/[wnext], under
   [wlock]) that flushes them strictly in sequence.

   Two locks: [wlock] serializes writes and the reorder buffer;
   [flock] guards the descriptor's lifecycle ([closed], close,
   shutdown). They are split so that {!shutdown_fd} never has to wait
   on a writer blocked mid-[send] — shutting the socket down is
   exactly what unblocks such a writer. Lock order is wlock ⊃ flock;
   close runs under both, so a held [wlock] also pins the fd open and
   a send can never write to a recycled descriptor number. *)
type conn = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;  (* read block; [rlo, rhi) not yet consumed *)
  mutable rlo : int;  (* reader thread only, as is [rhi] *)
  mutable rhi : int;
  oc : out_channel;
  wlock : Mutex.t;
  flock : Mutex.t;
  wroom : Condition.t;  (* with [wlock]: reader waits for buffer room *)
  pending : (int, string) Hashtbl.t;  (* seq → unflushed response line *)
  mutable wnext : int;  (* next seq to go on the wire *)
  mutable next_seq : int;  (* next seq to assign; reader thread only *)
  mutable wfailed : bool;  (* a write failed: drop all further output *)
  mutable closed : bool;
}

type handler = {
  accepted : unit -> unit;
  line : conn -> int -> (string, string) result -> unit;
  drain : unit -> unit;
}

type t = {
  listen_fd : Unix.file_descr;
  sock_path : string option;  (* Unix socket file to unlink on drain *)
  wake_r : Unix.file_descr;  (* self-pipe: signal handler → listener *)
  wake_w : Unix.file_descr;
  draining : bool Atomic.t;
  lock : Mutex.t;  (* [conns] and [readers] *)
  mutable conns : conn list;
  mutable readers : Thread.t list;
  mutable listener : Thread.t option;
}

(* ------------------------------------------------------------------ *)
(* Connection writer                                                   *)
(* ------------------------------------------------------------------ *)

(* Safe concurrently with a send blocked in write(2): shutdown does
   not free the descriptor number (close_conn holds [flock] for that)
   and it is what makes the blocked write return. *)
let shutdown_fd conn =
  Mutex.protect conn.flock (fun () ->
      if not conn.closed then
        try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())

(* Buffer [line], then flush whatever prefix of the sequence is now
   complete. A dead peer surfaces as Sys_error (SIGPIPE is ignored) or
   — via SO_SNDTIMEO — as a timed-out write; either way the connection
   stops producing output and the socket is shut down so its reader
   cleans up. *)
let send conn seq line =
  Mutex.protect conn.wlock (fun () ->
      if not (conn.closed || conn.wfailed) then begin
        Hashtbl.replace conn.pending seq line;
        try
          let wrote = ref false in
          while Hashtbl.mem conn.pending conn.wnext do
            let l = Hashtbl.find conn.pending conn.wnext in
            Hashtbl.remove conn.pending conn.wnext;
            conn.wnext <- conn.wnext + 1;
            output_string conn.oc l;
            output_char conn.oc '\n';
            wrote := true
          done;
          if !wrote then flush conn.oc
        with Sys_error _ ->
          conn.wfailed <- true;
          Hashtbl.reset conn.pending;
          shutdown_fd conn
      end;
      Condition.broadcast conn.wroom)

(* Only the connection's own reader closes the fd (after its read loop
   ends), so no thread can still be blocked reading it when the number
   is recycled. *)
let close_conn conn =
  Mutex.protect conn.wlock (fun () ->
      Mutex.protect conn.flock (fun () ->
          if not conn.closed then begin
            conn.closed <- true;
            Hashtbl.reset conn.pending;
            if not conn.wfailed then (try flush conn.oc with Sys_error _ -> ());
            try Unix.close conn.fd with Unix.Unix_error _ -> ()
          end);
      Condition.broadcast conn.wroom)

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

(* Request lines are read in blocks of up to [read_block] bytes into
   the connection's [rbuf]; bytes past a newline stay there for the
   next line. [input_line] is unbounded — a hostile client could stream
   one endless line into our heap — so a line longer than
   [max_line_bytes] (its newline not counted) is refused as soon as it
   is known to be, holding at most the cap plus one block. A line that
   spans blocks is gathered in a [Buffer]. A final line without its
   newline is still a line; EOF or a read error (reset, or a read after
   {!shutdown_fd}) ends the connection. *)
let refill conn =
  let rec go () =
    match Unix.read conn.fd conn.rbuf 0 (Bytes.length conn.rbuf) with
    | n ->
        conn.rlo <- 0;
        conn.rhi <- n;
        if n = 0 then `Eof else `Data
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()  (* a signal *)
    | exception Unix.Unix_error _ -> `Failed
  in
  go ()

(* [Bytes.index_from] would run on into the stale bytes past [rhi]. *)
let newline_in buf lo hi =
  let rec go i =
    if i >= hi then -1 else if Bytes.get buf i = '\n' then i else go (i + 1)
  in
  go lo

let read_request_line conn =
  let rec go acc =
    if conn.rlo = conn.rhi then
      match (refill conn, acc) with
      | `Data, _ -> go acc
      | `Eof, Some b -> `Line (Buffer.contents b)
      | `Eof, None | `Failed, _ -> `Eof
    else
      let lo = conn.rlo in
      let had = match acc with None -> 0 | Some b -> Buffer.length b in
      let nl = newline_in conn.rbuf lo conn.rhi in
      let stop = if nl < 0 then conn.rhi else nl in
      if had + stop - lo > max_line_bytes then `Too_long
      else if nl >= 0 then begin
        conn.rlo <- nl + 1;
        match acc with
        | None -> `Line (Bytes.sub_string conn.rbuf lo (nl - lo))
        | Some b ->
            Buffer.add_subbytes b conn.rbuf lo (nl - lo);
            `Line (Buffer.contents b)
      end
      else begin
        let b =
          match acc with Some b -> b | None -> Buffer.create read_block
        in
        Buffer.add_subbytes b conn.rbuf lo (stop - lo);
        conn.rlo <- stop;
        go (Some b)
      end
  in
  go None

(* Backpressure: once [max_pipeline] responses are buffered behind a
   slow head-of-line request, stop reading until the buffer drains.
   Progress is owed by the server — every sequence number handed to
   [handler.line] must eventually be sent — and close/send failure
   both broadcast [wroom]. *)
let wait_room conn =
  Mutex.protect conn.wlock (fun () ->
      while
        Hashtbl.length conn.pending >= max_pipeline
        && not (conn.closed || conn.wfailed)
      do
        Condition.wait conn.wroom conn.wlock
      done)

let next_seq conn =
  let seq = conn.next_seq in
  conn.next_seq <- seq + 1;
  seq

let reader_loop t h conn =
  h.accepted ();
  let rec loop () =
    wait_room conn;
    match read_request_line conn with
    | `Eof -> ()
    | `Line "" -> loop ()  (* blank keep-alive lines are ignored *)
    | `Line line ->
        h.line conn (next_seq conn) (Ok line);
        loop ()
    | `Too_long ->
        (* Cannot resync mid-line: refuse the line and hang up. *)
        h.line conn (next_seq conn)
          (Error
             (Printf.sprintf "request line exceeds %d bytes; closing connection"
                max_line_bytes))
  in
  loop ();
  close_conn conn;
  Mutex.protect t.lock (fun () ->
      t.conns <- List.filter (fun c -> c != conn) t.conns)

(* ------------------------------------------------------------------ *)
(* Listener and drain                                                  *)
(* ------------------------------------------------------------------ *)

let accept_one t h =
  match Unix.accept t.listen_fd with
  | fd, _ ->
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      let conn =
        { fd;
          rbuf = Bytes.create read_block;
          rlo = 0;
          rhi = 0;
          oc = Unix.out_channel_of_descr fd;
          wlock = Mutex.create ();
          flock = Mutex.create ();
          wroom = Condition.create ();
          pending = Hashtbl.create 8;
          wnext = 0;
          next_seq = 0;
          wfailed = false;
          closed = false
        }
      in
      let thread = Thread.create (fun () -> reader_loop t h conn) () in
      Mutex.protect t.lock (fun () ->
          t.conns <- conn :: t.conns;
          t.readers <- thread :: t.readers)
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN), _, _) ->
      ()

let shutdown_all t =
  List.iter shutdown_fd (Mutex.protect t.lock (fun () -> t.conns))

let listener_loop t h =
  let rec loop () =
    if Atomic.get t.draining then ()
    else
      match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
      | readable, _, _ ->
          if List.mem t.wake_r readable then ()  (* drain requested *)
          else begin
            if List.mem t.listen_fd readable then accept_one t h;
            loop ()
          end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  (* Stop accepting: new connect()s fail from here on. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
    t.sock_path;
  h.drain ();
  (* In-flight responses are on the wire; hang up so readers unblock. *)
  shutdown_all t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let bind addr =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let sa = sockaddr addr in
  let listen_fd =
    Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0
  in
  let sock_path =
    match addr with
    | Unix_sock path ->
        (* A previous unclean exit may have left the socket file behind. *)
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Some path
    | Tcp _ ->
        Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
        None
  in
  Unix.bind listen_fd sa;
  Unix.listen listen_fd 64;
  let wake_r, wake_w = Unix.pipe () in
  { listen_fd;
    sock_path;
    wake_r;
    wake_w;
    draining = Atomic.make false;
    lock = Mutex.create ();
    conns = [];
    readers = [];
    listener = None
  }

let draining t = Atomic.get t.draining

let start t h =
  t.listener <- Some (Thread.create (fun () -> listener_loop t h) ())

let drain t =
  if not (Atomic.exchange t.draining true) then
    (* Async-signal-safe: one flag, one write. The listener owns the
       actual teardown. *)
    ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)

let wait t =
  Option.iter Thread.join t.listener;
  List.iter Thread.join (Mutex.protect t.lock (fun () -> t.readers));
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

(* The accept loop runs on the calling (main) thread, not a spawned
   one: a signal interrupting [select] with EINTR re-enters OCaml code
   right here, which is what lets the runtime actually execute the
   OCaml-level handler. With every thread parked in [Thread.join] /
   [Condition.wait] / [select] — the shape [start] + [wait] has — no
   thread reaches a poll point and a SIGTERM would sit pending
   forever. *)
let run ?(signals = true) t h =
  if signals then begin
    let handler = Sys.Signal_handle (fun _ -> drain t) in
    ignore (Sys.signal Sys.sigterm handler);
    ignore (Sys.signal Sys.sigint handler)
  end;
  listener_loop t h;
  wait t

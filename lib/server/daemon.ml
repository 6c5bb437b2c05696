module Metrics = Obs.Metrics

type addr = Listener.addr = Unix_sock of string | Tcp of string * int

type config = {
  addr : addr;
  jobs : int option;
  service_threads : int;
  max_queue : int;
  deadline_ms : int option;
  max_sessions : int;
  drain_grace_s : float;
  shard_id : string option;
}

let default_config addr =
  { addr;
    jobs = None;
    service_threads = 4;
    max_queue = 64;
    deadline_ms = None;
    max_sessions = 16;
    drain_grace_s = 30.0;
    shard_id = None
  }

let addr_string = Listener.addr_string
let resolve_ipv4 = Listener.resolve_ipv4

type job = {
  seq : int;
  req : Wire.request;
  jconn : Listener.conn;
  deadline_ns : int64 option;
}

type t = {
  cfg : config;
  generation : int;  (* fresh per [start]: lets a router spot restarts *)
  sessions : Session.t;
  lock : Mutex.t;
  queue : job Queue.t;
  nonempty : Condition.t;  (* workers wait here for jobs *)
  mutable inflight : int;
  mutable admission_closed : bool;  (* set under [lock] when draining *)
  mutable stop_workers : bool;
  listener : Listener.t;
  mutable workers : Thread.t list;
}

let respond_error conn ~seq ~id err msg =
  Listener.send conn seq (Wire.error_line ~id err msg)

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let deadline_guard deadline_ns () =
  if Int64.compare (Obs.Clock.now_ns ()) deadline_ns > 0 then
    raise Service.Deadline

let process t job =
  let id = job.req.Wire.id and op = job.req.Wire.op in
  let expired =
    match job.deadline_ns with
    | Some d -> Int64.compare (Obs.Clock.now_ns ()) d > 0
    | None -> false
  in
  if expired then begin
    (* Spent its whole budget waiting in the queue. *)
    Metrics.incr Metrics.serve_deadline_exceeded;
    respond_error job.jconn ~seq:job.seq ~id Wire.Deadline_exceeded
      "deadline exceeded"
  end
  else begin
    let guard = Option.map deadline_guard job.deadline_ns in
    let t0 = Obs.Clock.now_ns () in
    let outcome =
      Obs.Trace.span "serve.request"
        ~attrs:
          [ ("op", op); ("id", match id with Some i -> i | None -> "") ]
        (fun () ->
          Service.handle ~sessions:t.sessions ?jobs:t.cfg.jobs ?guard job.req)
    in
    (* Trace.span only feeds the histogram when a trace sink is open;
       the service's latency distribution must not depend on that. *)
    Metrics.observe_span ("serve." ^ op)
      (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0));
    match outcome with
    | Ok payload ->
        Listener.send job.jconn job.seq (Wire.ok_line ~id ~op payload)
    | Error (Wire.Deadline_exceeded, msg) ->
        Metrics.incr Metrics.serve_deadline_exceeded;
        respond_error job.jconn ~seq:job.seq ~id Wire.Deadline_exceeded msg
    | Error (err, msg) -> respond_error job.jconn ~seq:job.seq ~id err msg
  end

let worker_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    let rec take () =
      match Queue.take_opt t.queue with
      | Some job -> Some job
      | None ->
          if t.stop_workers then None
          else begin
            Condition.wait t.nonempty t.lock;
            take ()
          end
    in
    match take () with
    | None -> Mutex.unlock t.lock
    | Some job ->
        t.inflight <- t.inflight + 1;
        Mutex.unlock t.lock;
        (try process t job
         with e ->
           (* Belt and braces: Service.handle already catches; anything
              that still escapes must not kill the worker. *)
           respond_error job.jconn ~seq:job.seq ~id:job.req.Wire.id
             Wire.Internal_error (Printexc.to_string e));
        Mutex.lock t.lock;
        t.inflight <- t.inflight - 1;
        Mutex.unlock t.lock;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Request lines                                                       *)
(* ------------------------------------------------------------------ *)

let health_line t req =
  let queue_len, inflight =
    Mutex.protect t.lock (fun () -> (Queue.length t.queue, t.inflight))
  in
  Wire.ok_line ~id:req.Wire.id ~op:"health"
    [ ( "status",
        Wire.S
          (if Listener.draining t.listener then "draining" else "serving") );
      ("sessions", Wire.I (Session.count t.sessions));
      ("queue", Wire.I queue_len);
      ("inflight", Wire.I inflight);
      ("workers", Wire.I t.cfg.service_threads);
      ("max_queue", Wire.I t.cfg.max_queue);
      ( "shard_id",
        Wire.S
          (match t.cfg.shard_id with
          | Some id -> id
          | None -> addr_string t.cfg.addr) );
      ("generation", Wire.I t.generation)
    ]

let admit t job =
  Mutex.protect t.lock (fun () ->
      if t.admission_closed then `Draining
      else if Queue.length t.queue >= t.cfg.max_queue then `Full
      else begin
        Queue.add job t.queue;
        Condition.signal t.nonempty;
        `Admitted
      end)

let handle_line t conn seq line =
  Metrics.incr Metrics.serve_requests;
  match Result.bind line Wire.parse_request with
  | Error msg ->
      Metrics.incr Metrics.serve_parse_errors;
      respond_error conn ~seq ~id:None Wire.Parse_error msg
  | Ok req when req.Wire.op = "health" ->
      Listener.send conn seq (health_line t req)
  | Ok req when Listener.draining t.listener ->
      respond_error conn ~seq ~id:req.Wire.id Wire.Shutting_down
        "server is draining"
  | Ok req -> (
      match Wire.int_field req "deadline_ms" with
      | Some ms when ms <= 0 ->
          (* A non-positive override must not cancel the operator's
             budget cap ("no deadline" is not a client's to grant). *)
          respond_error conn ~seq ~id:req.Wire.id Wire.Bad_request
            "deadline_ms must be positive"
      | client_deadline -> (
          let deadline_ms =
            match client_deadline with
            | Some _ -> client_deadline
            | None -> t.cfg.deadline_ms
          in
          let deadline_ns =
            match deadline_ms with
            | Some ms when ms > 0 ->
                Some
                  (Int64.add (Obs.Clock.now_ns ())
                     (Int64.mul (Int64.of_int ms) 1_000_000L))
            | _ -> None
          in
          match admit t { seq; req; jconn = conn; deadline_ns } with
          | `Admitted -> ()
          | `Full ->
              Metrics.incr Metrics.serve_overloaded;
              respond_error conn ~seq ~id:req.Wire.id Wire.Overloaded
                "admission queue full"
          | `Draining ->
              respond_error conn ~seq ~id:req.Wire.id Wire.Shutting_down
                "server is draining"))

(* ------------------------------------------------------------------ *)
(* Drain and lifecycle                                                 *)
(* ------------------------------------------------------------------ *)

(* Runs on the listener thread once the listening socket is gone. *)
let drain_work t =
  Mutex.lock t.lock;
  t.admission_closed <- true;
  (* Let queued and in-flight work finish — but only for so long. A
     worker can be stuck in [send] to a peer that stopped reading; it
     holds the connection's write lock and keeps [inflight] up, so an
     unconditional wait would never end. Past the grace deadline,
     shut every socket down ([Listener.shutdown_all] never waits on a
     stuck writer) — the blocked writes fail, the workers finish, and
     the wait completes. *)
  let deadline = Unix.gettimeofday () +. t.cfg.drain_grace_s in
  let forced = ref false in
  while not (Queue.is_empty t.queue && t.inflight = 0) do
    Mutex.unlock t.lock;
    if (not !forced) && Unix.gettimeofday () >= deadline then begin
      forced := true;
      Listener.shutdown_all t.listener
    end
    else Thread.delay 0.02;
    Mutex.lock t.lock
  done;
  t.stop_workers <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  List.iter Thread.join t.workers

let handler t =
  { Listener.accepted = (fun () -> Metrics.incr Metrics.serve_connections);
    line = handle_line t;
    drain = (fun () -> drain_work t)
  }

let start_common cfg =
  let listener = Listener.bind cfg.addr in
  (* Monotone clock mixed with the pid: distinct across restarts of a
     shard behind the same address, which is all a router needs. *)
  let generation =
    (Int64.to_int (Obs.Clock.now_ns ()) lxor (Unix.getpid () * 0x9E3779B1))
    land max_int lor 1
  in
  let t =
    { cfg;
      generation;
      sessions = Session.create ~max_sessions:cfg.max_sessions ();
      lock = Mutex.create ();
      queue = Queue.create ();
      nonempty = Condition.create ();
      inflight = 0;
      admission_closed = false;
      stop_workers = false;
      listener;
      workers = []
    }
  in
  t.workers <-
    List.init (max 1 cfg.service_threads) (fun _ ->
        Thread.create (fun () -> worker_loop t) ());
  t

let start cfg =
  let t = start_common cfg in
  Listener.start t.listener (handler t);
  t

let drain t = Listener.drain t.listener

let wait t = Listener.wait t.listener

let run ?signals cfg =
  let t = start_common cfg in
  Listener.run ?signals t.listener (handler t)

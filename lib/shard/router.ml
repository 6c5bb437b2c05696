module Daemon = Server.Daemon
module Client = Server.Client
module Listener = Server.Listener
module Wire = Server.Wire
module Metrics = Obs.Metrics

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  addr : Daemon.addr;
  shards : Daemon.addr array;
  replicas : int;
  window : int;
  fail_threshold : int;
  probe_interval_s : float;
  shard_timeout_s : float;
  connect_attempts : int;
  drain_grace_s : float;
}

let default_config ~addr ~shards =
  { addr;
    shards = Array.of_list shards;
    replicas = 1;
    window = 32;
    fail_threshold = 3;
    probe_interval_s = 0.25;
    shard_timeout_s = 30.0;
    connect_attempts = 3;
    drain_grace_s = 30.0
  }

let parse_addr = Listener.parse_addr

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

(* One backend shard. [s_lock]/[s_cond] guard every mutable field; the
   in-flight window blocks on the condition. [s_generation] is the
   value last reported by the shard's health op — when it changes
   behind the same address the shard restarted, so pooled connections
   are dropped. The sessions it lost need no bookkeeping here: their
   next digest line gets [unknown_session]. *)
type shard = {
  s_idx : int;
  s_name : string;
  s_addr : Daemon.addr;
  s_lock : Mutex.t;
  s_cond : Condition.t;
  mutable s_up : bool;
  mutable s_generation : int;  (* 0 = never probed successfully *)
  mutable s_failures : int;  (* consecutive probe failures *)
  mutable s_idle : Client.conn list;
  mutable s_busy : Client.conn list;
  mutable s_inflight : int;
  mutable s_draining : bool;
}

(* A shard known to hold a session: it answered [ok:true] to a line
   that carried the session's text and has applied the first
   [h_applied] entries of the session's update log. Lines to it name
   the session by digest alone. One that lost the session (evicted it,
   or restarted) answers [unknown_session] and is forgotten. *)
type holder = { h_shard : int; mutable h_applied : int }

(* Per-(schema, db) routing state. The ordered log of accepted updates
   is the session's write history: any shard (replica, remapped
   primary, restarted primary) is brought to the present by replaying
   the suffix it has not applied. An update is logged as its request
   fields without [schema] and [db], which every update of the session
   shares and the record keeps once: the [db] text dwarfs the rest.
   The digest, computed once per record, places the session on the
   ring and names it to its holders. *)
type session = {
  sn_lock : Mutex.t;  (* guards the log and the holders *)
  sn_schema : string;
  sn_db : string;
  sn_digest : string;
  mutable sn_log : (string * Wire.value) list list;
      (* accepted updates' other fields, newest first *)
  mutable sn_len : int;
  mutable sn_applied : holder list;
  (* The rest is guarded by the router's [sess_lock]. *)
  mutable sn_used : int;  (* LRU stamp *)
  mutable sn_kept : bool;  (* an update request touched it: never dropped *)
}

type t = {
  cfg : config;
  ring : Ring.t;
  shards : shard array;
  sessions : (string * string, session) Hashtbl.t;
  sess_lock : Mutex.t;
  mutable sess_clock : int;
  mutable droppable : int;  (* records no update touched *)
  rr_tick : int Atomic.t;  (* spreads reads over replica sets *)
  answering : int Atomic.t;  (* request lines not yet answered *)
  stop_prober : bool Atomic.t;
  listener : Listener.t;
  mutable prober : Thread.t option;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let resp_ok resp = Wire.contains resp "\"ok\":true"

(* An error answer with this code. [ok] comes before any payload, so
   an accepted answer is told apart without scanning the payload. *)
let resp_error resp code =
  (not (resp_ok resp)) && Wire.contains resp ("\"error\":\"" ^ code ^ "\"")

(* A shard that answers [shutting_down] is mid-drain: the line is a
   valid response, but relaying it would leak tier topology to the
   client — the contract is that backends failing over is the
   router's problem. Treat it like a transport failure and move on. *)
let resp_shutting_down resp = resp_error resp "shutting_down"

(* The shard no longer holds the session a digest line named. *)
let resp_unknown resp = resp_error resp "unknown_session"

(* Pull an integer field out of a response line. Responses are our own
   emitter's output, so a plain scan for the key is exact enough. *)
let int_of_resp resp key =
  let pat = "\"" ^ key ^ "\":" in
  let nh = String.length resp and np = String.length pat in
  let rec find i =
    if i + np > nh then None
    else if String.sub resp i np = pat then Some (i + np)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some j ->
      let k = ref j in
      while !k < nh && (match resp.[!k] with '0' .. '9' -> true | _ -> false) do
        incr k
      done;
      if !k = j then None else int_of_string_opt (String.sub resp j (!k - j))

let rec firstn n l =
  if n <= 0 then [] else match l with [] -> [] | x :: r -> x :: firstn (n - 1) r

let rotate k l =
  let n = List.length l in
  if n = 0 then []
  else
    let k = ((k mod n) + n) mod n in
    let rec drop i l = if i = 0 then l else drop (i - 1) (List.tl l) in
    drop k l @ firstn k l

let now_ns () = Int64.to_int (Obs.Clock.now_ns ())

(* ------------------------------------------------------------------ *)
(* Shard connection pool                                               *)
(* ------------------------------------------------------------------ *)

let drop_idle sh =
  let idle =
    Mutex.protect sh.s_lock (fun () ->
        let l = sh.s_idle in
        sh.s_idle <- [];
        l)
  in
  List.iter
    (fun c ->
      Client.shutdown c;
      Client.close c)
    idle

(* Borrow a connection to [sh], blocking while the shard's in-flight
   window is full. [None] when the shard is down, draining, or cannot
   be connected within the (short, backed-off) attempt budget. *)
let checkout t sh =
  Mutex.lock sh.s_lock;
  let rec go () =
    if sh.s_draining || not sh.s_up then begin
      Mutex.unlock sh.s_lock;
      None
    end
    else if sh.s_inflight >= t.cfg.window then begin
      Condition.wait sh.s_cond sh.s_lock;
      go ()
    end
    else begin
      sh.s_inflight <- sh.s_inflight + 1;
      let pooled =
        match sh.s_idle with
        | c :: rest ->
            sh.s_idle <- rest;
            sh.s_busy <- c :: sh.s_busy;
            Some c
        | [] -> None
      in
      Mutex.unlock sh.s_lock;
      match pooled with
      | Some c -> Some c
      | None -> (
          match
            Client.connect_retry ~attempts:t.cfg.connect_attempts ~delay:0.02
              ~cap:0.2 sh.s_addr
          with
          | c ->
              Client.set_timeout c t.cfg.shard_timeout_s;
              Mutex.protect sh.s_lock (fun () -> sh.s_busy <- c :: sh.s_busy);
              Some c
          | exception (Unix.Unix_error _ | Failure _) ->
              Mutex.protect sh.s_lock (fun () ->
                  sh.s_inflight <- sh.s_inflight - 1;
                  Condition.signal sh.s_cond);
              None)
    end
  in
  go ()

let checkin sh conn ~ok =
  Mutex.protect sh.s_lock (fun () ->
      sh.s_busy <- List.filter (fun c -> c != conn) sh.s_busy;
      sh.s_inflight <- sh.s_inflight - 1;
      if ok && sh.s_up && not sh.s_draining then sh.s_idle <- conn :: sh.s_idle
      else begin
        Client.shutdown conn;
        Client.close conn
      end;
      Condition.signal sh.s_cond)

(* One request/response round trip; [None] on any transport failure
   (the connection must then be checked in with [~ok:false]). *)
let talk conn line =
  Metrics.incr Metrics.router_forwards;
  match Client.request conn line with
  | resp -> resp
  | exception Sys_error _ -> None

(* ------------------------------------------------------------------ *)
(* Session catch-up (write forwarding and replay)                      *)
(* ------------------------------------------------------------------ *)

let without_texts fields =
  List.filter (fun (k, _) -> k <> "schema" && k <> "db") fields

(* How the next line to a shard names the session: by digest to a
   holder, by text to any other shard. *)
type form = Named of holder | Text

(* The functions down to [sync] run under the session's [sn_lock]. *)
let holder_at sess sh =
  List.find_opt (fun h -> h.h_shard = sh.s_idx) sess.sn_applied

let form_for sess sh =
  match holder_at sess sh with Some h -> Named h | None -> Text

(* The request line of [fields] (a request's fields but the texts) in
   [form]. *)
let line_for sess form fields =
  let fields =
    List.map
      (function k, Wire.Str v -> (k, Wire.S v) | k, Wire.Int n -> (k, Wire.I n))
      fields
  in
  match form with
  | Named _ -> Wire.obj (fields @ [ ("session", Wire.S sess.sn_digest) ])
  | Text ->
      Wire.obj
        (("schema", Wire.S sess.sn_schema)
        :: ("db", Wire.S sess.sn_db)
        :: fields)

(* After an [ok:true] answer to a line in [form]: [sh] holds the
   session with [applied] log entries. A text line makes it a holder,
   unless a concurrent read's text line already did. *)
let held sess sh form ~applied =
  match form with
  | Named h ->
      h.h_applied <- applied;
      h
  | Text -> (
      match holder_at sess sh with
      | Some h -> h
      | None ->
          let h = { h_shard = sh.s_idx; h_applied = applied } in
          sess.sn_applied <- h :: sess.sn_applied;
          h)

let forget sess h =
  sess.sn_applied <- List.filter (fun h' -> h' != h) sess.sn_applied

(* Bring [sh] up to date with the session's update log over [conn] by
   replaying the suffix it has not applied, and answer the form of the
   session's next line to it. A shard that holds nothing replays from
   zero, its first line carrying the text; a caught-up holder replays
   nothing. A holder that lost the session is forgotten and replayed
   from zero in the same way, once: [None] when the shard fails, or
   loses the session again during that replay. *)
let sync sess sh conn =
  let rec replay ~restarted form i = function
    | [] -> Some form
    | fields :: rest -> (
        match talk conn (line_for sess form fields) with
        | Some r when resp_ok r ->
            replay ~restarted (Named (held sess sh form ~applied:i)) (i + 1) rest
        | Some r when resp_unknown r && not restarted -> (
            match form with
            | Named h ->
                forget sess h;
                from ~restarted:true
            | Text -> None)
        | Some _ | None -> None)
  and from ~restarted =
    let form = form_for sess sh in
    let have = match form with Named h -> h.h_applied | Text -> 0 in
    replay ~restarted form (have + 1)
      (List.rev (firstn (sess.sn_len - have) sess.sn_log))
  in
  from ~restarted:false

(* ------------------------------------------------------------------ *)
(* Session records                                                     *)
(* ------------------------------------------------------------------ *)

(* Records that no update touched only save text forwards, so they
   are capped at a shard's default session capacity per shard, least
   recently used dropped first; a dropped one costs one text line per
   shard when its session comes back. A record an update request found
   or made may hold the only copy of acknowledged updates and is never
   dropped. Caller holds [sess_lock]. *)
let drop_over_cap t =
  let cap =
    (Daemon.default_config t.cfg.addr).Daemon.max_sessions
    * Array.length t.shards
  in
  let rec go () =
    if t.droppable > cap then
      match
        Hashtbl.fold
          (fun key s acc ->
            if s.sn_kept then acc
            else
              match acc with
              | Some (_, lru) when lru.sn_used <= s.sn_used -> acc
              | _ -> Some (key, s))
          t.sessions None
      with
      | None -> ()
      | Some (key, _) ->
          Hashtbl.remove t.sessions key;
          t.droppable <- t.droppable - 1;
          go ()
  in
  go ()

(* The record of a (schema, db) pair, made on first use; its digest is
   computed outside the lock. An [~update] request keeps it for good. *)
let find_session t ~schema ~db ~update =
  let key = (schema, db) in
  let touch s =
    t.sess_clock <- t.sess_clock + 1;
    s.sn_used <- t.sess_clock;
    if update && not s.sn_kept then begin
      s.sn_kept <- true;
      t.droppable <- t.droppable - 1
    end;
    s
  in
  let found () = Option.map touch (Hashtbl.find_opt t.sessions key) in
  match Mutex.protect t.sess_lock found with
  | Some s -> s
  | None ->
      let digest = Server.Session.digest ~schema ~db in
      Mutex.protect t.sess_lock (fun () ->
          match found () with
          | Some s -> s
          | None ->
              let s =
                { sn_lock = Mutex.create ();
                  sn_schema = schema;
                  sn_db = db;
                  sn_digest = digest;
                  sn_log = [];
                  sn_len = 0;
                  sn_applied = [];
                  sn_used = 0;
                  sn_kept = false
                }
              in
              Hashtbl.add t.sessions key s;
              t.droppable <- t.droppable + 1;
              let s = touch s in
              drop_over_cap t;
              s)

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let live_mask t =
  Array.map
    (fun sh -> Mutex.protect sh.s_lock (fun () -> sh.s_up && not sh.s_draining))
    t.shards

let candidates t key =
  let mask = live_mask t in
  Ring.successors t.ring ~up:(Array.get mask) ~n:(max 1 t.cfg.replicas) key

let unavailable ~id msg =
  Metrics.incr Metrics.router_shard_unavailable;
  Wire.error_line ~id Wire.Shard_unavailable msg

(* Send a request on its session to [sh] over [conn]: sync the
   session's updates in, then send the request by digest to a holder.
   A shard that holds nothing after the sync has nothing to replay (the
   log is empty) and gets the client's line, which loads the session
   from its text; that goes under the session's lock, so no update is
   logged between the check and the load. A holder that answers
   [unknown_session] is forgotten, caught up from the text and sent the
   request again, once. [locked] runs its argument under the session's
   lock (a caller that holds it passes plain application). [None] when
   the catch-up failed or the shard lost the session twice; [Some None]
   when the request itself got no answer. *)
let exchange ~locked sess sh conn req line =
  let fields = without_texts req.Wire.fields in
  let rec go ~lost =
    let step =
      locked (fun () ->
          Option.iter (forget sess) lost;
          match sync sess sh conn with
          | None -> `Failed
          | Some (Named h) -> `Named h
          | Some Text ->
              let r = talk conn line in
              (match r with
              | Some resp when resp_ok resp ->
                  ignore (held sess sh Text ~applied:0)
              | _ -> ());
              `Sent r)
    in
    match step with
    | `Failed -> None
    | `Sent r -> Some r
    | `Named h -> (
        match talk conn (line_for sess (Named h) fields) with
        | Some resp when resp_unknown resp ->
            if Option.is_some lost then None
            else begin
              Metrics.incr Metrics.router_retries;
              go ~lost:(Some h)
            end
        | r -> Some r)
  in
  go ~lost:None

(* One shard conversation for a read. A request that names no session
   goes as it came. *)
let read_on_shard sess_opt sh conn req line =
  let resp =
    match sess_opt with
    | None -> talk conn line
    | Some sess -> (
        let locked f = Mutex.protect sess.sn_lock f in
        match exchange ~locked sess sh conn req line with
        | None -> None
        | Some r -> r)
  in
  match resp with Some r when resp_shutting_down r -> None | r -> r

let route_read t ~id ~key sess req line =
  match candidates t key with
  | [] -> unavailable ~id "no live shard for session"
  | cands ->
      let order = rotate (Atomic.fetch_and_add t.rr_tick 1) cands in
      let rec go tried = function
        | [] ->
            unavailable ~id
              (Printf.sprintf "no replica reachable (%d tried)" tried)
        | i :: rest -> (
            if tried > 0 then Metrics.incr Metrics.router_retries;
            let sh = t.shards.(i) in
            match checkout t sh with
            | None -> go (tried + 1) rest
            | Some conn -> (
                let t0 = now_ns () in
                match read_on_shard sess sh conn req line with
                | Some resp ->
                    checkin sh conn ~ok:true;
                    Metrics.observe_span
                      ("router.shard." ^ sh.s_name)
                      (now_ns () - t0);
                    resp
                | None ->
                    checkin sh conn ~ok:false;
                    go (tried + 1) rest))
      in
      go 0 order

(* Writes: catch the primary up, apply there, and only on an accepted
   response append the update to the session log and forward it (by
   the same catch-up) to the replicas that are reachable right now —
   all under the session lock, so updates to one session are totally
   ordered and every replica applies the same accepted prefix in the
   same order. Replicas missed here (down, restarting) are caught up
   lazily by the next read or write that touches them. *)
let route_update t ~id sess req line =
  Mutex.protect sess.sn_lock (fun () ->
      match candidates t sess.sn_digest with
      | [] -> unavailable ~id "no live shard for session"
      | primary :: replicas -> (
          let sh = t.shards.(primary) in
          match checkout t sh with
          | None -> unavailable ~id "primary shard unavailable"
          | Some conn -> (
              let t0 = now_ns () in
              match exchange ~locked:(fun f -> f ()) sess sh conn req line with
              | None ->
                  checkin sh conn ~ok:false;
                  unavailable ~id "primary shard unavailable"
              | Some None ->
                  checkin sh conn ~ok:false;
                  unavailable ~id "primary shard failed mid-update"
              | Some (Some resp) when resp_shutting_down resp ->
                  checkin sh conn ~ok:false;
                  unavailable ~id "primary shard is draining"
              | Some (Some resp) ->
                  checkin sh conn ~ok:true;
                  Metrics.observe_span
                    ("router.shard." ^ sh.s_name)
                    (now_ns () - t0);
                  if resp_ok resp then begin
                    sess.sn_log <- without_texts req.Wire.fields :: sess.sn_log;
                    sess.sn_len <- sess.sn_len + 1;
                    Option.iter
                      (fun h -> h.h_applied <- sess.sn_len)
                      (holder_at sess sh);
                    List.iter
                      (fun r ->
                        let rsh = t.shards.(r) in
                        match checkout t rsh with
                        | None -> ()
                        | Some rc ->
                            let ok = sync sess rsh rc <> None in
                            if ok then
                              Metrics.incr Metrics.router_replica_forwards;
                            checkin rsh rc ~ok)
                      replicas
                  end;
                  resp)))

(* ------------------------------------------------------------------ *)
(* Router health                                                       *)
(* ------------------------------------------------------------------ *)

let health_line t ~id =
  let up = ref 0 in
  let parts =
    Array.to_list t.shards
    |> List.map (fun sh ->
           let state =
             Mutex.protect sh.s_lock (fun () ->
                 if sh.s_up then begin
                   incr up;
                   "up"
                 end
                 else "down")
           in
           sh.s_name ^ "=" ^ state)
  in
  let sessions = Mutex.protect t.sess_lock (fun () -> Hashtbl.length t.sessions) in
  Wire.ok_line ~id ~op:"health"
    [ ( "status",
        Wire.S
          (if Listener.draining t.listener then "draining" else "serving") );
      ("tier", Wire.S "router");
      ("shards", Wire.I (Array.length t.shards));
      ("shards_up", Wire.I !up);
      ("replicas", Wire.I t.cfg.replicas);
      ("sessions", Wire.I sessions);
      ("shard_status", Wire.S (String.concat " " parts))
    ]

(* ------------------------------------------------------------------ *)
(* Downstream connections                                              *)
(* ------------------------------------------------------------------ *)

(* Lines on one connection are handled serially on its reader thread,
   so responses leave in request order and the listener's reorder
   buffer never holds more than one. *)
let handle_line t line =
  Metrics.incr Metrics.router_requests;
  match Result.bind line Wire.parse_request with
  | Error msg -> Wire.error_line ~id:None Wire.Parse_error msg
  | Ok req when req.Wire.op = "health" -> health_line t ~id:req.Wire.id
  | Ok req when Listener.draining t.listener ->
      Wire.error_line ~id:req.Wire.id Wire.Shutting_down "router is draining"
  | Ok req when Wire.str_field req "session" <> None ->
      Wire.error_line ~id:req.Wire.id Wire.Bad_request
        "the router takes \"schema\" and \"db\", not \"session\""
  | Ok req ->
      let id = req.Wire.id in
      let line = Result.get_ok line in
      let t0 = now_ns () in
      let resp =
        Obs.Trace.span "router.request"
          ~attrs:
            [ ("op", req.Wire.op);
              ("id", match id with Some i -> i | None -> "")
            ]
          (fun () ->
            match (Wire.str_field req "schema", Wire.str_field req "db") with
            | Some schema, Some db when req.Wire.op = "update" ->
                route_update t ~id (find_session t ~schema ~db ~update:true) req
                  line
            | Some schema, Some db ->
                let sess = find_session t ~schema ~db ~update:false in
                route_read t ~id ~key:sess.sn_digest (Some sess) req line
            | schema, db ->
                (* No session to name: place by the texts there are and
                   forward the line as it came. *)
                let key =
                  Server.Session.digest
                    ~schema:(Option.value schema ~default:"")
                    ~db:(Option.value db ~default:"")
                in
                route_read t ~id ~key None req line)
      in
      Metrics.observe_span "router.request" (now_ns () - t0);
      resp

(* ------------------------------------------------------------------ *)
(* Health-gated membership                                             *)
(* ------------------------------------------------------------------ *)

let probe_request = Wire.obj [ ("id", Wire.S "probe"); ("op", Wire.S "health") ]

let probe_shard t sh =
  match Client.connect sh.s_addr with
  | exception (Unix.Unix_error _ | Failure _) -> None
  | conn ->
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          Client.set_timeout conn (Float.min 2.0 t.cfg.shard_timeout_s);
          match Client.request conn probe_request with
          | Some resp when resp_ok resp -> int_of_resp resp "generation"
          | Some _ | None -> None
          | exception Sys_error _ -> None)

let note_probe_ok sh gen =
  let change =
    Mutex.protect sh.s_lock (fun () ->
        sh.s_failures <- 0;
        let was_up = sh.s_up and old_gen = sh.s_generation in
        sh.s_up <- true;
        sh.s_generation <- gen;
        if not was_up then `Readmitted
        else if old_gen <> 0 && old_gen <> gen then `Restarted
        else `Steady)
  in
  match change with
  | `Steady -> ()
  | `Readmitted | `Restarted ->
      (* Either way the pooled connections point at a process that is
         gone. The sessions a restart lost are rebuilt when their next
         digest line gets [unknown_session]. *)
      Metrics.incr Metrics.router_ring_remaps;
      drop_idle sh

let note_probe_failure t sh =
  Metrics.incr Metrics.router_probe_failures;
  let ejected =
    Mutex.protect sh.s_lock (fun () ->
        sh.s_failures <- sh.s_failures + 1;
        if sh.s_up && sh.s_failures >= t.cfg.fail_threshold then begin
          sh.s_up <- false;
          Condition.broadcast sh.s_cond;
          true
        end
        else false)
  in
  if ejected then begin
    Metrics.incr Metrics.router_ring_remaps;
    drop_idle sh
  end

let prober_loop t =
  while not (Atomic.get t.stop_prober) do
    Array.iter
      (fun sh ->
        if not (Atomic.get t.stop_prober) then
          match probe_shard t sh with
          | Some gen -> note_probe_ok sh gen
          | None -> note_probe_failure t sh)
      t.shards;
    (* Sleep in short slices so drain does not wait a full interval. *)
    let slept = ref 0.0 in
    while !slept < t.cfg.probe_interval_s && not (Atomic.get t.stop_prober) do
      Thread.delay 0.02;
      slept := !slept +. 0.02
    done
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* Rolling drain, on the listener thread once it stops accepting (new
   requests already get [shutting_down]): walk the shards one at a
   time, waiting up to the grace period for each one's in-flight window
   to empty before closing its pool — so backends never see a
   thundering hang-up and at most one shard's arc is in teardown at any
   moment. *)
let drain_shards t =
  Atomic.set t.stop_prober true;
  Array.iter
    (fun sh ->
      Mutex.lock sh.s_lock;
      sh.s_draining <- true;
      Condition.broadcast sh.s_cond;
      let deadline = Unix.gettimeofday () +. t.cfg.drain_grace_s in
      while sh.s_inflight > 0 && Unix.gettimeofday () < deadline do
        Mutex.unlock sh.s_lock;
        Thread.delay 0.02;
        Mutex.lock sh.s_lock
      done;
      let idle = sh.s_idle and busy = sh.s_busy in
      sh.s_idle <- [];
      Mutex.unlock sh.s_lock;
      List.iter
        (fun c ->
          Client.shutdown c;
          Client.close c)
        idle;
      (* Busy connections still belong to a reader mid-conversation:
         shut them down (which unblocks the reader) but let the
         borrower close them at check-in. *)
      List.iter Client.shutdown busy)
    t.shards;
  (* A reply leaves only after its shard connection is checked in: let
     those still on their way out go before the listener hangs up. *)
  let deadline = Unix.gettimeofday () +. t.cfg.drain_grace_s in
  while Atomic.get t.answering > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  Option.iter Thread.join t.prober

let handler t =
  { Listener.accepted = ignore;
    line =
      (fun conn seq line ->
        Atomic.incr t.answering;
        Fun.protect
          ~finally:(fun () -> Atomic.decr t.answering)
          (fun () -> Listener.send conn seq (handle_line t line)));
    drain = (fun () -> drain_shards t)
  }

let start_common (cfg : config) =
  if Array.length cfg.shards = 0 then
    invalid_arg "Router.start: no shards configured";
  if cfg.replicas < 1 then invalid_arg "Router.start: replicas must be >= 1";
  let shards =
    Array.mapi
      (fun i addr ->
        { s_idx = i;
          s_name = Daemon.addr_string addr;
          s_addr = addr;
          s_lock = Mutex.create ();
          s_cond = Condition.create ();
          s_up = false;
          s_generation = 0;
          s_failures = 0;
          s_idle = [];
          s_busy = [];
          s_inflight = 0;
          s_draining = false
        })
      cfg.shards
  in
  let ring = Ring.create (Array.map (fun sh -> sh.s_name) shards) in
  let t =
    { cfg;
      ring;
      shards;
      sessions = Hashtbl.create 64;
      sess_lock = Mutex.create ();
      sess_clock = 0;
      droppable = 0;
      rr_tick = Atomic.make 0;
      answering = Atomic.make 0;
      stop_prober = Atomic.make false;
      listener = Listener.bind cfg.addr;
      prober = None
    }
  in
  (* A synchronous first pass, so a router started after its shards
     serves immediately instead of rejecting until the first tick. *)
  Array.iter
    (fun sh ->
      match probe_shard t sh with
      | Some gen ->
          Mutex.protect sh.s_lock (fun () ->
              sh.s_up <- true;
              sh.s_generation <- gen)
      | None -> Metrics.incr Metrics.router_probe_failures)
    t.shards;
  t.prober <- Some (Thread.create (fun () -> prober_loop t) ());
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

(* ------------------------------------------------------------------ *)
(* Introspection (tests, bench)                                        *)
(* ------------------------------------------------------------------ *)

let live_shards t =
  let mask = live_mask t in
  Array.to_list t.shards
  |> List.filter_map (fun sh -> if mask.(sh.s_idx) then Some sh.s_name else None)

let replica_set t ~schema ~db =
  let mask = live_mask t in
  Ring.successors t.ring ~up:(Array.get mask)
    ~n:(max 1 t.cfg.replicas)
    (Server.Session.digest ~schema ~db)
  |> List.map (fun i -> t.shards.(i).s_name)

let primary_of t ~schema ~db =
  match replica_set t ~schema ~db with [] -> None | s :: _ -> Some s

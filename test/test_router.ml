(* The sharded serving tier: the consistent-hash ring's membership
   algebra (determinism, affected-arc-only remaps, re-admission
   restoring the original mapping bit for bit), the client's capped
   backoff schedule, and a live three-shard cluster behind a router —
   byte-identity with the sequential engine, health-gated membership,
   replicated update forwarding, and kill/restart failover where every
   response is either the correct bytes or a typed shard_unavailable. *)

module W = Server.Wire
module Session = Server.Session
module Service = Server.Service
module Daemon = Server.Daemon
module Client = Server.Client
module Listener = Server.Listener
module Ring = Shard.Ring
module Router = Shard.Router

let check = Alcotest.check

let keys n = List.init n (Printf.sprintf "session-key-%d")
let all_up _ = true

(* --- ring --------------------------------------------------------- *)

let test_ring_deterministic () =
  let names = [| "a"; "b"; "c"; "d" |] in
  let r1 = Ring.create names and r2 = Ring.create names in
  List.iter
    (fun k ->
      check Alcotest.(option int) k
        (Ring.lookup r1 ~up:all_up k)
        (Ring.lookup r2 ~up:all_up k);
      check
        Alcotest.(list int)
        (k ^ " successors")
        (Ring.successors r1 ~up:all_up ~n:3 k)
        (Ring.successors r2 ~up:all_up ~n:3 k))
    (keys 500);
  check Alcotest.int "hash64 is stable within a process" (Ring.hash64 "x")
    (Ring.hash64 "x");
  check Alcotest.bool "hash64 lands on the 62-bit circle" true
    (Ring.hash64 "x" >= 0)

let test_ring_ejection_remaps_only_owned_arcs () =
  let r = Ring.create [| "a"; "b"; "c"; "d"; "e" |] in
  let before =
    List.map (fun k -> (k, Option.get (Ring.lookup r ~up:all_up k))) (keys 2000)
  in
  let victim = 2 in
  let up i = i <> victim in
  let moved = ref 0 in
  List.iter
    (fun (k, owner) ->
      let now = Option.get (Ring.lookup r ~up k) in
      if owner <> victim then
        check Alcotest.int ("unaffected key kept its shard: " ^ k) owner now
      else begin
        incr moved;
        check Alcotest.bool "orphaned key moved off the victim" true
          (now <> victim)
      end)
    before;
  check Alcotest.bool "the victim owned some keys" true (!moved > 0);
  (* Re-admission restores the original assignment exactly. *)
  List.iter
    (fun (k, owner) ->
      check Alcotest.int ("re-admission restored " ^ k) owner
        (Option.get (Ring.lookup r ~up:all_up k)))
    before

let test_ring_distribution () =
  let n = 4 in
  let r = Ring.create (Array.init n (Printf.sprintf "shard%d")) in
  let counts = Array.make n 0 in
  List.iter
    (fun k ->
      let i = Option.get (Ring.lookup r ~up:all_up k) in
      counts.(i) <- counts.(i) + 1)
    (keys 8000);
  Array.iteri
    (fun i c ->
      check Alcotest.bool
        (Printf.sprintf "shard %d holds a sane share (%d/8000)" i c)
        true
        (c > 8000 / (n * 4) && c < 8000 / 2))
    counts

let test_ring_successors_distinct () =
  let r = Ring.create [| "a"; "b"; "c"; "d" |] in
  List.iter
    (fun k ->
      let s = Ring.successors r ~up:all_up ~n:3 k in
      check Alcotest.int "three distinct replicas" 3
        (List.length (List.sort_uniq compare s));
      (* Asking for more shards than are live yields what exists. *)
      let s2 = Ring.successors r ~up:(fun i -> i < 2) ~n:3 k in
      check Alcotest.bool "short ring yields fewer" true
        (List.length s2 = 2
        && List.for_all (fun i -> i < 2) s2))
    (keys 200)

(* --- client backoff ----------------------------------------------- *)

let test_retry_delays () =
  let got = Client.retry_delays ~delay:0.1 ~backoff:2.0 ~cap:2.0 7 in
  let expect = [ 0.1; 0.2; 0.4; 0.8; 1.6; 2.0; 2.0 ] in
  List.iter2
    (fun e g -> check (Alcotest.float 1e-9) "capped geometric sleep" e g)
    expect got;
  check Alcotest.(list (float 1e-9)) "zero attempts" []
    (Client.retry_delays 0);
  check Alcotest.bool "every delay is capped" true
    (List.for_all (fun d -> d <= 0.5) (Client.retry_delays ~cap:0.5 20))

let test_parse_addr () =
  (match Router.parse_addr "localhost:9042" with
  | Ok (Daemon.Tcp ("localhost", 9042)) -> ()
  | _ -> Alcotest.fail "host:port should parse as TCP");
  (match Router.parse_addr "/tmp/shard.sock" with
  | Ok (Daemon.Unix_sock "/tmp/shard.sock") -> ()
  | _ -> Alcotest.fail "a path is a unix socket");
  match Router.parse_addr "./dir:with/colon.sock" with
  | Ok (Daemon.Unix_sock _) -> ()
  | _ -> Alcotest.fail "a slash forces unix-socket parsing"

(* --- live cluster -------------------------------------------------- *)

let temp_sock tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "certainty-router-test-%s-%d.sock" tag (Unix.getpid ()))

let shard_config ?(max_sessions = 16) sock =
  { (Daemon.default_config (Daemon.Unix_sock sock)) with
    Daemon.service_threads = 2;
    max_sessions
  }

(* Shards (three by default) and a router with a fast prober (every
   50 ms by default), torn down in reverse. *)
let with_cluster ?(replicas = 2) ?(shards = 3) ?max_sessions
    ?(probe_interval_s = 0.05) tag f =
  let shard_config = shard_config ?max_sessions in
  let socks =
    List.init shards (fun i -> temp_sock (Printf.sprintf "%s%d" tag i))
  in
  List.iter (fun s -> if Sys.file_exists s then Sys.remove s) socks;
  let daemons = List.map (fun s -> Daemon.start (shard_config s)) socks in
  let rsock = temp_sock (tag ^ "r") in
  if Sys.file_exists rsock then Sys.remove rsock;
  let cfg =
    { (Router.default_config ~addr:(Daemon.Unix_sock rsock)
         ~shards:(List.map (fun s -> Daemon.Unix_sock s) socks))
      with
      Router.replicas;
      probe_interval_s;
      fail_threshold = 2;
      drain_grace_s = 5.0
    }
  in
  let router = Router.start cfg in
  let tbl = Hashtbl.create 8 in
  List.iter2 (fun s d -> Hashtbl.replace tbl s (ref (Some d))) socks daemons;
  let stop_shard sock =
    match Hashtbl.find_opt tbl sock with
    | Some ({ contents = Some d } as slot) ->
        slot := None;
        Daemon.drain d;
        Daemon.wait d
    | _ -> ()
  in
  let start_shard sock =
    match Hashtbl.find_opt tbl sock with
    | Some ({ contents = None } as slot) ->
        slot := Some (Daemon.start (shard_config sock))
    | _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      Router.drain router;
      Router.wait router;
      List.iter stop_shard socks)
    (fun () -> f ~router ~raddr:(Daemon.Unix_sock rsock) ~stop_shard ~start_shard)

let request_exn c line =
  match Client.request c line with
  | Some resp -> resp
  | None -> Alcotest.fail "router hung up"

let schema = "R(a); S(a)"
let db tag = Printf.sprintf "R = { ('%s1'), ('%s2') }; S = { (~1) }" tag tag

let certain_line ~id tag =
  W.obj
    [ ("id", W.S id); ("op", W.S "certain"); ("schema", W.S schema);
      ("db", W.S (db tag)); ("query", W.S "Q(x) := R(x) & !S(x)")
    ]

let update_line ?(row = 3) ~id tag =
  W.obj
    [ ("id", W.S id); ("op", W.S "update"); ("schema", W.S schema);
      ("db", W.S (db tag)); ("action", W.S "insert"); ("relation", W.S "R");
      ("tuple", W.S (Printf.sprintf "('%s%d')" tag row))
    ]

let reference lines =
  let sessions = Session.create ~max_sessions:16 () in
  List.map
    (fun line ->
      match W.parse_request line with
      | Error msg -> Alcotest.failf "reference line does not parse: %s" msg
      | Ok r -> (
          match Service.handle ~sessions ~jobs:1 r with
          | Ok payload -> W.ok_line ~id:r.W.id ~op:r.W.op payload
          | Error (err, msg) -> W.error_line ~id:r.W.id err msg))
    lines

let contains = W.contains

let test_router_byte_identity () =
  with_cluster "id" @@ fun ~router:_ ~raddr ~stop_shard:_ ~start_shard:_ ->
  let lines =
    List.concat_map
      (fun tag ->
        [ certain_line ~id:(tag ^ "q") tag ])
      [ "a"; "b"; "c"; "d"; "e"; "f" ]
  in
  let expected = reference lines in
  Client.with_conn raddr @@ fun c ->
  List.iter2
    (fun line want ->
      check Alcotest.string "router response identical to sequential engine"
        want (request_exn c line))
    lines expected

let test_router_health () =
  with_cluster "h" @@ fun ~router:_ ~raddr ~stop_shard:_ ~start_shard:_ ->
  Client.with_conn raddr @@ fun c ->
  let resp = request_exn c {|{"id":"rh","op":"health"}|} in
  List.iter
    (fun needle ->
      check Alcotest.bool ("health reports " ^ needle) true
        (contains resp needle))
    [ {|"id":"rh"|}; {|"ok":true|}; {|"tier":"router"|}; {|"shards":3|};
      {|"shards_up":3|}; {|"replicas":2|}
    ]

let test_router_update_forwarding () =
  with_cluster "u" @@ fun ~router ~raddr ~stop_shard:_ ~start_shard:_ ->
  let tag = "w" in
  let q ~id = certain_line ~id tag in
  let expected =
    reference [ q ~id:"q1"; update_line ~id:"u1" tag; q ~id:"q2" ]
  in
  let before, upd, after =
    match expected with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  (Client.with_conn raddr @@ fun c ->
   check Alcotest.string "pre-update read" before (request_exn c (q ~id:"q1"));
   check Alcotest.string "update accepted" upd
     (request_exn c (update_line ~id:"u1" tag));
   check Alcotest.string "post-update read" after (request_exn c (q ~id:"q2")));
  (* Every replica of the session answers the post-update query with
     the exact same bytes: the forwarded update really applied. *)
  let replicas = Router.replica_set router ~schema ~db:(db tag) in
  check Alcotest.int "session spans two replicas" 2 (List.length replicas);
  List.iter
    (fun name ->
      Client.with_conn (Daemon.Unix_sock name) @@ fun c ->
      check Alcotest.string
        ("replica " ^ name ^ " verdict-identical after forwarding") after
        (request_exn c (q ~id:"q2")))
    replicas

let wait_until ?(timeout = 10.0) label pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" label
    else begin
      Unix.sleepf 0.05;
      go ()
    end
  in
  go ()

let test_router_failover () =
  with_cluster "f" @@ fun ~router ~raddr ~stop_shard ~start_shard ->
  let tag = "k" in
  let line = certain_line ~id:"fq" tag in
  let expected = List.hd (reference [ line ]) in
  (* Warm the session, then kill its primary. *)
  (Client.with_conn raddr @@ fun c ->
   check Alcotest.string "pre-kill" expected (request_exn c line));
  let victim =
    match Router.primary_of router ~schema ~db:(db tag) with
    | Some v -> v
    | None -> Alcotest.fail "session has no primary"
  in
  stop_shard victim;
  (* Every response during the outage is the correct bytes or a typed
     shard_unavailable — never a hang, never a wrong answer. *)
  let identical = ref 0 and unavailable = ref 0 in
  for _ = 1 to 40 do
    Client.with_conn raddr @@ fun c ->
    let resp = request_exn c line in
    if String.equal resp expected then incr identical
    else if contains resp {|"error":"shard_unavailable"|} then incr unavailable
    else Alcotest.failf "wrong bytes during failover: %s" resp
  done;
  wait_until "prober ejects the dead shard" (fun () ->
      not (List.mem victim (Router.live_shards router)));
  (* Post-ejection the replica serves the arc: identical again. *)
  (Client.with_conn raddr @@ fun c ->
   check Alcotest.string "replica serves after ejection" expected
     (request_exn c line));
  (* Restart: the prober re-admits and byte-identical service resumes. *)
  start_shard victim;
  wait_until "prober re-admits the restarted shard" (fun () ->
      List.mem victim (Router.live_shards router));
  Client.with_conn raddr @@ fun c ->
  check Alcotest.string "byte-identical service after restart" expected
    (request_exn c line);
  check Alcotest.bool "the outage produced some answered requests" true
    (!identical + !unavailable = 40)

(* A restarted primary is a fresh process (new health generation): the
   router must replay the session's accepted updates into it before it
   serves the session again. *)
let test_router_replay_after_restart () =
  with_cluster "p" @@ fun ~router ~raddr ~stop_shard ~start_shard ->
  let tag = "p" in
  let updates =
    [ update_line ~id:"u1" ~row:3 tag; update_line ~id:"u2" ~row:4 tag ]
  in
  let q = certain_line ~id:"pq" tag in
  let after = List.nth (reference (updates @ [ q ])) 2 in
  (Client.with_conn raddr @@ fun c ->
   List.iter
     (fun u ->
       check Alcotest.bool "update accepted" true
         (contains (request_exn c u) {|"ok":true|}))
     updates;
   check Alcotest.string "post-update read" after (request_exn c q));
  let victim =
    match Router.primary_of router ~schema ~db:(db tag) with
    | Some v -> v
    | None -> Alcotest.fail "session has no primary"
  in
  stop_shard victim;
  wait_until "prober ejects the stopped primary" (fun () ->
      not (List.mem victim (Router.live_shards router)));
  start_shard victim;
  wait_until "prober re-admits the restarted primary" (fun () ->
      List.mem victim (Router.live_shards router));
  (* Reads rotate over the two replicas, so one of these two reaches
     the restarted primary and makes the router replay its log there. *)
  (Client.with_conn raddr @@ fun c ->
   for _ = 1 to 2 do
     check Alcotest.string "read after restart" after (request_exn c q)
   done);
  Client.with_conn (Daemon.Unix_sock victim) @@ fun c ->
  check Alcotest.string "restarted primary holds both updates" after
    (request_exn c q)

(* A primary that restarts between two probes is first met by
   requests: its digest line gets unknown_session, and the router
   replays the log into the new process. Once the prober has seen the
   new generation too, the shard must go on serving the session by
   digest, reads and updates alike, without replaying the log into it
   a second time. *)
let test_router_restart_between_probes () =
  with_cluster ~probe_interval_s:1.0 "rb"
  @@ fun ~router ~raddr ~stop_shard ~start_shard ->
  let tag = "rb" in
  let q = certain_line ~id:"q" tag in
  let u1 = update_line ~id:"u1" ~row:3 tag
  and u2 = update_line ~id:"u2" ~row:4 tag in
  let after1, upd2, after2 =
    match reference [ u1; q; u2; q ] with
    | [ _; a; u; b ] -> (a, u, b)
    | _ -> assert false
  in
  let victim =
    match Router.primary_of router ~schema ~db:(db tag) with
    | Some v -> v
    | None -> Alcotest.fail "session has no primary"
  in
  (Client.with_conn raddr @@ fun c ->
   check Alcotest.bool "update accepted" true
     (contains (request_exn c u1) {|"ok":true|});
   check Alcotest.string "post-update read" after1 (request_exn c q));
  stop_shard victim;
  start_shard victim;
  (* Reads alternate over the two replicas: the first that picks the
     primary finds its pooled connection dead and fails over, a later
     one reaches the new process. *)
  (Client.with_conn raddr @@ fun c ->
   for _ = 1 to 4 do
     check Alcotest.string "read inside the probe interval" after1
       (request_exn c q)
   done);
  Unix.sleepf 2.5;
  (Client.with_conn raddr @@ fun c ->
   check Alcotest.string "update after the prober saw the restart" upd2
     (request_exn c u2);
   for _ = 1 to 2 do
     check Alcotest.string "read after the prober saw the restart" after2
       (request_exn c q)
   done);
  Client.with_conn (Daemon.Unix_sock victim) @@ fun c ->
  check Alcotest.string "the restarted primary holds both updates" after2
    (request_exn c q)

(* Item 2's router gate: a daemon that evicts an updated session must
   not answer from its reloaded text. Both shards hold one session at
   a time; a request on session B evicts session A from the shard it
   reaches, and both reads of A that follow (one per replica) must
   still see A's acknowledged insert. *)
let test_router_eviction_keeps_updates () =
  with_cluster ~shards:2 ~max_sessions:1 "ev"
  @@ fun ~router:_ ~raddr ~stop_shard:_ ~start_shard:_ ->
  let schema = "R(a)" in
  let line ~id ~db fields =
    W.obj
      ([ ("id", W.S id); ("schema", W.S schema); ("db", W.S db) ] @ fields)
  in
  let certain ~id db =
    line ~id ~db [ ("op", W.S "certain"); ("query", W.S "Q(x) := R(x)") ]
  in
  let a = "R = { ('x') }" and b = "R = { ('b') }" in
  Client.with_conn raddr @@ fun c ->
  check Alcotest.bool "insert into A accepted" true
    (contains
       (request_exn c
          (line ~id:"u" ~db:a
             [ ("op", W.S "update"); ("action", W.S "insert");
               ("relation", W.S "R"); ("tuple", W.S "('y')")
             ]))
       {|"ok":true|});
  check Alcotest.bool "B answered" true
    (contains (request_exn c (certain ~id:"b" b)) {|"certain":"(b)"|});
  for i = 1 to 2 do
    let resp = request_exn c (certain ~id:(Printf.sprintf "a%d" i) a) in
    check Alcotest.bool ("A keeps its insert: " ^ resp) true
      (contains resp {|"certain":"(x); (y)"|})
  done

let test_router_caps_line_length () =
  with_cluster "cap" @@ fun ~router:_ ~raddr ~stop_shard:_ ~start_shard:_ ->
  Client.with_conn raddr @@ fun c ->
  (* One line just past the 1 MiB cap: a typed parse_error, then the
     connection is closed (mid-line there is nothing to resync to). *)
  Client.send_line c (String.make ((1 lsl 20) + 16) 'x');
  (match Client.recv_line c with
  | Some resp ->
      check Alcotest.bool "typed parse_error" true
        (contains resp {|"error":"parse_error"|});
      check Alcotest.bool "says the line was too long" true
        (contains resp "exceeds")
  | None -> Alcotest.fail "no response to the over-long line");
  match Client.recv_line c with
  | None -> ()
  | Some l -> Alcotest.failf "connection should be closed, got %s" l

(* The router reads with the same capped reader as the daemon: a
   line of exactly 2^20 bytes is answered, one more byte is refused. *)
let test_router_cap_is_exact () =
  with_cluster "exact" @@ fun ~router:_ ~raddr ~stop_shard:_ ~start_shard:_ ->
  let health_of_length n =
    let shell = W.obj [ ("op", W.S "health"); ("id", W.S "") ] in
    W.obj
      [ ("op", W.S "health");
        ("id", W.S (String.make (n - String.length shell) 'p'))
      ]
  in
  Client.with_conn raddr (fun c ->
      check Alcotest.bool "2^20 bytes accepted" true
        (contains (request_exn c (health_of_length (1 lsl 20))) {|"ok":true|}));
  Client.with_conn raddr @@ fun c ->
  let resp = request_exn c (health_of_length ((1 lsl 20) + 1)) in
  check Alcotest.bool "2^20 + 1 bytes refused" true
    (contains resp {|"error":"parse_error"|} && contains resp "exceeds");
  match Client.recv_line c with
  | None -> ()
  | Some l -> Alcotest.failf "connection should be closed, got %s" l

(* A stub shard on the shared socket tier. It answers the router's
   health probes inline, at generation [gen] (reported to [probed]),
   and every other line (or unreadable line) with [answer]; the result
   drains it. *)
let stub_listener ?(gen = Atomic.make 1) ?(probed = ignore) sock answer =
  let l = Listener.bind (Listener.Unix_sock sock) in
  Listener.start l
    { Listener.accepted = ignore;
      line =
        (fun conn seq line ->
          match line with
          | Ok line when contains line {|"op":"health"|} ->
              let g = Atomic.get gen in
              probed g;
              Listener.send conn seq
                (W.ok_line ~id:None ~op:"health" [ ("generation", W.I g) ])
          | line -> Listener.send conn seq (answer line));
      drain = ignore
    };
  fun () ->
    Listener.drain l;
    Listener.wait l

(* The stub of the drain test holds every request until [release];
   [wait_held] returns once one is held. The held answer is larger
   than a 64 KiB read block. *)
let held_response =
  W.ok_line ~id:(Some "held") ~op:"certain"
    [ ("pad", W.S (String.make 200_000 'p')) ]

let stub_shard sock =
  let m = Mutex.create () and cv = Condition.create () in
  let held = ref false and released = ref false in
  let await pred =
    Mutex.protect m (fun () -> while not (pred ()) do Condition.wait cv m done)
  in
  let set r = Mutex.protect m (fun () -> r := true; Condition.broadcast cv) in
  let stop_listener =
    stub_listener sock (fun _ ->
        set held;
        await (fun () -> !released);
        held_response)
  in
  let release () = set released in
  let stop () =
    release ();
    stop_listener ()
  in
  (fun () -> await (fun () -> !held)), release, stop

let test_router_drain () =
  let ssock = temp_sock "drs" and rsock = temp_sock "drr" in
  List.iter (fun s -> if Sys.file_exists s then Sys.remove s) [ ssock; rsock ];
  let wait_held, release, stop = stub_shard ssock in
  Fun.protect ~finally:stop @@ fun () ->
  let raddr = Daemon.Unix_sock rsock in
  let router =
    Router.start
      (Router.default_config ~addr:raddr ~shards:[ Daemon.Unix_sock ssock ])
  in
  let c = Client.connect raddr and later = Client.connect raddr in
  (* Both connections are accepted and read before the drain starts. *)
  check Alcotest.bool "second connection served before the drain" true
    (contains (request_exn later {|{"op":"health"}|}) {|"ok":true|});
  Client.send_line c (certain_line ~id:"held" "h");
  wait_held ();
  Router.drain router;
  (* A request arriving during the drain is refused, typed: the
     connections stay up until the held request is answered. *)
  Client.send_line later (certain_line ~id:"late" "z");
  (match Client.recv_line later with
  | Some resp ->
      check Alcotest.bool "late request refused with shutting_down" true
        (contains resp {|"error":"shutting_down"|})
  | None -> Alcotest.fail "late request got no answer");
  release ();
  check Alcotest.(option string) "in-flight request answered in full"
    (Some held_response) (Client.recv_line c);
  Router.wait router;
  Client.close c;
  Client.close later;
  check Alcotest.bool "router socket unlinked" false (Sys.file_exists rsock);
  match Client.connect raddr with
  | exception Unix.Unix_error _ -> ()
  | c2 ->
      Client.close c2;
      Alcotest.fail "connect after drain should fail"

(* --- sessions named by digest ---------------------------------------- *)

(* A recording stub behind a one-shard router: [answer] sees each
   non-health line the router sent; [seen ()] lists them in order. *)
let with_stub_router ?gen ?probed tag answer f =
  let ssock = temp_sock (tag ^ "s") and rsock = temp_sock (tag ^ "r") in
  List.iter (fun s -> if Sys.file_exists s then Sys.remove s) [ ssock; rsock ];
  let m = Mutex.create () and seen = ref [] in
  let stop =
    stub_listener ?gen ?probed ssock (fun line ->
        let line = Result.get_ok line in
        Mutex.protect m (fun () -> seen := line :: !seen);
        answer line)
  in
  Fun.protect ~finally:stop @@ fun () ->
  let raddr = Daemon.Unix_sock rsock in
  let router =
    Router.start
      { (Router.default_config ~addr:raddr ~shards:[ Daemon.Unix_sock ssock ])
        with
        Router.probe_interval_s = 0.02
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Router.drain router;
      Router.wait router)
    (fun () ->
      Client.with_conn raddr (fun c ->
          f ~request:(request_exn c)
            ~seen:(fun () -> Mutex.protect m (fun () -> List.rev !seen))))

(* The stub's answer: ok, echoing the op and id and whether the line
   named its session by digest. *)
let stub_ok line =
  let r = Result.get_ok (W.parse_request line) in
  W.ok_line ~id:r.W.id ~op:r.W.op
    [ ("named", W.B (W.str_field r "session" <> None)) ]

let field line k = W.str_field (Result.get_ok (W.parse_request line)) k

let digest_of tag = Session.digest ~schema ~db:(db tag)

let by_digest tag line =
  field line "session" = Some (digest_of tag)
  && field line "db" = None
  && field line "schema" = None

let by_text line = field line "db" <> None && field line "session" = None

let test_router_names_by_digest () =
  with_stub_router "dg" stub_ok @@ fun ~request ~seen ->
  ignore (request (certain_line ~id:"q1" "d"));
  check Alcotest.string "the answer is relayed as the stub sent it"
    {|{"id":"q2","ok":true,"op":"certain","named":true}|}
    (request (certain_line ~id:"q2" "d"));
  match seen () with
  | [ first; second ] ->
      check Alcotest.bool "the first line carries the text" true
        (by_text first);
      check Alcotest.bool "the next names the session by digest alone" true
        (by_digest "d" second);
      check Alcotest.bool "and keeps the request's other fields" true
        (contains second {|"query":"Q(x) := R(x) & !S(x)"|}
        && contains second {|"id":"q2"|})
  | lines -> Alcotest.failf "stub saw %d lines, not 2" (List.length lines)

(* A stub that holds what the router loaded into it by text: a line
   that names a session it does not hold gets unknown_session, as a
   daemon that evicted it would answer. [evict ()] empties it. *)
let holding_stub () =
  let m = Mutex.create () and holds = Hashtbl.create 8 in
  let answer line =
    let r = Result.get_ok (W.parse_request line) in
    let held =
      Mutex.protect m (fun () ->
          match
            (W.str_field r "session", W.str_field r "schema", W.str_field r "db")
          with
          | Some d, _, _ -> Hashtbl.mem holds d
          | None, Some schema, Some db ->
              Hashtbl.replace holds (Session.digest ~schema ~db) ();
              true
          | None, _, _ -> true)
    in
    if held then stub_ok line
    else W.error_line ~id:r.W.id W.Unknown_session "not held"
  in
  (answer, fun () -> Mutex.protect m (fun () -> Hashtbl.reset holds))

(* A shard that lost a session answers unknown_session to its digest:
   the router replays the update log behind the text and sends the
   request again, by digest (a second loss then shows as another
   unknown_session, never as a silent reload). A session without a log
   gets the client's line again. The client sees only the retried
   answers. *)
let test_router_unknown_session_retry () =
  let answer, evict = holding_stub () in
  with_stub_router "uk" answer @@ fun ~request ~seen ->
  check Alcotest.bool "update accepted" true
    (contains (request (update_line ~id:"u1" "e")) {|"ok":true|});
  ignore (request (certain_line ~id:"f1" "f"));
  evict ();
  check Alcotest.string "the client gets the retried answer"
    {|{"id":"q","ok":true,"op":"certain","named":true}|}
    (request (certain_line ~id:"q" "e"));
  check Alcotest.string "and on a session without a log too"
    {|{"id":"f2","ok":true,"op":"certain","named":false}|}
    (request (certain_line ~id:"f2" "f"));
  match seen () with
  | [ u1; f1; named; replay; retry; named_f; retry_f ] ->
      check Alcotest.bool "update and first read went as text" true
        (by_text u1 && by_text f1);
      check Alcotest.bool "the read named the session" true
        (by_digest "e" named);
      check Alcotest.bool "then the log replays, as text" true
        (by_text replay && contains replay {|"id":"u1"|}
        && contains replay {|"op":"update"|});
      check Alcotest.bool "then the request again, by digest" true
        (by_digest "e" retry && contains retry {|"id":"q"|});
      check Alcotest.bool "the read without a log named its session" true
        (by_digest "f" named_f);
      check Alcotest.string "then went again as the client sent it"
        (certain_line ~id:"f2" "f") retry_f
  | lines -> Alcotest.failf "stub saw %d lines, not 7" (List.length lines)

(* A shard that loses the session again while it is being replayed
   (two sessions thrashing a small shard) ends the request: a read
   fails over, here to no other shard, and an update is refused. Each
   request sends the stub a bounded number of lines. *)
let test_router_lost_twice () =
  let answer line =
    if field line "session" <> None then
      W.error_line ~id:None W.Unknown_session "never held"
    else stub_ok line
  in
  with_stub_router "lt" answer @@ fun ~request ~seen ->
  check Alcotest.bool "update accepted" true
    (contains (request (update_line ~id:"u1" "g")) {|"ok":true|});
  check Alcotest.bool "the read is unavailable" true
    (contains (request (certain_line ~id:"q" "g")) {|"error":"shard_unavailable"|});
  check Alcotest.bool "so is the update" true
    (contains
       (request (update_line ~id:"u2" ~row:4 "g"))
       {|"error":"shard_unavailable"|});
  match seen () with
  | [ _u1; q; replay_q; retry_q; u2; replay_u; retry_u ] ->
      check Alcotest.bool "each request: digest, replay as text, digest" true
        (by_digest "g" q && by_text replay_q && by_digest "g" retry_q
        && by_digest "g" u2 && by_text replay_u && by_digest "g" retry_u)
  | lines -> Alcotest.failf "stub saw %d lines, not 7" (List.length lines)

(* A restarted shard holds nothing, at a new health generation: its
   digest line gets unknown_session and the router sends it the text
   again, whether or not the prober has seen the new generation yet.
   After that the shard is a holder, also once the prober has seen
   it. *)
let test_router_restart_resends_text () =
  let gen = Atomic.make 1 and probes_at_2 = Atomic.make 0 in
  let probed g = if g = 2 then Atomic.incr probes_at_2 in
  let answer, evict = holding_stub () in
  with_stub_router ~gen ~probed "rs" answer @@ fun ~request ~seen ->
  ignore (request (certain_line ~id:"q1" "r"));
  ignore (request (certain_line ~id:"q2" "r"));
  evict ();
  Atomic.set gen 2;
  ignore (request (certain_line ~id:"q3" "r"));
  (* The prober is sequential: once it has sent a second probe at the
     new generation, it has taken in the answer to the first. *)
  wait_until "the router sees generation 2" (fun () ->
      Atomic.get probes_at_2 >= 2);
  ignore (request (certain_line ~id:"q4" "r"));
  match seen () with
  | [ q1; q2; q3; q3'; q4 ] ->
      check Alcotest.bool "text first" true (by_text q1);
      check Alcotest.bool "then digest" true (by_digest "r" q2);
      check Alcotest.bool "the restarted shard lost it" true
        (by_digest "r" q3);
      check Alcotest.bool "and gets the text again" true (by_text q3');
      check Alcotest.bool "then the digest, also after the probe" true
        (by_digest "r" q4)
  | lines -> Alcotest.failf "stub saw %d lines, not 5" (List.length lines)

(* Records that no update touched are capped at 16 per shard, least
   recently used dropped first; an updated session's record stays. A
   client line that names a session by digest is refused. *)
let test_router_record_cap () =
  with_stub_router "cp" stub_ok @@ fun ~request ~seen ->
  let nseen () = List.length (seen ()) in
  let last () = List.nth (seen ()) (nseen () - 1) in
  ignore (request (update_line ~id:"u" "kept"));
  ignore (request (certain_line ~id:"a1" "lru"));
  ignore (request (certain_line ~id:"a2" "lru"));
  check Alcotest.bool "the read session is named by digest" true
    (by_digest "lru" (last ()));
  for i = 1 to 16 do
    ignore (request (certain_line ~id:"f" (Printf.sprintf "f%d" i)))
  done;
  ignore (request (certain_line ~id:"a3" "lru"));
  check Alcotest.bool "its record was dropped: the text goes again" true
    (by_text (last ()));
  ignore (request (certain_line ~id:"k" "kept"));
  check Alcotest.bool "the updated session kept its record" true
    (by_digest "kept" (last ()));
  check Alcotest.bool "health counts 16 unlogged records and the logged one"
    true
    (contains (request {|{"op":"health"}|}) {|"sessions":17|});
  let before = nseen () in
  let resp =
    request
      (W.obj
         [ ("id", W.S "s"); ("op", W.S "certain");
           ("session", W.S (digest_of "kept"));
           ("query", W.S "Q(x) := R(x) & !S(x)")
         ])
  in
  check Alcotest.bool "a client digest is a bad request" true
    (contains resp {|"error":"bad_request"|});
  check Alcotest.int "and reaches no shard" before (nseen ())

let () =
  Alcotest.run "router"
    [ ( "ring",
        [ Alcotest.test_case "deterministic across builds" `Quick
            test_ring_deterministic;
          Alcotest.test_case "ejection remaps only the owned arcs" `Quick
            test_ring_ejection_remaps_only_owned_arcs;
          Alcotest.test_case "keys spread over the shards" `Quick
            test_ring_distribution;
          Alcotest.test_case "successors are distinct live shards" `Quick
            test_ring_successors_distinct
        ] );
      ( "client",
        [ Alcotest.test_case "capped geometric backoff schedule" `Quick
            test_retry_delays;
          Alcotest.test_case "shard address parsing" `Quick test_parse_addr
        ] );
      ( "router",
        [ Alcotest.test_case "byte-identity with the sequential engine" `Quick
            test_router_byte_identity;
          Alcotest.test_case "router-answered health" `Quick test_router_health;
          Alcotest.test_case "update forwards to every replica" `Quick
            test_router_update_forwarding;
          Alcotest.test_case "failover: correct bytes or typed error" `Quick
            test_router_failover;
          Alcotest.test_case "updates replayed into a restarted primary"
            `Quick test_router_replay_after_restart;
          Alcotest.test_case "a primary restarted between two probes" `Quick
            test_router_restart_between_probes;
          Alcotest.test_case "request lines are length-capped" `Quick
            test_router_caps_line_length;
          Alcotest.test_case "graceful drain" `Quick test_router_drain;
          Alcotest.test_case "line cap is exact at 2^20 bytes" `Quick
            test_router_cap_is_exact;
          Alcotest.test_case "an evicted session keeps its updates" `Quick
            test_router_eviction_keeps_updates
        ] );
      ( "digest",
        [ Alcotest.test_case "a holder gets the digest, not the db" `Quick
            test_router_names_by_digest;
          Alcotest.test_case "unknown_session: replay, then retry" `Quick
            test_router_unknown_session_retry;
          Alcotest.test_case "a session lost during its replay ends the request"
            `Quick test_router_lost_twice;
          Alcotest.test_case "a restarted shard gets the text again" `Quick
            test_router_restart_resends_text;
          Alcotest.test_case "records are capped, logged ones kept" `Quick
            test_router_record_cap
        ] )
    ]

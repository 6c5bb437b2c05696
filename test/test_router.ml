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

let shard_config sock =
  { (Daemon.default_config (Daemon.Unix_sock sock)) with
    Daemon.service_threads = 2;
    max_sessions = 16
  }

(* Three shards and a router with a fast prober, torn down in reverse. *)
let with_cluster ?(replicas = 2) tag f =
  let socks = List.init 3 (fun i -> temp_sock (Printf.sprintf "%s%d" tag i)) in
  List.iter (fun s -> if Sys.file_exists s then Sys.remove s) socks;
  let daemons = List.map (fun s -> Daemon.start (shard_config s)) socks in
  let rsock = temp_sock (tag ^ "r") in
  if Sys.file_exists rsock then Sys.remove rsock;
  let cfg =
    { (Router.default_config ~addr:(Daemon.Unix_sock rsock)
         ~shards:(List.map (fun s -> Daemon.Unix_sock s) socks))
      with
      Router.replicas;
      probe_interval_s = 0.05;
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
   health probes inline and holds every other request until [release];
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
  let l = Listener.bind (Listener.Unix_sock sock) in
  Listener.start l
    { Listener.accepted = ignore;
      line =
        (fun conn seq line ->
          match line with
          | Ok line when contains line {|"op":"health"|} ->
              Listener.send conn seq
                (W.ok_line ~id:None ~op:"health" [ ("generation", W.I 1) ])
          | _ ->
              set held;
              await (fun () -> !released);
              Listener.send conn seq held_response);
      drain = ignore
    };
  let release () = set released in
  let stop () =
    release ();
    Listener.drain l;
    Listener.wait l
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
          Alcotest.test_case "request lines are length-capped" `Quick
            test_router_caps_line_length;
          Alcotest.test_case "graceful drain" `Quick test_router_drain;
          Alcotest.test_case "line cap is exact at 2^20 bytes" `Quick
            test_router_cap_is_exact
        ] )
    ]

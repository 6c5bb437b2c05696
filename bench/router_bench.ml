(* bench --router: load-generate against the sharded serving tier and
   gate on bit-identity with the single-process engine.

   The workload spreads 8 (schema, db) sessions over the ring —
   certain/measure/analyze per session — and every response must be
   byte-identical to the line Service.handle with jobs = 1 produces on
   a fresh sequential session store. The router proxies raw lines, so
   identity holds by construction; this bench is the gate that keeps
   it that way. [update] responses compare byte for byte too: their
   generation counts the session's acknowledged updates.

   In-process mode (default) measures one shard vs a 4-shard ring
   behind a router, then runs the failover phase: apply updates
   through the router (replicas = 2), drain the primary of a hot
   session mid-load, and require every in-flight response to be either
   the correct bytes or a typed shard_unavailable — then restart the
   shard, wait for re-admission, and require byte-identical service to
   resume. NOTE: in-process shards share one OCaml domain (systhreads),
   so the in-process speedup figure is meaningless and not gated.

   External mode (--socket ROUTER --ref-socket SHARD) drives processes
   started by scripts/check-router.sh: phase timings against the ref
   shard and the router yield speedup_vs_1shard, gated by the script
   on multicore runners. *)

module W = Server.Wire
module Daemon = Server.Daemon
module Router = Shard.Router

type item = { line : string; expected : string }

type phase = {
  label : string;
  requests : int;
  protocol_errors : int;
  mismatches : (string * string) list;
  wall_s : float;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
}

type failover = {
  fo_updates : int;
  fo_update_mismatches : int;
  fo_replicated_identical : bool;
  fo_load_responses : int;
  fo_identical : int;
  fo_unavailable : int;
  fo_wrong : int;
  fo_readmitted : bool;
  fo_recovered_identical : bool;
}

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let nsessions = 8
let schema = "R(a,b); S(a,b)"

let db i =
  Printf.sprintf "R = { ('c%d', ~1), ('d%d', 'v') }; S = { ('c%d', 'v') }" i i i

let req id op fields =
  W.obj
    ([ ("id", W.S id); ("op", W.S op) ]
    @ List.map (fun (k, v) -> (k, W.S v)) fields)

let query_lines i =
  let s = [ ("schema", schema); ("db", db i) ] in
  [ req (Printf.sprintf "s%dq1" i) "certain"
      (s @ [ ("query", "Q(x,y) := R(x,y) & !S(x,y)") ]);
    req (Printf.sprintf "s%dq2" i) "measure"
      (s
      @ [ ("query", "Q(x,y) := R(x,y)");
          ("tuple", Printf.sprintf "('c%d', ~1)" i); ("ks", "2,3")
        ]);
    req (Printf.sprintf "s%dq3" i) "analyze"
      (s @ [ ("query", "Q(x) := exists y. R(x,y) & !S(x,y)"); ("scheme", "sql") ])
  ]

let update_line i =
  req (Printf.sprintf "s%du" i) "update"
    [ ("schema", schema); ("db", db i); ("action", "insert");
      ("relation", "R"); ("tuple", Printf.sprintf "('e%d', 'v')" i)
    ]

let base_lines = List.concat (List.init nsessions query_lines)
let update_lines = List.init nsessions update_line

(* The reference: one sequential pass through Service.handle in the
   exact phase order the bench drives — base queries on pristine
   sessions, then the updates, then the same queries post-update. *)
let build_reference () =
  let sessions = Server.Session.create ~max_sessions:64 () in
  let eval line =
    match W.parse_request line with
    | Error msg -> failwith ("bench workload line does not parse: " ^ msg)
    | Ok r ->
        let expected =
          match Server.Service.handle ~sessions ~jobs:1 r with
          | Ok payload -> W.ok_line ~id:r.W.id ~op:r.W.op payload
          | Error (err, msg) -> W.error_line ~id:r.W.id err msg
        in
        { line; expected }
  in
  let base = List.map eval base_lines in
  let updates = List.map eval update_lines in
  let updated = List.map eval base_lines in
  (base, updates, updated)

(* ------------------------------------------------------------------ *)
(* Load phases                                                         *)
(* ------------------------------------------------------------------ *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let run_phase ~label ~addr ~clients ~iters items =
  let lock = Mutex.create () in
  let latencies = ref [] in
  let errors = ref 0 in
  let mismatches = ref [] in
  let body () =
    Server.Client.with_conn addr @@ fun c ->
    Server.Client.set_timeout c 60.0;
    let lats = Array.make (iters * List.length items) 0 in
    let n = ref 0 in
    for _ = 1 to iters do
      List.iter
        (fun item ->
          let t0 = Obs.Clock.now_ns () in
          let resp = Server.Client.request c item.line in
          lats.(!n) <- Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0);
          incr n;
          match resp with
          | None -> Mutex.protect lock (fun () -> incr errors)
          | Some got ->
              if not (String.equal got item.expected) then
                Mutex.protect lock (fun () ->
                    if List.length !mismatches < 3 then
                      mismatches := (item.expected, got) :: !mismatches))
        items
    done;
    Mutex.protect lock (fun () -> latencies := lats :: !latencies)
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun _ -> Thread.create body ()) in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let all = Array.concat !latencies in
  Array.sort compare all;
  { label;
    requests = Array.length all;
    protocol_errors = !errors;
    mismatches = List.rev !mismatches;
    wall_s;
    p50_ns = percentile all 0.50;
    p95_ns = percentile all 0.95;
    p99_ns = percentile all 0.99
  }

let req_s p =
  if p.wall_s > 0. then float_of_int p.requests /. p.wall_s else 0.

let print_phase p =
  Printf.printf
    "  %-10s %d requests in %.2fs (%.0f req/s)  p50=%.1fus p95=%.1fus \
     p99=%.1fus  errors=%d  %s\n%!"
    p.label p.requests p.wall_s (req_s p)
    (float_of_int p.p50_ns /. 1e3)
    (float_of_int p.p95_ns /. 1e3)
    (float_of_int p.p99_ns /. 1e3)
    p.protocol_errors
    (if p.mismatches = [] then "[responses identical]"
     else "[RESPONSES DIFFER!]");
  List.iter
    (fun (expected, got) ->
      Printf.printf "    expected: %s\n    got:      %s\n" expected got)
    p.mismatches

(* One sequential identity pass; returns (checked, mismatches). *)
let identity_pass ~addr items =
  Server.Client.with_conn addr @@ fun c ->
  Server.Client.set_timeout c 60.0;
  List.fold_left
    (fun (n, bad) item ->
      match Server.Client.request c item.line with
      | Some got when String.equal got item.expected -> (n + 1, bad)
      | _ -> (n + 1, bad + 1))
    (0, 0) items

(* ------------------------------------------------------------------ *)
(* Failover (in-process mode)                                          *)
(* ------------------------------------------------------------------ *)

let shard_cfg ~sock =
  { (Daemon.default_config (Daemon.Unix_sock sock)) with
    service_threads = 2;
    max_sessions = 32
  }

let wait_member ~addr ~name ~state ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let want = name ^ "=" ^ state in
  let rec go () =
    if Unix.gettimeofday () > deadline then false
    else
      let seen =
        match
          Server.Client.with_conn addr (fun c ->
              Server.Client.request c (req "mb" "health" []))
        with
        | Some resp -> contains resp want
        | None | (exception Unix.Unix_error _) -> false
      in
      if seen then true
      else begin
        Thread.delay 0.05;
        go ()
      end
  in
  go ()

let run_failover ~router_addr ~router ~daemons ~updates ~updated =
  (* 1. Updates through the router: accepted, and the same response
     the reference produced. *)
  let _, update_bad = identity_pass ~addr:router_addr updates in
  (* 2. Reads after updates round-robin over both replicas: one full
     identity pass proves the forwarded state is verdict-identical on
     every replica that serves. Two passes make sure the round-robin
     cursor visits both sides. *)
  let replicated_ok =
    let _, bad1 = identity_pass ~addr:router_addr updated in
    let _, bad2 = identity_pass ~addr:router_addr updated in
    bad1 = 0 && bad2 = 0
  in
  (* 3. Drain the primary of session 0 under load; every response must
     be the correct bytes or a typed shard_unavailable. *)
  let victim_name =
    match Router.primary_of router ~schema ~db:(db 0) with
    | Some n -> n
    | None -> failwith "router has no primary for session 0"
  in
  let victim =
    match List.find_opt (fun (name, _, _) -> name = victim_name) daemons with
    | Some d -> d
    | None -> failwith ("no in-process daemon named " ^ victim_name)
  in
  let stop = Atomic.make false in
  let lock = Mutex.create () in
  let identical = ref 0 and unavailable = ref 0 and wrong = ref 0 in
  let body () =
    Server.Client.with_conn router_addr @@ fun c ->
    Server.Client.set_timeout c 60.0;
    while not (Atomic.get stop) do
      List.iter
        (fun item ->
          if not (Atomic.get stop) then
            match Server.Client.request c item.line with
            | Some got when String.equal got item.expected ->
                Mutex.protect lock (fun () -> incr identical)
            | Some got when contains got "\"error\":\"shard_unavailable\"" ->
                Mutex.protect lock (fun () -> incr unavailable)
            | Some _ | None -> Mutex.protect lock (fun () -> incr wrong))
        updated
    done
  in
  let threads = List.init 4 (fun _ -> Thread.create body ()) in
  Thread.delay 0.2;
  let _, victim_t, victim_cfg = victim in
  Daemon.drain victim_t;
  Daemon.wait victim_t;
  (* Let the prober eject it and the ring remap while load continues. *)
  let _ = wait_member ~addr:router_addr ~name:victim_name ~state:"down"
      ~timeout_s:10.0
  in
  Thread.delay 0.3;
  Atomic.set stop true;
  List.iter Thread.join threads;
  (* 4. Restart on the same address; the probe re-admits it under a
     fresh generation and replay restores its sessions on first
     touch. *)
  let revived = Daemon.start victim_cfg in
  let readmitted =
    wait_member ~addr:router_addr ~name:victim_name ~state:"up" ~timeout_s:10.0
  in
  let _, recover_bad = identity_pass ~addr:router_addr updated in
  let _, recover_bad2 = identity_pass ~addr:router_addr updated in
  let fo =
    { fo_updates = List.length updates;
      fo_update_mismatches = update_bad;
      fo_replicated_identical = replicated_ok;
      fo_load_responses = !identical + !unavailable + !wrong;
      fo_identical = !identical;
      fo_unavailable = !unavailable;
      fo_wrong = !wrong;
      fo_readmitted = readmitted;
      fo_recovered_identical = recover_bad = 0 && recover_bad2 = 0
    }
  in
  (fo, revived)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let emit_json ~smoke ~mode ~shards ~replicas path (one : phase) (rtr : phase)
    (fo : failover option) =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  let phase_json name p comma =
    out "  \"%s\": {\n" name;
    out "    \"requests\": %d,\n" p.requests;
    out "    \"protocol_errors\": %d,\n" p.protocol_errors;
    out "    \"identical\": %b,\n" (p.mismatches = []);
    out "    \"wall_s\": %.3f,\n" p.wall_s;
    out "    \"requests_per_s\": %.1f,\n" (req_s p);
    out "    \"p50_ns\": %d,\n" p.p50_ns;
    out "    \"p95_ns\": %d,\n" p.p95_ns;
    out "    \"p99_ns\": %d\n" p.p99_ns;
    out "  }%s\n" (if comma then "," else "")
  in
  out "{\n";
  out "  \"schema_version\": 1,\n";
  out "  \"generated_by\": \"bench/main.exe --router%s\",\n"
    (if smoke then " --smoke" else "");
  out "  \"mode\": \"%s\",\n" mode;
  out "  \"shards\": %d,\n" shards;
  out "  \"replicas\": %d,\n" replicas;
  out "  \"recommended_domain_count\": %d,\n" (Exec.Pool.default_jobs ());
  phase_json "one_shard" one true;
  phase_json "router" rtr true;
  out "  \"speedup_vs_1shard\": %.2f%s\n"
    (if req_s one > 0. then req_s rtr /. req_s one else 0.)
    (if fo = None then "" else ",");
  (match fo with
  | None -> ()
  | Some f ->
      out "  \"failover\": {\n";
      out "    \"updates\": %d,\n" f.fo_updates;
      out "    \"update_mismatches\": %d,\n" f.fo_update_mismatches;
      out "    \"replicated_identical\": %b,\n" f.fo_replicated_identical;
      out "    \"load_responses\": %d,\n" f.fo_load_responses;
      out "    \"identical\": %d,\n" f.fo_identical;
      out "    \"shard_unavailable\": %d,\n" f.fo_unavailable;
      out "    \"wrong\": %d,\n" f.fo_wrong;
      out "    \"readmitted\": %b,\n" f.fo_readmitted;
      out "    \"recovered_identical\": %b\n" f.fo_recovered_identical;
      out "  }\n");
  out "}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let tmp_sock tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "certainty-router-%s-%d.sock" tag (Unix.getpid ()))

let run ~smoke ~out ?socket ?ref_socket () =
  Obs.Metrics.enable ();
  let clients, iters = if smoke then (4, 6) else (8, 25) in
  let nshards = 4 and replicas = 2 in
  let base, updates, updated = build_reference () in
  Printf.printf
    "\n== router tier (%s; %d shards, %d replicas; %d clients x %d iterations \
     x %d ops) ==\n%!"
    (if socket = None then "in-process" else "external --socket")
    nshards replicas clients iters (List.length base);
  match (socket, ref_socket) with
  | Some router_sock, Some ref_sock ->
      (* External mode: both tiers already running; measure and check
         identity, leave failover to the orchestrating script. *)
      let one =
        run_phase ~label:"1 shard" ~addr:(Daemon.Unix_sock ref_sock) ~clients
          ~iters base
      in
      let rtr =
        run_phase ~label:"router" ~addr:(Daemon.Unix_sock router_sock) ~clients
          ~iters base
      in
      print_phase one;
      print_phase rtr;
      Printf.printf "  speedup vs 1 shard: %.2fx\n%!"
        (if req_s one > 0. then req_s rtr /. req_s one else 0.);
      emit_json ~smoke ~mode:"external" ~shards:nshards ~replicas out one rtr
        None;
      Printf.printf "wrote %s\n%!" out;
      if
        one.protocol_errors > 0 || one.mismatches <> []
        || rtr.protocol_errors > 0 || rtr.mismatches <> []
      then begin
        prerr_endline
          "FATAL: router bench failed (protocol error or response divergence)";
        exit 1
      end
  | Some _, None | None, Some _ ->
      prerr_endline "error: --router external mode needs both --socket ROUTER and --ref-socket SHARD";
      exit 2
  | None, None ->
      (* One-shard reference timing. *)
      let one_sock = tmp_sock "one" in
      let one_t = Daemon.start (shard_cfg ~sock:one_sock) in
      let one =
        run_phase ~label:"1 shard" ~addr:(Daemon.Unix_sock one_sock) ~clients
          ~iters base
      in
      Daemon.drain one_t;
      Daemon.wait one_t;
      (* The ring. *)
      let daemons =
        List.init nshards (fun i ->
            let sock = tmp_sock (string_of_int i) in
            let cfg = shard_cfg ~sock in
            (sock, Daemon.start cfg, cfg))
      in
      let router_sock = tmp_sock "front" in
      let router_addr = Daemon.Unix_sock router_sock in
      let rcfg =
        { (Router.default_config ~addr:router_addr
             ~shards:
               (List.map (fun (s, _, _) -> Daemon.Unix_sock s) daemons))
          with
          replicas;
          probe_interval_s = 0.1;
          fail_threshold = 2;
          shard_timeout_s = 30.0;
          drain_grace_s = 5.0
        }
      in
      let router = Router.start rcfg in
      let rtr = run_phase ~label:"router" ~addr:router_addr ~clients ~iters base in
      print_phase one;
      print_phase rtr;
      Printf.printf
        "  speedup vs 1 shard: %.2fx (in-process: shards share one domain — \
         informational only)\n%!"
        (if req_s one > 0. then req_s rtr /. req_s one else 0.);
      let fo, revived =
        run_failover ~router_addr ~router ~daemons ~updates ~updated
      in
      Printf.printf
        "  failover: updates=%d (mismatches=%d) replicated_identical=%b\n\
        \            under drain: %d responses (%d identical, %d \
         shard_unavailable, %d wrong)\n\
        \            readmitted=%b recovered_identical=%b\n%!"
        fo.fo_updates fo.fo_update_mismatches fo.fo_replicated_identical
        fo.fo_load_responses fo.fo_identical fo.fo_unavailable fo.fo_wrong
        fo.fo_readmitted fo.fo_recovered_identical;
      Router.drain router;
      Router.wait router;
      Daemon.drain revived;
      Daemon.wait revived;
      (* Draining the failover victim a second time is a no-op. *)
      List.iter
        (fun (_, t, _) ->
          Daemon.drain t;
          Daemon.wait t)
        daemons;
      emit_json ~smoke ~mode:"in-process" ~shards:nshards ~replicas out one rtr
        (Some fo);
      Printf.printf "wrote %s\n%!" out;
      let failed =
        one.protocol_errors > 0 || one.mismatches <> []
        || rtr.protocol_errors > 0 || rtr.mismatches <> []
        || fo.fo_update_mismatches > 0
        || (not fo.fo_replicated_identical)
        || fo.fo_wrong > 0 || fo.fo_load_responses = 0 || fo.fo_identical = 0
        || (not fo.fo_readmitted)
        || not fo.fo_recovered_identical
      in
      if failed then begin
        prerr_endline
          "FATAL: router bench failed (response divergence, wrong answer \
           under failover, or no re-admission)";
        exit 1
      end

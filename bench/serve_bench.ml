(* bench --serve: load-generate against the query service and gate on
   bit-identity.

   Phase A (throughput): N client threads replay a fixed workload of
   certain/measure/conditional/analyze requests over their own
   connections and record per-request latency. Every response must be
   byte-identical to the expected line, which is built beforehand by
   running the same parsed requests through Service.handle with
   jobs = 1 on a fresh session store — i.e. the sequential CLI engine.
   Exact accumulators make the server's parallel sweeps bit-identical
   to that reference, so any diff is a real bug, not jitter.

   Phase B (saturation): a deliberately tiny server (one worker,
   max_queue = 1) against a burst of slow requests — the admission
   queue must shed load with typed 'overloaded' responses and keep
   answering health, rather than queue without bound or fall over.

   With --socket PATH, phase A drives an externally started server
   (the CI smoke job) and phase B is skipped — the external server's
   queue geometry is not ours to saturate. *)

module W = Server.Wire
module Daemon = Server.Daemon

type item = { line : string; expected : string }

type phase_a = {
  clients : int;
  iters : int;
  requests : int;
  protocol_errors : int;
  mismatches : (string * string) list;  (* (expected, got), first few *)
  wall_s : float;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
}

type phase_b = {
  burst : int;
  ok : int;
  overloaded : int;
  other : int;
  health_ok : bool;
  overloaded_counter : int;
}

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let schema_a = "R(a,b); S(a,b)"
let db_a = "R = { ('c1', ~1), ('c2', 'v') }; S = { ('c1', 'v') }"
let schema_b = "T(a,b)"
let db_b = "T = { ('k1', ~1), ('k1', ~2) }"

let req id op fields =
  W.obj
    ([ ("id", W.S id); ("op", W.S op) ]
    @ List.map (fun (k, v) -> (k, W.S v)) fields)

let workload_lines =
  [ req "w1" "certain"
      [ ("schema", schema_a); ("db", db_a);
        ("query", "Q(x,y) := R(x,y) & !S(x,y)")
      ];
    req "w2" "measure"
      [ ("schema", schema_a); ("db", db_a); ("query", "Q(x,y) := R(x,y)");
        ("tuple", "('c1', ~1)"); ("ks", "2,3")
      ];
    req "w3" "conditional"
      [ ("schema", schema_b); ("db", db_b); ("constraints", "fd T : a -> b");
        ("query", "Q() := exists x. exists y. T(x, y)"); ("ks", "2,3")
      ];
    req "w4" "analyze"
      [ ("schema", schema_a); ("db", db_a);
        ("query", "Q(x) := exists y. R(x,y) & !S(x,y)"); ("scheme", "sql")
      ]
  ]

(* The response line the service sends for one parsed request. *)
let respond ~sessions ~jobs (r : W.request) =
  match Server.Service.handle ~sessions ~jobs r with
  | Ok payload -> W.ok_line ~id:r.W.id ~op:r.W.op payload
  | Error (err, msg) -> W.error_line ~id:r.W.id err msg

(* The reference: the same requests through the sequential engine. *)
let build_workload () =
  let sessions = Server.Session.create () in
  List.map
    (fun line ->
      match W.parse_request line with
      | Error msg -> failwith ("bench workload line does not parse: " ^ msg)
      | Ok r -> { line; expected = respond ~sessions ~jobs:1 r })
    workload_lines

(* ------------------------------------------------------------------ *)
(* Phase A: throughput, latency, identity                              *)
(* ------------------------------------------------------------------ *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let run_phase_a ~addr ~clients ~iters items =
  let lock = Mutex.create () in
  let latencies = ref [] in
  let errors = ref 0 in
  let mismatches = ref [] in
  let body () =
    Server.Client.with_conn addr @@ fun c ->
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
  { clients;
    iters;
    requests = Array.length all;
    protocol_errors = !errors;
    mismatches = List.rev !mismatches;
    wall_s;
    p50_ns = percentile all 0.50;
    p95_ns = percentile all 0.95;
    p99_ns = percentile all 0.99
  }

(* ------------------------------------------------------------------ *)
(* Phase B: saturation                                                 *)
(* ------------------------------------------------------------------ *)

(* Slow enough (4 nulls, k = 25: 390 625 valuations) that the single
   worker is still busy when the rest of the burst lands. *)
let slow_line =
  req "slow" "measure"
    [ ("schema", "U(a,b,c,d)"); ("db", "U = { (~1, ~2, ~3, ~4) }");
      ("query", "Q() := exists x. U(x, x, x, x)"); ("ks", "25")
    ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let run_phase_b ~burst =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "certainty-bench-sat-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    { (Daemon.default_config (Daemon.Unix_sock sock)) with
      service_threads = 1;
      max_queue = 1
    }
  in
  let before = Obs.Metrics.value Obs.Metrics.serve_overloaded in
  let t = Daemon.start cfg in
  let lock = Mutex.create () in
  let ok = ref 0 and overloaded = ref 0 and other = ref 0 in
  let body () =
    Server.Client.with_conn (Daemon.Unix_sock sock) @@ fun c ->
    match Server.Client.request c slow_line with
    | Some resp when contains resp "\"ok\":true" ->
        Mutex.protect lock (fun () -> incr ok)
    | Some resp when contains resp "\"error\":\"overloaded\"" ->
        Mutex.protect lock (fun () -> incr overloaded)
    | Some _ | None -> Mutex.protect lock (fun () -> incr other)
  in
  let threads = List.init burst (fun _ -> Thread.create body ()) in
  List.iter Thread.join threads;
  let health_ok =
    Server.Client.with_conn (Daemon.Unix_sock sock) @@ fun c ->
    match Server.Client.request c (req "hb" "health" []) with
    | Some resp -> contains resp "\"ok\":true"
    | None -> false
  in
  Daemon.drain t;
  Daemon.wait t;
  { burst;
    ok = !ok;
    overloaded = !overloaded;
    other = !other;
    health_ok;
    overloaded_counter = Obs.Metrics.value Obs.Metrics.serve_overloaded - before
  }

(* ------------------------------------------------------------------ *)
(* Driver and JSON                                                     *)
(* ------------------------------------------------------------------ *)

let emit_json ~smoke ~external_socket path (a : phase_a) (b : phase_b option) =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema_version\": 1,\n";
  out "  \"generated_by\": \"bench/main.exe --serve%s\",\n"
    (if smoke then " --smoke" else "");
  out "  \"external_socket\": %b,\n" external_socket;
  out "  \"throughput\": {\n";
  out "    \"clients\": %d,\n" a.clients;
  out "    \"iterations_per_client\": %d,\n" a.iters;
  out "    \"requests\": %d,\n" a.requests;
  out "    \"protocol_errors\": %d,\n" a.protocol_errors;
  out "    \"identical\": %b,\n" (a.mismatches = []);
  out "    \"wall_s\": %.3f,\n" a.wall_s;
  out "    \"requests_per_s\": %.1f,\n"
    (if a.wall_s > 0. then float_of_int a.requests /. a.wall_s else 0.);
  out "    \"p50_ns\": %d,\n" a.p50_ns;
  out "    \"p95_ns\": %d,\n" a.p95_ns;
  out "    \"p99_ns\": %d\n" a.p99_ns;
  out "  }%s\n" (if b = None then "" else ",");
  (match b with
  | None -> ()
  | Some b ->
      out "  \"saturation\": {\n";
      out "    \"burst\": %d,\n" b.burst;
      out "    \"ok\": %d,\n" b.ok;
      out "    \"overloaded\": %d,\n" b.overloaded;
      out "    \"other\": %d,\n" b.other;
      out "    \"health_ok\": %b,\n" b.health_ok;
      out "    \"serve_overloaded_counter\": %d\n" b.overloaded_counter;
      out "  }\n");
  out "}\n";
  close_out oc

let run ~smoke ~out ?socket () =
  Obs.Metrics.enable ();
  let clients, iters = if smoke then (4, 25) else (8, 100) in
  let items = build_workload () in
  let addr, server =
    match socket with
    | Some path -> (Daemon.Unix_sock path, None)
    | None ->
        let sock =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "certainty-bench-%d.sock" (Unix.getpid ()))
        in
        let t = Daemon.start (Daemon.default_config (Daemon.Unix_sock sock)) in
        (Daemon.Unix_sock sock, Some t)
  in
  Printf.printf "\n== query service (%s; %d clients x %d iterations x %d ops) ==\n%!"
    (if socket = None then "in-process" else "external --socket")
    clients iters (List.length items);
  let a = run_phase_a ~addr ~clients ~iters items in
  Option.iter
    (fun t ->
      Daemon.drain t;
      Daemon.wait t)
    server;
  Printf.printf
    "  throughput: %d requests in %.2fs (%.0f req/s)  p50=%.1fus p95=%.1fus \
     p99=%.1fus  errors=%d  %s\n"
    a.requests a.wall_s
    (if a.wall_s > 0. then float_of_int a.requests /. a.wall_s else 0.)
    (float_of_int a.p50_ns /. 1e3)
    (float_of_int a.p95_ns /. 1e3)
    (float_of_int a.p99_ns /. 1e3)
    a.protocol_errors
    (if a.mismatches = [] then "[responses identical]" else "[RESPONSES DIFFER!]");
  List.iter
    (fun (expected, got) ->
      Printf.printf "    expected: %s\n    got:      %s\n" expected got)
    a.mismatches;
  let b =
    if socket <> None then None
    else begin
      let b = run_phase_b ~burst:(if smoke then 16 else 64) in
      Printf.printf
        "  saturation (1 worker, max_queue=1, burst=%d): ok=%d overloaded=%d \
         other=%d health_ok=%b counter=%d\n"
        b.burst b.ok b.overloaded b.other b.health_ok b.overloaded_counter;
      Some b
    end
  in
  emit_json ~smoke ~external_socket:(socket <> None) out a b;
  Printf.printf "wrote %s\n%!" out;
  let phase_b_bad =
    match b with
    | None -> false
    | Some b ->
        b.ok < 1 || b.overloaded < 1 || b.other > 0 || not b.health_ok
        || b.overloaded_counter < 1
  in
  if a.protocol_errors > 0 || a.mismatches <> [] || phase_b_bad then begin
    prerr_endline
      "FATAL: query-service bench failed (protocol error, response \
       divergence, or bad saturation behavior)";
    exit 1
  end

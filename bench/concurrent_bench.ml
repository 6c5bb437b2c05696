(* bench --concurrent: many requests in flight on one session store,
   every answer byte-compared with the sequential engine.

   Eight systhreads call Service.handle ~jobs:4 directly — no socket —
   on one shared Session store, the way the daemon's worker threads
   do. The mix is the measure, conditional, certain and approx requests
   of the serving benchmark's [interactive] and [sweep] workloads,
   several of them on one session and one sentence, so concurrent
   requests evaluate the same (db, sentence) pairs. Each response must
   equal the line Service.handle ~jobs:1 produces on a fresh store. A
   compiled kernel whose scratch is reachable from two requests at
   once shows up here as a wrong count.

   The budget is fixed (no size flag). Kernels shared between requests
   gave about 6 wrong answers per 100 000 on 2 vCPUs; at that rate
   64 000 requests miss the bug with probability under 5%. Exits 1 on
   any mismatch. *)

module W = Server.Wire

let threads = 8
let jobs = 4
let requests_per_thread = 8_000

let req = Serve_bench.req

(* sweep: a monolithic 4-null µ^k series and a conditional series at
   k = 20 under an FD. *)
let sweep_mono =
  [ ("schema", "R(a,b); S(a,b)");
    ("db",
      "R = { ('w0', ~1), (~1, ~2), (~2, ~3), (~3, ~4) }; \
       S = { ('w1', ~4), (~2, 'w2') }")
  ]

let sweep_cond =
  [ ("schema", "T(a,b); U(u)");
    ("db",
      "T = { ('w9', ~1), ('w9', ~2), (~3, 'w10') }; U = { ('w11'), ('w12') }")
  ]

(* interactive: one session of its 24, which all share this shape. *)
let interactive =
  [ ("schema", "R(a,b); S(a,b); U(u)");
    ("db",
      "R = { ('c0', ~1), ('c1', ~2), ('c1', 'c2'), ('c3', ~1) }; \
       S = { ('c0', ~2), ('c3', 'c4') }; U = { ('c0'), ('c1'), ('c2') }")
  ]

let mix =
  [ req "sweep-measure" "measure"
      (sweep_mono
      @ [ ("query", "Q() := exists x. R(x,x) | S(x,x)"); ("ks", "20") ]);
    req "interactive-measure" "measure"
      (interactive
      @ [ ("query", "Q(x,y) := R(x,y) & !S(x,y)"); ("tuple", "('c0', ~1)");
          ("ks", "2,3")
        ]);
    req "sweep-conditional" "conditional"
      (sweep_cond
      @ [ ("constraints", "fd T : a -> b");
          ("query", "Q() := exists x. T(x,x) | U(x) & T(x,x)"); ("ks", "20")
        ]);
    req "interactive-conditional" "conditional"
      (interactive
      @ [ ("constraints", "fd R : a -> b");
          ("query", "Q() := exists x. exists y. R(x,y) & S(x,y)")
        ]);
    req "interactive-certain" "certain"
      (interactive @ [ ("query", "Q(x,y) := R(x,y) & !S(x,y)") ]);
    req "interactive-approx" "approx"
      (interactive
      @ [ ("query", "Q() := exists x. R(x,x) | S(x,x)"); ("k", "8");
          ("eps", "1/4"); ("delta", "1/4"); ("seed", "7")
        ])
  ]

let run () =
  let parsed =
    Array.of_list
      (List.map
         (fun line ->
           match W.parse_request line with
           | Ok r -> r
           | Error msg -> failwith ("concurrent workload line: " ^ msg))
         mix)
  in
  let expected =
    let sessions = Server.Session.create () in
    Array.map (Serve_bench.respond ~sessions ~jobs:1) parsed
  in
  let sessions = Server.Session.create () in
  let lock = Mutex.create () in
  let wrong = ref 0 and shown = ref [] in
  let n = Array.length parsed in
  let body t =
    for i = 0 to requests_per_thread - 1 do
      (* Each thread walks the mix from its own offset, so every pair
         of requests meets in flight. *)
      let j = (i + t) mod n in
      let got = Serve_bench.respond ~sessions ~jobs parsed.(j) in
      if not (String.equal got expected.(j)) then
        Mutex.protect lock (fun () ->
            incr wrong;
            if List.length !shown < 3 then
              shown := (expected.(j), got) :: !shown)
    done
  in
  let t0 = Unix.gettimeofday () in
  List.iter Thread.join (List.init threads (Thread.create body));
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf
    "concurrent: %d requests, %d wrong (%d threads, jobs %d, one session \
     store, %.1f s)\n"
    (threads * requests_per_thread) !wrong threads jobs wall;
  List.iter
    (fun (e, g) -> Printf.printf "  expected %s\n  got      %s\n" e g)
    (List.rev !shown);
  if !wrong > 0 then exit 1

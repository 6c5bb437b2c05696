(* Tests for the parallel measure engine: the Exec.Pool work pool, the
   evaluation cache, and the guarantee that parallel/cached runs are
   bit-identical to sequential ones.

   Determinism rests on two facts, both exercised here:
   - Exec.Pool combines chunk partials in chunk order, and the chunk
     partition is a pure function of (n, jobs);
   - every accumulator involved (Bigint addition, Rat addition, Poly
     addition, relation union) is exact — no floating point — hence
     associative and commutative, so any chunking yields the same
     value. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Instance = Relational.Instance
module Query = Logic.Query
module Parser = Logic.Parser
module Valuation = Incomplete.Valuation
module Enumerate = Incomplete.Enumerate
module Support = Incomplete.Support
module Certain = Incomplete.Certain
module Constructions = Zeroone.Constructions
module Conditional = Zeroone.Conditional
module B = Arith.Bigint
module R = Arith.Rat

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let bigint_t = Alcotest.testable B.pp B.equal
let rat_t = Alcotest.testable R.pp R.equal
let relation_t = Alcotest.testable Relation.pp Relation.equal

let jobs_grid = [ 1; 2; 4 ]

let intro_schema =
  Parser.schema_exn "R1(customer, product); R2(customer, product)"

let intro_db () =
  Parser.instance_exn intro_schema
    "R1 = { ('c1', ~1), ('c2', ~1), ('c2', ~2) };
     R2 = { ('c1', ~2), ('c2', ~1), (~3, ~1) }"

let intro_query () = Parser.query_exn "Q(x, y) := R1(x, y) & !R2(x, y)"

(* ------------------------------------------------------------------ *)
(* Exec.Pool                                                            *)
(* ------------------------------------------------------------------ *)

let test_pool_fold_range () =
  (* Sum of [0,n) for sizes around the chunking boundaries, forced to
     actually spawn domains with ~min_work:1. *)
  List.iter
    (fun n ->
      let expect = n * (n - 1) / 2 in
      List.iter
        (fun jobs ->
          let got =
            Exec.Pool.fold_range ~jobs ~min_work:1 ~n
              ~chunk:(fun lo hi ->
                let s = ref 0 in
                for i = lo to hi - 1 do s := !s + i done;
                !s)
              ~combine:( + ) 0
          in
          check int_t (Printf.sprintf "sum n=%d jobs=%d" n jobs) expect got)
        (jobs_grid @ [ 7; 100 ]))
    [ 0; 1; 2; 3; 7; 64; 1000 ]

let test_pool_chunk_order () =
  (* combine is applied in chunk order even when combine is not
     commutative: collecting chunk bounds must give a partition of
     [0,n) in increasing order. *)
  List.iter
    (fun jobs ->
      let pieces =
        Exec.Pool.fold_range ~jobs ~min_work:1 ~n:100
          ~chunk:(fun lo hi -> [ (lo, hi) ])
          ~combine:( @ ) []
      in
      let rec contiguous from = function
        | [] -> from = 100
        | (lo, hi) :: rest -> lo = from && hi >= lo && contiguous hi rest
      in
      check bool_t
        (Printf.sprintf "chunks partition [0,100) in order, jobs=%d" jobs)
        true (contiguous 0 pieces))
    [ 1; 2; 3; 4; 9 ]

let test_pool_exception () =
  (* A raising chunk must not wedge the pool: the exception propagates
     after every domain is joined. *)
  Alcotest.check_raises "chunk exception propagates" (Failure "boom")
    (fun () ->
      ignore
        (Exec.Pool.fold_range ~jobs:4 ~min_work:1 ~n:64
           ~chunk:(fun lo _ -> if lo > 0 then failwith "boom" else 0)
           ~combine:( + ) 0))

let test_with_pool () =
  let seen = ref None in
  let r =
    Exec.Pool.with_pool (fun pool ->
        seen := Some pool;
        Exec.Pool.fold_range ~pool ~jobs:4 ~min_work:1 ~n:100
          ~chunk:(fun lo hi -> hi - lo)
          ~combine:( + ) 0)
  in
  check int_t "body result returned" 100 r;
  match !seen with
  | None -> Alcotest.fail "body never ran"
  | Some pool ->
      check bool_t "pool shut down after return" true (Exec.Pool.is_stopped pool)

let test_with_pool_raising_body () =
  (* The scoped pool must be torn down even when the body raises —
     otherwise every failed request in the server would leak domains. *)
  let seen = ref None in
  Alcotest.check_raises "body exception propagates" (Failure "body")
    (fun () ->
      Exec.Pool.with_pool (fun pool ->
          seen := Some pool;
          failwith "body"));
  match !seen with
  | None -> Alcotest.fail "body never ran"
  | Some pool ->
      check bool_t "pool shut down after raise" true
        (Exec.Pool.is_stopped pool)

let test_guard_cancels () =
  (* A raising guard aborts the fold: the exception propagates, the
     pool survives for the next fold. This is the deadline mechanism of
     the query service. *)
  let budget = Atomic.make 5 in
  Alcotest.check_raises "guard exception propagates" Exit (fun () ->
      ignore
        (Exec.Pool.fold_range ~jobs:4 ~min_work:1 ~n:(1 lsl 20)
           ~guard:(fun () ->
             if Atomic.fetch_and_add budget (-1) <= 0 then raise Exit)
           ~chunk:(fun lo hi -> hi - lo)
           ~combine:( + ) 0));
  check int_t "pool still folds after a cancelled run" 64
    (Exec.Pool.fold_range ~jobs:4 ~min_work:1 ~n:64
       ~chunk:(fun lo hi -> hi - lo)
       ~combine:( + ) 0)

let test_guard_identical () =
  (* A pass-through guard refines the chunk partition (bounded check
     granularity) but must not change the answer: combine order stays
     chunk order and the accumulators are exact. *)
  let n = (1 lsl 17) + 13 in
  let expect =
    Exec.Pool.fold_range ~jobs:1 ~n
      ~chunk:(fun lo hi ->
        let s = ref 0 in
        for i = lo to hi - 1 do s := !s + (i * i) done;
        !s)
      ~combine:( + ) 0
  in
  List.iter
    (fun jobs ->
      let calls = Atomic.make 0 in
      let got =
        Exec.Pool.fold_range ~jobs ~n
          ~guard:(fun () -> Atomic.incr calls)
          ~chunk:(fun lo hi ->
            let s = ref 0 in
            for i = lo to hi - 1 do s := !s + (i * i) done;
            !s)
          ~combine:( + ) 0
      in
      check int_t (Printf.sprintf "guarded sum jobs=%d" jobs) expect got;
      check bool_t
        (Printf.sprintf "guard saw every chunk (jobs=%d)" jobs)
        true
        (Atomic.get calls >= 2))
    jobs_grid

let test_cache_basics () =
  let cache = Exec.Cache.create () in
  let calls = ref 0 in
  let f k =
    Exec.Cache.find_or_add cache k (fun () -> incr calls; k * 10)
  in
  check int_t "miss computes" 10 (f 1);
  check int_t "hit returns" 10 (f 1);
  check int_t "distinct key computes" 20 (f 2);
  check int_t "compute called twice" 2 !calls;
  let s = Exec.Cache.stats cache in
  check int_t "hits" 1 s.Exec.Cache.hits;
  check int_t "misses" 2 s.Exec.Cache.misses;
  check int_t "entries" 2 s.Exec.Cache.entries;
  check int_t "no cap, no evictions" 0 s.Exec.Cache.evictions

let test_cache_eviction () =
  let cache = Exec.Cache.create ~max_entries:4 () in
  let f k = Exec.Cache.find_or_add cache k (fun () -> k * 10) in
  for k = 1 to 10 do
    ignore (f k)
  done;
  let s = Exec.Cache.stats cache in
  check int_t "entries capped" 4 s.Exec.Cache.entries;
  check int_t "evictions = inserts - cap" 6 s.Exec.Cache.evictions;
  check int_t "all ten were misses" 10 s.Exec.Cache.misses;
  (* FIFO: the oldest keys are gone, the newest survive. *)
  let calls = ref 0 in
  let g k = Exec.Cache.find_or_add cache k (fun () -> incr calls; k * 10) in
  check int_t "evicted key recomputes" 10 (g 1);
  check int_t "recompute really ran" 1 !calls;
  check int_t "resident key still hits" 100 (g 10);
  check int_t "hit did not recompute" 1 !calls;
  Alcotest.check_raises "negative cap rejected"
    (Invalid_argument "Cache.create: negative max_entries") (fun () ->
      ignore (Exec.Cache.create ~max_entries:(-1) () : (int, int) Exec.Cache.t))

let test_cache_concurrent_hammer () =
  (* Domains race find_or_add over a key space twice the cap: whatever
     the interleaving, the accounting must stay consistent — every call
     is a hit or a miss, the table never exceeds the cap, and only
     stored values can be evicted (a double-computed race inserts
     once, so entries + evictions never exceeds misses). *)
  let cap = 32 and keyspace = 64 and domains = 4 and per_domain = 2_000 in
  let cache = Exec.Cache.create ~max_entries:cap () in
  let worker seed () =
    let st = Random.State.make [| seed |] in
    for _ = 1 to per_domain do
      let k = Random.State.int st keyspace in
      let v = Exec.Cache.find_or_add cache k (fun () -> k * 10) in
      assert (v = k * 10)
    done
  in
  let spawned = Array.init domains (fun i -> Domain.spawn (worker i)) in
  Array.iter Domain.join spawned;
  let s = Exec.Cache.stats cache in
  check int_t "every call is a hit or a miss" (domains * per_domain)
    (s.Exec.Cache.hits + s.Exec.Cache.misses);
  check bool_t "entries within cap" true (s.Exec.Cache.entries <= cap);
  check bool_t "entries + evictions <= misses" true
    (s.Exec.Cache.entries + s.Exec.Cache.evictions <= s.Exec.Cache.misses);
  check bool_t "something was evicted" true (s.Exec.Cache.evictions > 0)

let test_pool_empty_fold_after_shutdown () =
  (* n = 0 must return init without touching the pool at all — even a
     shut-down pool, whose workers are gone. *)
  let pool = Exec.Pool.create ~workers:1 () in
  Exec.Pool.shutdown pool;
  let got =
    Exec.Pool.fold_range ~pool ~jobs:4 ~min_work:1 ~n:0
      ~chunk:(fun _ _ -> Alcotest.fail "chunk ran on an empty range")
      ~combine:( + ) 42
  in
  check int_t "empty fold returns init" 42 got;
  check int_t "empty fold_list returns init" 7
    (Exec.Pool.fold_list ~pool ~jobs:4 ~min_work:1
       ~chunk:(fun _ -> Alcotest.fail "chunk ran on an empty list")
       ~combine:( + ) 7 [])

(* ------------------------------------------------------------------ *)
(* Rank-based enumeration                                               *)
(* ------------------------------------------------------------------ *)

let test_rank_enumeration () =
  let nulls = [ 2; 5; 9 ] and k = 4 in
  (match Enumerate.space_size ~nulls ~k with
  | Some n -> check int_t "space size" 64 n
  | None -> Alcotest.fail "space_size overflowed on 4^3");
  let by_fold =
    List.rev
      (Enumerate.fold_valuations ~nulls ~k (fun acc v -> v :: acc) [])
  in
  let by_rank = List.init 64 (Enumerate.valuation_of_rank ~nulls ~k) in
  check bool_t "rank order = fold order" true
    (List.for_all2 Valuation.equal by_fold by_rank);
  let by_range =
    List.rev
      (Enumerate.fold_valuations_range ~nulls ~k ~lo:0 ~hi:64
         (fun acc v -> v :: acc)
         [])
  in
  check bool_t "range fold = full fold" true
    (List.for_all2 Valuation.equal by_fold by_range)

let test_space_size_edges () =
  check bool_t "0 nulls" true (Enumerate.space_size ~nulls:[] ~k:5 = Some 1);
  check bool_t "k=0, no nulls" true
    (Enumerate.space_size ~nulls:[] ~k:0 = Some 1);
  check bool_t "k=0, nulls" true
    (Enumerate.space_size ~nulls:[ 1 ] ~k:0 = Some 0);
  check bool_t "overflow detected" true
    (Enumerate.space_size ~nulls:(List.init 80 Fun.id) ~k:10 = None)

(* ------------------------------------------------------------------ *)
(* Parallel = sequential, exactly                                       *)
(* ------------------------------------------------------------------ *)

let test_mu_k_parallel_agrees () =
  (* k = 8 on 3 nulls gives 512 valuations: exactly the spawn
     threshold, so jobs > 1 really runs on several domains. *)
  let d = intro_db () and q = intro_query () in
  let t = Parser.tuple_exn "('c1', ~1)" in
  let seq = Support.mu_k ~jobs:1 d q t ~k:8 in
  List.iter
    (fun jobs ->
      check rat_t
        (Printf.sprintf "mu_k jobs=%d" jobs)
        seq
        (Support.mu_k ~jobs d q t ~k:8))
    jobs_grid;
  let cache = Support.create_cache () in
  check rat_t "mu_k cached" seq (Support.mu_k ~jobs:2 ~cache d q t ~k:8);
  check rat_t "mu_k cache warm" seq (Support.mu_k ~jobs:1 ~cache d q t ~k:8)

let test_supp_count_parallel_agrees () =
  let d = intro_db () and q = intro_query () in
  let t = Parser.tuple_exn "('c2', ~2)" in
  let seq = Support.supp_count ~jobs:1 d q t ~k:9 in
  List.iter
    (fun jobs ->
      check bigint_t
        (Printf.sprintf "supp_count jobs=%d" jobs)
        seq
        (Support.supp_count ~jobs d q t ~k:9))
    jobs_grid

let test_certain_answers_parallel_agrees () =
  let d = intro_db () and q = intro_query () in
  let seq = Certain.certain_answers ~jobs:1 d q in
  let poss = Certain.possible_answers ~jobs:1 d q in
  let naive = Incomplete.Naive.answers d q in
  List.iter
    (fun jobs ->
      let cache = Support.create_cache () in
      check relation_t
        (Printf.sprintf "certain_answers jobs=%d" jobs)
        seq
        (Certain.certain_answers ~jobs ~cache d q);
      check relation_t
        (Printf.sprintf "possible_answers jobs=%d" jobs)
        poss
        (Certain.possible_answers ~jobs ~cache d q);
      let a = Certain.answers ~jobs ~cache d q in
      check relation_t (Printf.sprintf "answers.certain jobs=%d" jobs) seq
        a.Certain.certain;
      check relation_t (Printf.sprintf "answers.possible jobs=%d" jobs) poss
        a.Certain.possible;
      check relation_t (Printf.sprintf "answers.naive jobs=%d" jobs) naive
        a.Certain.naive)
    jobs_grid

let test_section4_parallel_agrees () =
  (* The worked example of §4: µ(Q|Σ,D) is 1/3 on (1,⊥) and 2/3 on
     (2,⊥); both the symbolic conditional measure and the brute-force
     µ^k must give the same values for every jobs/cache setting. *)
  let e = Constructions.section4_example () in
  let sigma = e.Constructions.s4_sigma in
  let d = e.Constructions.s4_instance and q = e.Constructions.s4_query in
  List.iter
    (fun jobs ->
      let cache = Support.create_cache () in
      check rat_t
        (Printf.sprintf "§4 µ=1/3 jobs=%d" jobs)
        (R.of_ints 1 3)
        (Conditional.mu_cond ~jobs ~cache ~sigma d q
           e.Constructions.s4_tuple_third);
      check rat_t
        (Printf.sprintf "§4 µ=2/3 jobs=%d" jobs)
        (R.of_ints 2 3)
        (Conditional.mu_cond ~jobs ~cache ~sigma d q
           e.Constructions.s4_tuple_two_thirds);
      (* 600 > 512 valuations: the brute-force count spawns domains. *)
      check rat_t
        (Printf.sprintf "§4 µ^k brute jobs=%d" jobs)
        (Conditional.mu_cond_k ~jobs:1 ~sigma d q
           e.Constructions.s4_tuple_third ~k:600)
        (Conditional.mu_cond_k ~jobs ~cache ~sigma d q
           e.Constructions.s4_tuple_third ~k:600))
    jobs_grid

(* Randomized: parallel and cached runs agree exactly with sequential
   ones on arbitrary small instances. *)
let prop_parallel_equals_sequential =
  let schema = Schema.make [ ("R", 2); ("S", 2) ] in
  let value_gen =
    QCheck.map
      (fun i ->
        if i >= 0 then Value.null (i mod 3)
        else Value.named ("p" ^ string_of_int (-i mod 3)))
      (QCheck.int_range (-6) 5)
  in
  let inst_gen =
    QCheck.map
      (fun (r_rows, s_rows) ->
        Instance.of_rows schema
          [ ("R", List.map (fun (a, b) -> [ a; b ]) r_rows);
            ("S", List.map (fun (a, b) -> [ a; b ]) s_rows)
          ])
      (QCheck.pair
         (QCheck.list_of_size (QCheck.Gen.int_range 0 3)
            (QCheck.pair value_gen value_gen))
         (QCheck.list_of_size (QCheck.Gen.int_range 0 2)
            (QCheck.pair value_gen value_gen)))
  in
  let queries =
    [ Parser.query_exn "Q() := exists x. exists y. R(x, y) & !S(x, y)";
      Parser.query_exn "Q() := forall x. forall y. R(x, y) -> S(x, y)"
    ]
  in
  QCheck.Test.make ~name:"parallel µ^k and □(Q,D) = sequential" ~count:30
    inst_gen (fun d ->
      List.for_all
        (fun q ->
          let cache = Support.create_cache () in
          let seq = Support.mu_k_boolean ~jobs:1 d q ~k:9 in
          List.for_all
            (fun jobs ->
              R.equal seq (Support.mu_k_boolean ~jobs ~cache d q ~k:9))
            jobs_grid
          &&
          let qa = Parser.query_exn "Q(x) := exists y. R(x, y) & !S(y, x)" in
          let seq_rel = Certain.certain_answers ~jobs:1 d qa in
          List.for_all
            (fun jobs ->
              Relation.equal seq_rel (Certain.certain_answers ~jobs ~cache d qa))
            jobs_grid)
        queries)

(* ------------------------------------------------------------------ *)
(* Order-independence of exact accumulation                             *)
(* ------------------------------------------------------------------ *)

(* The chunked fold combines partial sums in chunk order, but the
   determinism guarantee ("parallel ≡ sequential, bit for bit") needs
   more: the partial sums must be reassociable. Rat addition is exact
   rational arithmetic — unlike floats, where (a+b)+c ≠ a+(b+c) — so
   any regrouping and reordering of the same addends gives the same
   canonical value. *)
let prop_rat_sum_order_independent =
  let rat_gen =
    QCheck.map
      (fun (p, q) -> R.of_ints p (if q = 0 then 1 else abs q))
      (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range 1 97))
  in
  QCheck.Test.make ~name:"Rat: Σ is order/association independent" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 0 20) rat_gen)
    (fun xs ->
      let sum l = List.fold_left R.add R.zero l in
      let forward = sum xs in
      let backward = sum (List.rev xs) in
      (* simulate an arbitrary chunking: fold each half, then combine *)
      let n = List.length xs / 2 in
      let chunked =
        R.add
          (sum (List.filteri (fun i _ -> i < n) xs))
          (sum (List.filteri (fun i _ -> i >= n) xs))
      in
      R.equal forward backward && R.equal forward chunked)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_parallel_equals_sequential; prop_rat_sum_order_independent ]

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "fold_range sums" `Quick test_pool_fold_range;
          Alcotest.test_case "chunk order" `Quick test_pool_chunk_order;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "empty fold after shutdown" `Quick
            test_pool_empty_fold_after_shutdown;
          Alcotest.test_case "with_pool scoping" `Quick test_with_pool;
          Alcotest.test_case "with_pool raising body" `Quick
            test_with_pool_raising_body;
          Alcotest.test_case "guard cancels a fold" `Quick test_guard_cancels;
          Alcotest.test_case "guard keeps results identical" `Quick
            test_guard_identical;
          Alcotest.test_case "cache basics" `Quick test_cache_basics;
          Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
          Alcotest.test_case "cache concurrent hammer" `Quick
            test_cache_concurrent_hammer
        ] );
      ( "rank-enumeration",
        [ Alcotest.test_case "rank order = fold order" `Quick
            test_rank_enumeration;
          Alcotest.test_case "space_size edges" `Quick test_space_size_edges
        ] );
      ( "parallel-vs-sequential",
        [ Alcotest.test_case "µ^k (intro example)" `Quick
            test_mu_k_parallel_agrees;
          Alcotest.test_case "supp_count" `Quick
            test_supp_count_parallel_agrees;
          Alcotest.test_case "certain/possible answers" `Quick
            test_certain_answers_parallel_agrees;
          Alcotest.test_case "§4 conditional measure" `Quick
            test_section4_parallel_agrees
        ] );
      ("properties", qcheck_cases)
    ]

(* Benchmark harness: regenerates every experiment E1-E20 (the paper's
   theorems, propositions and worked examples — see EXPERIMENTS.md),
   runs bechamel micro-benchmarks over the computational kernels, and
   benchmarks the parallel measure engine against its sequential
   fallback, recording the trajectory in BENCH_parallel.json.

   Run with:  dune exec bench/main.exe
   Only experiments:       dune exec bench/main.exe -- --experiments
   Only timings:           dune exec bench/main.exe -- --timings
   Parallel engine + JSON: dune exec bench/main.exe -- --parallel [--jobs N] [--smoke]
   Query service + JSON:   dune exec bench/main.exe -- --serve [--smoke]
                           [--socket PATH to drive an external server]
   Update vs rebuild:      dune exec bench/main.exe -- --update [--smoke]
   Approx CI gate:         dune exec bench/main.exe -- --approx-gate
   Concurrent identity:    dune exec bench/main.exe -- --concurrent
   Regression diff:        dune exec bench/main.exe -- --diff BASE FRESH
                           [--max-regression 0.25] *)

module RInstance = Relational.Instance
module Relation = Relational.Relation
module Value = Relational.Value
module Tuple = Relational.Tuple
module Parser = Logic.Parser
module Query = Logic.Query
module Dependency = Constraints.Dependency

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmark kernels: one per experiment family                   *)
(* ------------------------------------------------------------------ *)

let intro_db = lazy (Experiments.intro_db ())
let intro_q = lazy (Experiments.intro_query ())

let kernel_naive () =
  let d = Lazy.force intro_db and q = Lazy.force intro_q in
  ignore (Incomplete.Naive.answers d q)

let kernel_mu_symbolic () =
  let d = Lazy.force intro_db and q = Lazy.force intro_q in
  ignore (Zeroone.Measure.mu_symbolic d q (Parser.tuple_exn "('c1', ~1)"))

let kernel_mu_k_bruteforce () =
  let d = Lazy.force intro_db and q = Lazy.force intro_q in
  ignore (Incomplete.Support.mu_k d q (Parser.tuple_exn "('c1', ~1)") ~k:6)

let kernel_certain () =
  let d = Lazy.force intro_db and q = Lazy.force intro_q in
  ignore (Incomplete.Certain.certain_answers d q)

let section4 = lazy (Zeroone.Constructions.section4_example ())

let kernel_conditional () =
  let e = Lazy.force section4 in
  ignore
    (Zeroone.Conditional.mu_cond ~sigma:e.Zeroone.Constructions.s4_sigma
       e.Zeroone.Constructions.s4_instance e.Zeroone.Constructions.s4_query
       e.Zeroone.Constructions.s4_tuple_third)

let chase_input =
  lazy
    (RInstance.of_rows Experiments.rs_schema
       [ ("R",
          List.concat
            (List.init 4 (fun i ->
                 [ [ Value.named ("key" ^ string_of_int i); Value.null (2 * i) ];
                   [ Value.named ("key" ^ string_of_int i); Value.null ((2 * i) + 1) ]
                 ])))
       ])

let kernel_chase () =
  let fd = { Dependency.fd_relation = "R"; fd_lhs = [ 0 ]; fd_rhs = 1 } in
  ignore (Constraints.Chase.chase [ fd ] (Lazy.force chase_input))

let sat_input = lazy (Experiments.orders_instance ~rows:64 ~nulls:3)

let kernel_sat () =
  let cs =
    [ Dependency.key "Orders" [ 0 ]; Dependency.key "Customers" [ 0 ];
      Dependency.foreign_key "Orders" [ 1 ] "Customers" [ 0 ]
    ]
  in
  ignore
    (Constraints.Sat.unary_keys_fks Experiments.orders_schema cs
       (Lazy.force sat_input))

let kernel_sep_generic () =
  let d = Lazy.force intro_db and q = Lazy.force intro_q in
  ignore
    (Compare.Sep.sep d q (Parser.tuple_exn "('c1', ~1)")
       (Parser.tuple_exn "('c2', ~2)"))

let ucq_ctx =
  lazy
    (let q = Parser.query_exn "Q(x) := exists y. R(x, y) & S(y, x)" in
     let u = Option.get (Logic.Ucq.of_query q) in
     let d =
       RInstance.of_rows Experiments.rs_schema
         [ ("R",
            List.init 3 (fun i ->
                [ Value.named ("a" ^ string_of_int i); Value.null i ]));
           ("S",
            List.init 3 (fun i ->
                [ Value.null i; Value.named ("a" ^ string_of_int i) ]))
         ]
     in
     (d, u))

let kernel_sep_ucq () =
  let d, u = Lazy.force ucq_ctx in
  ignore
    (Compare.Ucq_compare.sep d u
       (Tuple.of_list [ Value.named "a0" ])
       (Tuple.of_list [ Value.null 2 ]))

let kernel_best () =
  let d = Lazy.force intro_db and q = Lazy.force intro_q in
  ignore (Compare.Best.best d q)

let probdb_sentence =
  lazy
    (Parser.query_exn "Q() := exists x. exists y. R1(x, y) & !R2(x, y)").Query.body

let kernel_probdb () =
  let d = Lazy.force intro_db in
  let worlds = Probdb.Pworld.of_incomplete d ~k:5 in
  ignore (Probdb.Pworld.prob_sentence worlds (Lazy.force probdb_sentence))

let tests =
  Test.make_grouped ~name:"certainty" ~fmt:"%s/%s"
    [ Test.make ~name:"e2_naive_eval" (Staged.stage kernel_naive);
      Test.make ~name:"e2_mu_symbolic" (Staged.stage kernel_mu_symbolic);
      Test.make ~name:"e2_mu_k_bruteforce_k6" (Staged.stage kernel_mu_k_bruteforce);
      Test.make ~name:"e13_certain_answers" (Staged.stage kernel_certain);
      Test.make ~name:"e6_conditional_measure" (Staged.stage kernel_conditional);
      Test.make ~name:"e12_chase_8_nulls" (Staged.stage kernel_chase);
      Test.make ~name:"e10_sat_64_rows" (Staged.stage kernel_sat);
      Test.make ~name:"e14_sep_generic" (Staged.stage kernel_sep_generic);
      Test.make ~name:"e15_sep_ucq_thm8" (Staged.stage kernel_sep_ucq);
      Test.make ~name:"e13_best_answers" (Staged.stage kernel_best);
      Test.make ~name:"e20_probdb_mu_k5" (Staged.stage kernel_probdb)
    ]

let run_timings () =
  print_endline "\n== bechamel micro-benchmarks (ns/run, OLS estimate) ==";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.25) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw_results in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.sprintf "%12.1f" t
        | Some [] | None -> "     (n/a)"
      in
      Printf.printf "  %-40s %s ns/run\n" name estimate)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* Parallel measure engine: speedup + cache benchmarks, JSON output    *)
(* ------------------------------------------------------------------ *)

(* Each variant runs one counting workload and returns a printable
   digest of its result, so the harness can assert that every (engine,
   jobs, cache) configuration produced exactly the same answer. The
   first variant of every kernel is the uncompiled naive reference —
   the seed's engine — so [identical] certifies the compiled kernel
   against the original semantics and [speedup_vs_baseline] reads as
   "times faster than the naive engine". *)
type variant = {
  engine : string;  (* "naive" or "kernel" *)
  jobs : int;
  cached : bool;
  run : unit -> string;
}

type row = {
  v : variant;
  ns_per_op : float;
  speedup : float;
  speedup_vs_jobs1 : float;
      (* ns/op of the same engine+cache at jobs=1 over this row's —
         the parallel-scaling column the check-parallel gate reads.
         1.0 when the variant has no jobs=1 counterpart. *)
  metrics : (string * int) list;  (* counter snapshot of the capture run *)
}

type pkernel_result = {
  name : string;
  params : string;
  identical : bool;
  rows : row list;
}

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let best_of ~reps f =
  let r, t0 = wall f in
  let best = ref t0 in
  for _ = 2 to reps do
    let _, t = wall f in
    if t < !best then best := t
  done;
  (r, !best)

(* One extra, untimed run with the counters switched on: the timed reps
   above run with observability off (so the ns/op figures stay
   unperturbed), while the row still carries its variant's counter
   profile. The capture run's digest joins the identity check — a
   variant must produce the same answer observed and unobserved. *)
let capture_metrics run =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let digest = run () in
  Obs.Metrics.disable ();
  let snap = Obs.Metrics.snapshot () in
  (digest, snap.Obs.Metrics.counters)

let measure_kernel ~reps ~name ~params variants =
  let timed =
    List.map
      (fun v ->
        let digest, secs = best_of ~reps v.run in
        (v, digest, secs *. 1e9))
      variants
  in
  let baseline_ns =
    match timed with (_, _, ns) :: _ -> ns | [] -> invalid_arg "no variants"
  in
  let captures = List.map (fun (v, _, _) -> capture_metrics v.run) timed in
  let digests =
    List.map (fun (_, d, _) -> d) timed @ List.map fst captures
  in
  let identical =
    List.for_all (fun d -> d = List.hd digests) digests
  in
  let jobs1_ns v =
    List.find_map
      (fun (v', _, ns) ->
        if v'.engine = v.engine && v'.cached = v.cached && v'.jobs = 1 then
          Some ns
        else None)
      timed
  in
  let rows =
    List.map2
      (fun (v, _, ns) (_, metrics) ->
        let speedup_vs_jobs1 =
          match jobs1_ns v with Some ns1 -> ns1 /. ns | None -> 1.0
        in
        { v; ns_per_op = ns; speedup = baseline_ns /. ns; speedup_vs_jobs1;
          metrics })
      timed captures
  in
  { name; params; identical; rows }

let jobs_variants ~jobs_list run =
  List.map
    (fun jobs -> { engine = "kernel"; jobs; cached = false; run = run ~jobs })
    jobs_list

let intro_tuple = lazy (Parser.tuple_exn "('c1', ~1)")

(* --- naive references: the seed's engine, reimplemented on
   sentence_in_support_naive so the compiled kernel is certified
   against the original complete-then-interpret semantics --- *)

let naive_mu_k d q tuple ~k =
  let sentence = Query.instantiate q tuple in
  let nulls =
    List.sort_uniq Int.compare (RInstance.nulls d @ Tuple.nulls tuple)
  in
  let count, total =
    Incomplete.Enumerate.fold_valuations ~nulls ~k
      (fun (c, t) v ->
        ( (if Incomplete.Support.sentence_in_support_naive d sentence v then
             c + 1
           else c),
          t + 1 ))
      (0, 0)
  in
  if total = 0 then Arith.Rat.zero else Arith.Rat.of_ints count total

let naive_mu_cond_k ~sigma d q tuple ~k =
  let answer = Query.instantiate q tuple in
  let nulls =
    List.sort_uniq Int.compare
      (RInstance.nulls d @ Tuple.nulls tuple @ Logic.Formula.nulls sigma)
  in
  let num, den =
    Incomplete.Enumerate.fold_valuations ~nulls ~k
      (fun (num, den) v ->
        if Incomplete.Support.sentence_in_support_naive d sigma v then
          ( (if Incomplete.Support.sentence_in_support_naive d answer v then
               num + 1
             else num),
            den + 1 )
        else (num, den))
      (0, 0)
  in
  if den = 0 then Arith.Rat.zero else Arith.Rat.of_ints num den

let naive_certain_answers d q =
  let m = Query.arity q in
  let cands = List.map Tuple.of_list (Arith.Combinat.tuples (RInstance.adom d) m) in
  let certain tuple =
    let sentence = Query.instantiate q tuple in
    let anchor_set = Incomplete.Support.anchor_set_sentences d [ sentence ] in
    let nulls =
      List.sort_uniq Int.compare (RInstance.nulls d @ Tuple.nulls tuple)
    in
    List.for_all
      (fun c ->
        Incomplete.Support.sentence_in_support_naive d sentence
          (Incomplete.Classes.representative ~anchor_set c))
      (Incomplete.Classes.enumerate ~anchor_set ~nulls)
  in
  List.fold_left
    (fun rel t -> if certain t then Relation.add t rel else rel)
    (Relation.empty m) cands

(* --- workloads; sizes shrink under --smoke so CI stays fast --- *)

type workload = {
  mu_k_k : int;
  cond_k : int;
  series_ks : int list;
  decomp_k : int;
  reps : int;
}

let full_workload =
  { mu_k_k = 32; cond_k = 20000; series_ks = List.init 11 (fun i -> i + 4);
    decomp_k = 12; reps = 3 }

let smoke_workload =
  { mu_k_k = 16; cond_k = 2000; series_ks = List.init 5 (fun i -> i + 4);
    decomp_k = 8; reps = 1 }

let digest_rel rel =
  String.concat ";" (List.map Tuple.to_string (Relation.to_list rel))

let digest_series series =
  String.concat ";"
    (List.map
       (fun (k, v) -> Printf.sprintf "%d=%s" k (Arith.Rat.to_string v))
       series)

let pk_mu_k_naive ~w () =
  let d = Lazy.force intro_db and q = Lazy.force intro_q in
  Arith.Rat.to_string (naive_mu_k d q (Lazy.force intro_tuple) ~k:w.mu_k_k)

let pk_mu_k ~w ~jobs () =
  let d = Lazy.force intro_db and q = Lazy.force intro_q in
  Arith.Rat.to_string
    (Incomplete.Support.mu_k ~jobs d q (Lazy.force intro_tuple) ~k:w.mu_k_k)

let pk_mu_cond_k_naive ~w () =
  let e = Lazy.force section4 in
  Arith.Rat.to_string
    (naive_mu_cond_k ~sigma:e.Zeroone.Constructions.s4_sigma
       e.Zeroone.Constructions.s4_instance e.Zeroone.Constructions.s4_query
       e.Zeroone.Constructions.s4_tuple_third ~k:w.cond_k)

let pk_mu_cond_k ~w ~jobs () =
  let e = Lazy.force section4 in
  Arith.Rat.to_string
    (Zeroone.Conditional.mu_cond_k ~jobs
       ~sigma:e.Zeroone.Constructions.s4_sigma e.Zeroone.Constructions.s4_instance
       e.Zeroone.Constructions.s4_query e.Zeroone.Constructions.s4_tuple_third
       ~k:w.cond_k)

let pk_certain_naive () =
  let d = Lazy.force intro_db and q = Lazy.force intro_q in
  digest_rel (naive_certain_answers d q)

(* The candidate-major pass: one compiled sentence per candidate,
   scanned over the classes. *)
let pk_certain_enumerated ~jobs () =
  let d = Lazy.force intro_db and q = Lazy.force intro_q in
  digest_rel (Incomplete.Certain.certain_answers_enumerated ~jobs d q)

(* The class-major pass the service runs: one open evaluation per
   class (the intro query has a negation, so no Pos∀G dispatch). *)
let pk_certain_class_major ~jobs () =
  let d = Lazy.force intro_db and q = Lazy.force intro_q in
  digest_rel (Incomplete.Certain.certain_answers ~jobs d q)

(* A universally quantified Boolean query: each verdict costs a full
   |dom|^2 evaluation sweep (no existential short-circuit). The cached
   variant shares one kernel db across the whole series; no variant
   memoizes verdicts, so the two rows differ by the db builds alone. *)
let series_query =
  lazy
    (Parser.query_exn
       "Q() := forall x. forall y. (R2(x, y) -> (R1(x, y) | R1(y, x)))")

let pk_series_naive ~w () =
  let d = Lazy.force intro_db and q = Lazy.force series_query in
  digest_series
    (List.map (fun k -> (k, naive_mu_k d q Tuple.empty ~k)) w.series_ks)

let pk_series ~w ~cached () =
  let d = Lazy.force intro_db and q = Lazy.force series_query in
  let cache = if cached then Some (Incomplete.Support.create_cache ()) else None in
  digest_series
    (Incomplete.Support.mu_k_series ~jobs:1 ?cache d q Tuple.empty
       ~ks:w.series_ks)

(* --- decomposable workload: two independent 3-null blocks. The
   support sentence splits into an R-component and an S-component with
   disjoint nulls, so µ^k factorizes (ANL401) and the monolithic k^6
   sweep collapses to 2·k^3. The monolithic compiled kernel is the
   baseline variant; the identity gate then certifies the factorized
   engine bit-for-bit against it, and speedup_vs_baseline reads as
   "times faster than the monolithic exact engine". --- *)
let decomp_ctx =
  lazy
    (let sch = Parser.schema_exn "R1(a, b); R2(a, b); S1(a, b); S2(a, b)" in
     let d =
       Parser.instance_exn sch
         "R1 = { ('c1', ~1), ('c2', ~2), ('c3', ~3) }; R2 = { ('c1', ~2), \
          ('c2', ~3) }; S1 = { ('d1', ~4), ('d2', ~5), ('d3', ~6) }; S2 = { \
          ('d1', ~5), ('d2', ~6) }"
     in
     let q =
       Parser.query_exn
         "Q() := R1('c1', 'c1') & !R2('c2', 'c2') & S1('d1', 'd1') & \
          !S2('d2', 'd2')"
     in
     let cert = Analysis.Decomp.analyze d (Query.instantiate q Tuple.empty) in
     let plan =
       match (cert.Analysis.Decomp.verdict, Analysis.Decomp.plan cert) with
       | Analysis.Decomp.Decomposable, Some p -> p
       | _ -> failwith "bench: decomposable workload did not decompose"
     in
     (d, q, plan))

let pk_mu_k_monolithic ~w ~jobs () =
  let d, q, _ = Lazy.force decomp_ctx in
  Arith.Rat.to_string
    (Incomplete.Support.mu_k ~jobs d q Tuple.empty ~k:w.decomp_k)

let pk_mu_k_decomposed ~w ~jobs () =
  let d, _, plan = Lazy.force decomp_ctx in
  Arith.Rat.to_string
    (Incomplete.Support.mu_k_plan ~jobs d plan ~k:w.decomp_k)

let json_escape = Obs.Json.escape

let emit_json ~smoke path results =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema_version\": 4,\n";
  out "  \"generated_by\": \"bench/main.exe --parallel%s\",\n"
    (if smoke then " --smoke" else "");
  out "  \"recommended_domain_count\": %d,\n" (Exec.Pool.default_jobs ());
  out "  \"kernels\": [\n";
  List.iteri
    (fun i r ->
      out "    {\n";
      out "      \"name\": \"%s\",\n" (json_escape r.name);
      out "      \"params\": \"%s\",\n" (json_escape r.params);
      out "      \"identical\": %b,\n" r.identical;
      out "      \"results\": [\n";
      List.iteri
        (fun j row ->
          let metrics =
            String.concat ", "
              (List.map
                 (fun (k, v) -> Printf.sprintf "\"%s\": %d" (json_escape k) v)
                 row.metrics)
          in
          out
            "        {\"engine\": \"%s\", \"jobs\": %d, \"cache\": %b, \
             \"ns_per_op\": %.1f, \"speedup_vs_baseline\": %.3f, \
             \"speedup_vs_jobs1\": %.3f, \"metrics\": {%s}}%s\n"
            (json_escape row.v.engine) row.v.jobs row.v.cached row.ns_per_op
            row.speedup row.speedup_vs_jobs1 metrics
            (if j = List.length r.rows - 1 then "" else ","))
        r.rows;
      out "      ]\n";
      out "    }%s\n" (if i = List.length results - 1 then "" else ","))
    results;
  out "  ]\n";
  out "}\n";
  close_out oc

let run_parallel ~smoke ~max_jobs ~out ?reps ?trace () =
  let w = if smoke then smoke_workload else full_workload in
  (* --reps N: override best-of-N — the bench-regression gate uses a
     higher N than the smoke default so one descheduled run doesn't
     read as a throughput regression. *)
  let w = match reps with None -> w | Some reps -> { w with reps } in
  (* --trace: every run (timed and capture) emits spans to the JSONL
     sink — use for the CI smoke gate, not for timing comparisons. *)
  Option.iter Obs.Trace.enable_file trace;
  let jobs_list =
    List.sort_uniq compare
      (List.filter (fun j -> j >= 1 && j <= max_jobs) [ 1; 2; 4; max_jobs ])
  in
  Printf.printf
    "\n== parallel measure engine (%s; jobs: %s; recommended domains: %d) ==\n%!"
    (if smoke then "smoke" else "full")
    (String.concat "," (List.map string_of_int jobs_list))
    (Exec.Pool.default_jobs ());
  let naive run = { engine = "naive"; jobs = 1; cached = false; run } in
  let measure = measure_kernel ~reps:w.reps in
  let results =
    [ measure ~name:"mu_k_bruteforce"
        ~params:
          (Printf.sprintf "intro example, k=%d, 3 nulls (%d valuations)"
             w.mu_k_k (w.mu_k_k * w.mu_k_k * w.mu_k_k))
        (naive (pk_mu_k_naive ~w) :: jobs_variants ~jobs_list (pk_mu_k ~w));
      measure ~name:"mu_k_decomposed"
        ~params:
          (Printf.sprintf
             "two 3-null blocks, k=%d: monolithic k^6 = %d vs factorized \
              2k^3 = %d valuations"
             w.decomp_k
             (int_of_float (float_of_int w.decomp_k ** 6.))
             (2 * w.decomp_k * w.decomp_k * w.decomp_k))
        ({ engine = "kernel"; jobs = 1; cached = false;
           run = pk_mu_k_monolithic ~w ~jobs:1
         }
        :: List.map
             (fun jobs ->
               { engine = "decomp"; jobs; cached = false;
                 run = pk_mu_k_decomposed ~w ~jobs
               })
             jobs_list);
      measure ~name:"mu_cond_k_bruteforce"
        ~params:
          (Printf.sprintf
             "section-4 example, k=%d, 1 null (numerator+denominator in one pass)"
             w.cond_k)
        (naive (pk_mu_cond_k_naive ~w)
        :: jobs_variants ~jobs_list (pk_mu_cond_k ~w));
      measure ~name:"certain_answers_sweep"
        ~params:"intro example, 25 candidate tuples over adom^2"
        (naive pk_certain_naive
        :: jobs_variants ~jobs_list pk_certain_enumerated);
      measure ~name:"certain_answers_class_major"
        ~params:"intro example, 37 classes, one open evaluation each"
        (naive pk_certain_naive
        :: jobs_variants ~jobs_list pk_certain_class_major);
      measure ~name:"mu_k_series_eval_cache"
        ~params:
          (Printf.sprintf "intro example, ks=%d..%d, sequential, cache off vs on"
             (List.hd w.series_ks)
             (List.nth w.series_ks (List.length w.series_ks - 1)))
        [ naive (pk_series_naive ~w);
          { engine = "kernel"; jobs = 1; cached = false;
            run = pk_series ~w ~cached:false };
          { engine = "kernel"; jobs = 1; cached = true;
            run = pk_series ~w ~cached:true }
        ]
    ]
  in
  Option.iter (fun _ -> Obs.Trace.close ()) trace;
  List.iter
    (fun r ->
      Printf.printf "  %-24s %s\n" r.name
        (if r.identical then "[results identical]" else "[RESULTS DIFFER!]");
      List.iter
        (fun row ->
          Printf.printf
            "    %-6s jobs=%d cache=%-5b %12.1f ns/op   %6.2fx   \
             vs_jobs1=%.2fx   vals=%d\n"
            row.v.engine row.v.jobs row.v.cached row.ns_per_op row.speedup
            row.speedup_vs_jobs1
            (Option.value ~default:0
               (List.assoc_opt "valuations_evaluated" row.metrics)))
        r.rows)
    results;
  emit_json ~smoke out results;
  Printf.printf "wrote %s\n%!" out;
  if List.exists (fun r -> not r.identical) results then begin
    prerr_endline
      "FATAL: a kernel/parallel/cached run disagreed with the naive reference";
    exit 1
  end;
  (* The executable form of the observability acceptance criterion: a
     µ^k brute-force sweep must request exactly one verdict per point
     of V^k — k^3 for the 3-null intro example — in every engine, for
     every jobs/cache configuration. *)
  let expected_vals = w.mu_k_k * w.mu_k_k * w.mu_k_k in
  List.iter
    (fun r ->
      if r.name = "mu_k_bruteforce" then
        List.iter
          (fun row ->
            let vals =
              Option.value ~default:(-1)
                (List.assoc_opt "valuations_evaluated" row.metrics)
            in
            if vals <> expected_vals then begin
              Printf.eprintf
                "FATAL: %s (engine=%s jobs=%d) evaluated %d valuations, \
                 expected k^3 = %d\n"
                r.name row.v.engine row.v.jobs vals expected_vals;
              exit 1
            end)
          r.rows)
    results

let run_experiments () =
  print_endline "=====================================================";
  print_endline " Certain Answers Meet Zero-One Laws  --  experiments";
  print_endline " (one block per theorem/proposition/example; see";
  print_endline "  EXPERIMENTS.md for the paper-vs-measured record)";
  print_endline "=====================================================";
  List.iter
    (fun (name, f) ->
      let t0 = Sys.time () in
      f ();
      Printf.printf "[%s: %.2fs]\n%!" name (Sys.time () -. t0))
    Experiments.all

let () =
  let args = Array.to_list Sys.argv in
  let experiments = List.mem "--experiments" args in
  let timings = List.mem "--timings" args in
  let parallel = List.mem "--parallel" args in
  let serve = List.mem "--serve" args in
  let router = List.mem "--router" args in
  let update = List.mem "--update" args in
  let smoke = List.mem "--smoke" args in
  let rec flag_value key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> flag_value key rest
    | [] -> None
  in
  let rec two_after key = function
    | k :: a :: b :: _ when k = key -> Some (a, b)
    | _ :: rest -> two_after key rest
    | [] -> None
  in
  if List.mem "--approx-gate" args then begin
    Approx_gate.run ();
    exit 0
  end;
  if List.mem "--concurrent" args then begin
    Concurrent_bench.run ();
    exit 0
  end;
  (match two_after "--diff" args with
  | Some (baseline, fresh) ->
      let tolerance =
        match flag_value "--max-regression" args with
        | None -> 0.25
        | Some v -> (
            match float_of_string_opt v with
            | Some t when t > 0. && t < 1. -> t
            | _ ->
                Printf.eprintf
                  "error: --max-regression expects a fraction in (0,1), got %S\n"
                  v;
                exit 2)
      in
      Bench_diff.run ~baseline ~fresh ~tolerance;
      exit 0
  | None ->
      if List.mem "--diff" args then begin
        Printf.eprintf "error: --diff expects two files: BASE FRESH\n";
        exit 2
      end);
  let max_jobs =
    match flag_value "--jobs" args with
    | None -> 4
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> n
        | _ ->
            Printf.eprintf "error: --jobs expects a positive integer, got %S\n"
              v;
            exit 2)
  in
  let out =
    match flag_value "--out" args with
    | Some p -> p
    | None ->
        if serve then "BENCH_serve.json"
        else if router then "BENCH_router.json"
        else if update then "BENCH_update.json"
        else if smoke then "BENCH_smoke.json"
        else "BENCH_parallel.json"
  in
  let trace = flag_value "--trace" args in
  let reps =
    match flag_value "--reps" args with
    | None -> None
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> Some n
        | _ ->
            Printf.eprintf "error: --reps expects a positive integer, got %S\n"
              v;
            exit 2)
  in
  if serve then
    (* --serve is its own mode: the service bench spawns threads and an
       in-process server, which would only perturb the timing modes. *)
    Serve_bench.run ~smoke ~out ?socket:(flag_value "--socket" args) ()
  else if router then
    Router_bench.run ~smoke ~out
      ?socket:(flag_value "--socket" args)
      ?ref_socket:(flag_value "--ref-socket" args)
      ()
  else if update then
    (* --update too: it wants a quiet process to time the mutation
       path against a from-scratch session rebuild. *)
    Update_bench.run ~smoke ~out ()
  else
    match (experiments, timings, parallel) with
    | true, false, false -> run_experiments ()
    | false, true, false -> run_timings ()
    | false, false, true -> run_parallel ~smoke ~max_jobs ~out ?reps ?trace ()
    | _, _, _ ->
        if experiments || not (timings || parallel) then run_experiments ();
        if timings || not (experiments || parallel) then run_timings ();
        if parallel || not (experiments || timings) then
          run_parallel ~smoke ~max_jobs ~out ?reps ?trace ()

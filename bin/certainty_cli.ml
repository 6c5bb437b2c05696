(* certainty — a command-line laboratory for query answering over
   incomplete databases, after L. Libkin, "Certain Answers Meet
   Zero-One Laws" (PODS 2018).

   Inputs are given inline or, when prefixed with '@', read from files:

     certainty naive \
       --schema "R1(c,p); R2(c,p)" \
       --db "R1 = { ('c1', ~1) }; R2 = { }" \
       --query "Q(x,y) := R1(x,y) & !R2(x,y)"
*)

module Instance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Query = Logic.Query
module Parser = Logic.Parser
module F = Logic.Formula
module R = Arith.Rat
module P = Arith.Poly
module AE = Approx_measure.Estimator
module Pipeline = Zeroone.Pipeline

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Argument plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let read_input s =
  if String.length s > 0 && s.[0] = '@' then begin
    let path = String.sub s 1 (String.length s - 1) in
    let ic = open_in path in
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    content
  end
  else s

let or_die = function
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2

let schema_arg =
  let doc =
    "Relational schema, e.g. 'R(customer, product); U(name)'. Prefix with @ \
     to read from a file."
  in
  Arg.(required & opt (some string) None & info [ "s"; "schema" ] ~docv:"SCHEMA" ~doc)

let db_arg =
  let doc =
    "Database instance, e.g. \"R = { ('c1', ~1), (~2, 'x') }\". Nulls are \
     ~1, ~2, ...; constants are quoted, integers, or bare identifiers."
  in
  Arg.(required & opt (some string) None & info [ "d"; "db" ] ~docv:"DB" ~doc)

let query_arg =
  let doc =
    "Query: 'Q(x, y) := R(x, y) & !S(x, y)' or a bare formula (free \
     variables become answer variables)."
  in
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY" ~doc)

let constraints_arg =
  let doc =
    "Constraints: 'fd R : a -> b; key S : x; ind R[2] <= S[1]; fk R[1] -> \
     S[1]'."
  in
  Arg.(required & opt (some string) None & info [ "c"; "constraints" ] ~docv:"CONSTRAINTS" ~doc)

let tuple_arg =
  let doc = "Candidate answer tuple, e.g. \"('c1', ~1)\"." in
  Arg.(value & opt (some string) None & info [ "t"; "tuple" ] ~docv:"TUPLE" ~doc)

let tuple2_arg =
  let doc = "Second tuple for comparisons." in
  Arg.(value & opt (some string) None & info [ "u"; "tuple2" ] ~docv:"TUPLE" ~doc)

let ks_arg =
  let doc =
    "Domain sizes k at which to report µ^k (comma-separated, each >= 0). The \
     exact series is counted from the valuation classes in big integers, so \
     it costs no sweep of the k^m valuations and answers at every k, also \
     where k^m exceeds a machine integer."
  in
  Arg.(value & opt (some string) None & info [ "k"; "ks" ] ~docv:"K,K,..." ~doc)

let approx_arg =
  let doc =
    "Estimate the µ^k series by seeded Monte-Carlo sampling instead of the \
     exact class count: draw a Hoeffding-sized sample of valuations so that \
     P(|estimate − µ^k| > EPS) < DELTA. The sample count depends on EPS and \
     DELTA only, not on the number of valuation classes the exact count \
     visits; with a fixed --seed the figures are bit-identical for every \
     --jobs."
  in
  Arg.(value & opt (some string) None
       & info [ "approx" ] ~docv:"EPS,DELTA" ~doc)

let seed_arg =
  let doc = "PRNG seed for --approx (the sampler is fully deterministic)." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)

let stratify_arg =
  let doc =
    "With --approx, add the stratified second pass: the sample is allocated \
     across the null-support strata (how many nulls map into the anchor set \
     C ∪ Const(D)), with exact stratum weights — same (EPS, DELTA) \
     guarantee, usually tighter in practice."
  in
  Arg.(value & flag & info [ "stratify" ] ~doc)

let parse_approx = function
  | None -> None
  | Some s -> (
      let die msg =
        Printf.eprintf "error: --approx %s\n" msg;
        exit 2
      in
      match String.split_on_char ',' s with
      | [ e; d ] -> (
          match (AE.rat_of_string e, AE.rat_of_string d) with
          | Ok eps, Ok delta ->
              let ok v = R.compare v R.zero > 0 && R.compare v R.one < 0 in
              if ok eps && ok delta then Some (eps, delta)
              else die "expects EPS and DELTA strictly between 0 and 1"
          | Error msg, _ | _, Error msg -> die msg)
      | _ -> die "expects EPS,DELTA (e.g. --approx 0.05,0.01)")

let jobs_arg =
  let doc =
    "Chunk count for the parallel evaluation passes (the class census, \
     certain-answer candidate checks, sampling for --approx): 0 picks the number the \
     runtime recommends for this machine, 1 forces sequential evaluation. \
     Chunks run on a persistent worker pool sized to the machine's cores, \
     so values larger than the core count are safe — concurrency is \
     clamped, only the work partition changes. All accumulation is exact, \
     so the answers are identical for every value of $(docv)."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let strict_arg =
  let doc =
    "Treat static-analysis errors as fatal: exit with a nonzero status \
     instead of proceeding (the default merely prints them)."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let json_arg =
  let doc = "Emit the report as JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let metrics_arg =
  let doc =
    "Collect engine counters during the run (valuations evaluated, kernel \
     refreshes, cache traffic, pool scheduling, chase steps) and print them \
     after the command's output."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let metrics_json_arg =
  let doc = "Like --metrics, but as a single JSON line on stdout." in
  Arg.(value & flag & info [ "metrics-json" ] ~doc)

let trace_arg =
  let doc =
    "Write a structured span trace of the run to $(docv) as JSON lines (one \
     flat object per event); also enables counter collection, and span \
     wall-time aggregates join the --metrics report. Validate the file with \
     'certainty trace-check'."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Observability envelope for the evaluating subcommands: reset and
   enable the counters, open the trace sink, run the command body, then
   render the report after its output. The sink is closed even when the
   body exits or raises, so the JSONL on disk is always complete. *)
let with_obs ~metrics ~metrics_json ~trace f =
  let observing = metrics || metrics_json || trace <> None in
  if not observing then f ()
  else begin
    Obs.Metrics.reset ();
    Obs.Metrics.enable ();
    Option.iter Obs.Trace.enable_file trace;
    Fun.protect ~finally:Obs.Trace.close f;
    Obs.Metrics.disable ();
    let snap = Obs.Metrics.snapshot () in
    if metrics then print_string (Obs.Report.to_text snap);
    if metrics_json then print_endline (Obs.Report.to_json snap)
  end

let jobs_opt n = if n <= 0 then None else Some n

let load_schema s = or_die (Parser.schema (read_input s))
let load_db schema s = or_die (Parser.instance schema (read_input s))
let load_query s = or_die (Parser.query (read_input s))
let load_constraints schema s =
  or_die (Constraints.Dep_parser.parse schema (read_input s))

let load_tuple = function
  | None -> None
  | Some s -> Some (or_die (Parser.tuple (read_input s)))

let parse_ks inst = function
  | None ->
      let base = Instance.max_constant inst in
      List.map (fun i -> base + i) [ 1; 2; 4; 8; 16 ]
  | Some s ->
      let ks =
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      in
      (match List.map int_of_string ks with
      | ks -> ks
      | exception Failure _ ->
          Printf.eprintf "error: --ks expects comma-separated integers, got %S\n"
            s;
          exit 2)

(* The candidate tuple of measure/conditional: required exactly when
   the query is non-Boolean. *)
let answer_tuple q tuple =
  match load_tuple tuple with
  | Some t -> t
  | None when Query.arity q = 0 -> Tuple.empty
  | None ->
      Printf.eprintf "error: non-Boolean query needs --tuple\n";
      exit 2

let print_relation label rel =
  Printf.printf "%s (%d tuple%s):\n" label (Relation.cardinal rel)
    (if Relation.cardinal rel = 1 then "" else "s");
  if Relation.is_empty rel then print_endline "  (empty)"
  else Relation.iter (fun t -> Printf.printf "  %s\n" (Tuple.to_string t)) rel

let with_context schema db query f =
  let schema = load_schema schema in
  let inst = load_db schema db in
  let q = load_query query in
  (match Query.well_formed schema q with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "error: ill-formed query: %s\n" msg;
      exit 2);
  f schema inst q

(* The static-analysis gate of the evaluating subcommands: report
   errors and warnings (never hints) on stderr; under --strict, errors
   abort before any evaluation starts. Returns the report, whose
   decomposition certificate (taken at [k]) measure reuses. *)
let precheck ?deps ?tuple ?k ~strict schema inst q =
  let report = Analysis.Report.analyze ~inst ?deps ?tuple ?k schema q in
  let visible =
    List.filter
      (fun d -> d.Analysis.Diag.severity <> Analysis.Diag.Hint)
      (report.Analysis.Report.diags @ report.Analysis.Report.hints)
  in
  let abort = strict && Analysis.Report.has_errors report in
  List.iter
    (fun d ->
      Printf.eprintf "analysis %s[%s] %s: %s\n"
        (if abort then Analysis.Diag.severity_string d.Analysis.Diag.severity
         else "warning")
        d.Analysis.Diag.code d.Analysis.Diag.loc d.Analysis.Diag.message)
    (Analysis.Diag.sort visible);
  if abort then begin
    Printf.eprintf
      "error: static analysis failed (--strict); run 'certainty analyze' \
       for the full report\n";
    exit 1
  end;
  report

(* ------------------------------------------------------------------ *)
(* Subcommands                                                          *)
(* ------------------------------------------------------------------ *)

let naive_cmd =
  let run schema db query =
    with_context schema db query (fun _ inst q ->
        Printf.printf "query: %s\n" (Query.to_string q);
        Printf.printf "database:\n%s\n" (Instance.to_string inst);
        print_relation "naive answers (= almost certainly true, Thm 1)"
          (Incomplete.Naive.answers inst q))
  in
  let doc = "Evaluate a query naively (= almost-certainly-true answers)." in
  Cmd.v (Cmd.info "naive" ~doc)
    Term.(const run $ schema_arg $ db_arg $ query_arg)

let certain_cmd =
  let run schema db query jobs strict metrics metrics_json trace =
    with_obs ~metrics ~metrics_json ~trace @@ fun () ->
    with_context schema db query (fun sch inst q ->
        ignore (precheck ~strict sch inst q);
        let jobs = jobs_opt jobs
        and cache = Incomplete.Support.create_cache () in
        Printf.printf "query: %s\n\n" (Query.to_string q);
        let a = Incomplete.Certain.answers ?jobs ~cache inst q in
        print_relation "certain answers" a.Incomplete.Certain.certain;
        print_relation "possible answers" a.Incomplete.Certain.possible;
        print_relation "naive answers" a.Incomplete.Certain.naive)
  in
  let doc =
    "Compute certain and possible answers exactly (exponential in the number \
     of nulls)."
  in
  Cmd.v (Cmd.info "certain" ~doc)
    Term.(const run $ schema_arg $ db_arg $ query_arg $ jobs_arg $ strict_arg
          $ metrics_arg $ metrics_json_arg $ trace_arg)

(* The exact pipeline's typed refusals, as diagnostics with exit 2. *)
let pipeline_or_die = function
  | Ok v -> v
  | Error e ->
      (match e with
      | Pipeline.Negative_k k ->
          Printf.eprintf "error: --ks entries must be >= 0, got %d\n" k
      | Pipeline.Unknown_null n ->
          Printf.eprintf
            "error: the query mentions null ~%d, which occurs in neither the \
             database nor the tuple\n"
            n);
      exit 2

(* The route of a series, announced when it is factorized. *)
let print_route route =
  let parts d = Analysis.Decomp.parts d in
  match route with
  | Pipeline.Factorized [ d ] ->
      Printf.printf "decomposition: %d independent parts, %s (ANL401)\n"
        (parts d)
        (Analysis.Decomp.sizes_string d)
  | Pipeline.Factorized [ dnum; dden ] ->
      Printf.printf
        "decomposition: Σ∧Q %d part%s (%s); Σ %d part%s (%s) (ANL401)\n"
        (parts dnum)
        (if parts dnum = 1 then "" else "s")
        (Analysis.Decomp.sizes_string dnum)
        (parts dden)
        (if parts dden = 1 then "" else "s")
        (Analysis.Decomp.sizes_string dden)
  | _ -> ()

let print_exact_series ~census ~route ~label ~cell inst target ks =
  let series = pipeline_or_die (Pipeline.series ~census inst target ~ks) in
  print_route route;
  Printf.printf "%s series (exact):\n" label;
  List.iter
    (fun (k, v) ->
      Printf.printf "  k = %3d   %s%-12s ≈ %.6f\n" k cell (R.to_string v)
        (R.to_float v))
    series

let measure_cmd =
  let run schema db query tuple ks approx seed stratify jobs strict metrics
      metrics_json trace =
    with_obs ~metrics ~metrics_json ~trace @@ fun () ->
    with_context schema db query (fun sch inst q ->
        let jobs = jobs_opt jobs
        and cache = Incomplete.Support.create_cache () in
        let approx = parse_approx approx in
        let ks = parse_ks inst ks in
        let tuple = answer_tuple q tuple in
        (* One decomposition certificate, at the series' largest k, for
           the precheck and the decomposition line alike. *)
        let report =
          precheck ~tuple ~k:(List.fold_left max 1 ks) ~strict sch inst q
        in
        let route =
          Pipeline.route_of_certificates
            (Option.to_list report.Analysis.Report.decomp)
        in
        Printf.printf "query:  %s\n" (Query.to_string q);
        Printf.printf "tuple:  %s\n" (Tuple.to_string tuple);
        let m =
          pipeline_or_die (Pipeline.measure ?jobs ~cache inst q tuple)
        in
        Printf.printf "|Supp^k| = %s   (|V^k| = k^%d)\n"
          (P.to_string m.Pipeline.supp_poly)
          (Instance.null_count inst);
        Printf.printf "µ(Q,D,t) = %s   [0-1 law: %s]\n"
          (R.to_string m.Pipeline.mu)
          (Format.asprintf "%a" Zeroone.Measure.pp_verdict m.Pipeline.verdict);
        let target = Pipeline.Answer (q, tuple) in
        match approx with
        | None ->
            print_exact_series ~census:m.Pipeline.census ~route ~label:"µ^k"
              ~cell:"µ^k = " inst target ks
        | Some (eps, delta) ->
            (* The sampler needs a nonempty space. *)
            (match List.find_opt (fun k -> k < 1) ks with
            | Some k ->
                Printf.eprintf
                  "error: --approx needs --ks entries >= 1, got %d\n" k;
                exit 2
            | None -> ());
            print_route route;
            let n = AE.sample_size ~eps ~delta in
            Printf.printf
              "µ^k estimates (Monte-Carlo, ε = %s, δ = %s, %d samples/k, \
               seed %d):\n"
              (R.to_string eps) (R.to_string delta) n seed;
            List.iter
              (fun k ->
                let r =
                  AE.mu_k ?jobs ~cache ~stratify inst q tuple ~k ~eps ~delta
                    ~seed
                in
                Printf.printf "  k = %3d   µ^k ≈ %-12s (%.6f)   CI [%s, %s]\n"
                  k
                  (R.to_string r.AE.estimate)
                  (R.to_float r.AE.estimate)
                  (R.to_string r.AE.ci_lo) (R.to_string r.AE.ci_hi);
                match r.AE.stratified with
                | None -> ()
                | Some s ->
                    Printf.printf
                      "            stratified (%d null-support strata, %d \
                       samples) ≈ %-12s (%.6f)   CI [%s, %s]\n"
                      s.AE.s_strata s.AE.s_samples
                      (R.to_string s.AE.s_estimate)
                      (R.to_float s.AE.s_estimate)
                      (R.to_string s.AE.s_ci_lo) (R.to_string s.AE.s_ci_hi))
              ks)
  in
  let doc =
    "Measure how close an answer is to certainty: the support polynomial, the \
     asymptotic measure µ (0 or 1 by the 0-1 law), and a µ^k series — exact, \
     read off the same count of valuation classes, or (ε,δ)-approximate with \
     --approx."
  in
  Cmd.v (Cmd.info "measure" ~doc)
    Term.(const run $ schema_arg $ db_arg $ query_arg $ tuple_arg $ ks_arg
          $ approx_arg $ seed_arg $ stratify_arg $ jobs_arg
          $ strict_arg $ metrics_arg $ metrics_json_arg $ trace_arg)

let conditional_cmd =
  let run schema db query cstr tuple ks jobs strict metrics metrics_json
      trace =
    with_obs ~metrics ~metrics_json ~trace @@ fun () ->
    with_context schema db query (fun sch inst q ->
        let jobs = jobs_opt jobs
        and cache = Incomplete.Support.create_cache () in
        let deps = load_constraints sch cstr in
        let sigma = Constraints.Dependency.set_to_formula sch deps in
        let ks = Option.map (fun s -> parse_ks inst (Some s)) ks in
        let tuple = answer_tuple q tuple in
        ignore (precheck ~deps ~tuple ~strict sch inst q);
        Printf.printf "query:       %s\n" (Query.to_string q);
        Printf.printf "tuple:       %s\n" (Tuple.to_string tuple);
        List.iter
          (fun d ->
            Printf.printf "constraint:  %s\n"
              (Constraints.Dependency.to_string ~schema:sch d))
          deps;
        let report =
          pipeline_or_die
            (Pipeline.conditional ?jobs ~cache ~sigma inst q tuple)
        in
        Printf.printf "|Supp^k(Σ∧Q)| = %s\n"
          (P.to_string report.Zeroone.Conditional.numerator);
        Printf.printf "|Supp^k(Σ)|   = %s\n"
          (P.to_string report.Zeroone.Conditional.denominator);
        Printf.printf "µ(Q|Σ,D,t)    = %s ≈ %.6f   (Theorem 3: always exists, rational)\n"
          (R.to_string report.Zeroone.Conditional.value)
          (R.to_float report.Zeroone.Conditional.value);
        (* The classifier, not an ad hoc scan, decides whether the
           Theorem 5 chase shortcut applies. *)
        (match Zeroone.Conditional.strategy deps tuple with
        | Zeroone.Conditional.Chase_fds ->
            let fds = Constraints.Dependency.fds_of_schema sch deps in
            let via_chase = Zeroone.Conditional.mu_cond_fds fds inst q tuple in
            Printf.printf "via chase (Thm 5) = %s\n" (R.to_string via_chase)
        | Zeroone.Conditional.Symbolic -> ());
        match ks with
        | None -> ()
        | Some ks ->
            let target = Pipeline.Given (sigma, q, tuple) in
            print_exact_series ~census:report.Zeroone.Conditional.census
              ~route:(Pipeline.route inst target ~ks) ~label:"µ^k(Q|Σ)"
              ~cell:"" inst target ks)
  in
  let doc =
    "Conditional measure µ(Q|Σ,D,t) under integrity constraints (Theorem 3); \
     uses the chase shortcut for pure FD sets (Theorem 5)."
  in
  Cmd.v (Cmd.info "conditional" ~doc)
    Term.(const run $ schema_arg $ db_arg $ query_arg $ constraints_arg
          $ tuple_arg $ ks_arg $ jobs_arg $ strict_arg
          $ metrics_arg $ metrics_json_arg $ trace_arg)

let best_cmd =
  let run schema db query tuple tuple2 =
    with_context schema db query (fun _ inst q ->
        Printf.printf "query: %s\n\n" (Query.to_string q);
        (match (load_tuple tuple, load_tuple tuple2) with
        | Some a, Some b ->
            Printf.printf "%s ⊴ %s : %b\n" (Tuple.to_string a) (Tuple.to_string b)
              (Compare.Order.leq inst q a b);
            Printf.printf "%s ◁ %s : %b\n" (Tuple.to_string a) (Tuple.to_string b)
              (Compare.Order.lt inst q a b);
            Printf.printf "%s ⊴ %s : %b\n" (Tuple.to_string b) (Tuple.to_string a)
              (Compare.Order.leq inst q b a)
        | _ -> ());
        print_relation "best answers  Best(Q,D)" (Compare.Best.best inst q);
        print_relation "best ∩ almost-certain  Best_µ(Q,D)"
          (Compare.Best.best_mu inst q);
        print_endline "ranking by support (strata of the ⊴ preorder):";
        List.iteri
          (fun i stratum ->
            Printf.printf "  rank %d: %s\n" i
              (String.concat " "
                 (List.map Tuple.to_string (Relation.to_list stratum))))
          (Compare.Rank.strata inst q);
        match Logic.Ucq.of_query q with
        | Some u ->
            print_relation "best via Theorem 8 (UCQ polynomial algorithm)"
              (Compare.Ucq_compare.best inst u)
        | None -> print_endline "(not a UCQ: Theorem 8 algorithm not applicable)")
  in
  let doc =
    "Compare answers by support and compute the best answers (and Best_µ); \
     for unions of conjunctive queries also runs the polynomial algorithm of \
     Theorem 8."
  in
  Cmd.v (Cmd.info "best" ~doc)
    Term.(const run $ schema_arg $ db_arg $ query_arg $ tuple_arg $ tuple2_arg)

let chase_cmd =
  let max_steps_arg =
    let doc =
      "Budget of tuple-generating chase steps before giving up (only \
       consulted when the dependency set has inclusions/foreign keys; the \
       FD chase always terminates)."
    in
    Arg.(value & opt int 1_000 & info [ "max-steps" ] ~docv:"N" ~doc)
  in
  let run schema db cstr max_steps metrics metrics_json trace =
    with_obs ~metrics ~metrics_json ~trace @@ fun () ->
    let sch = load_schema schema in
    let inst = load_db sch db in
    let deps = load_constraints sch cstr in
    let run_fd_chase () =
      let fds = Constraints.Dependency.fds_of_schema sch deps in
      Printf.printf "chasing with %d functional dependenc%s\n" (List.length fds)
        (if List.length fds = 1 then "y" else "ies");
      let steps, outcome = Constraints.Chase.trace fds inst in
      List.iter
        (fun (fd, from_v, to_v) ->
          Printf.printf "  step: %s forces %s := %s\n"
            (Constraints.Dependency.to_string ~schema:sch (Constraints.Dependency.Fd fd))
            (Relational.Value.to_string from_v)
            (Relational.Value.to_string to_v))
        steps;
      match outcome with
      | Constraints.Chase.Failure (fd, t, u) ->
          Printf.printf "chase FAILED on %s: %s vs %s\n"
            (Constraints.Dependency.to_string ~schema:sch (Constraints.Dependency.Fd fd))
            (Tuple.to_string t) (Tuple.to_string u);
          exit 1
      | Constraints.Chase.Success chased ->
          Printf.printf "chase succeeded:\n%s\n" (Instance.to_string chased)
    in
    let run_tgd_chase w =
      Printf.printf "chasing with %d dependenc%s (tuple-generating set)\n"
        (List.length deps)
        (if List.length deps = 1 then "y" else "ies");
      Printf.printf "termination: %s (%d regular, %d special edge%s)\n"
        (Constraints.Wacyclic.verdict_string w)
        w.Constraints.Wacyclic.n_regular w.Constraints.Wacyclic.n_special
        (if w.Constraints.Wacyclic.n_special = 1 then "" else "s");
      (match w.Constraints.Wacyclic.verdict with
      | Constraints.Wacyclic.Weakly_acyclic ->
          print_endline
            "  ANL306: the chase terminates on every instance (certificate: \
             no special-edge cycle)"
      | Constraints.Wacyclic.Special_cycle _ ->
          Printf.printf
            "  ANL307: special-edge cycle %s — termination not guaranteed, \
             bounded run (--max-steps %d)\n"
            (Constraints.Wacyclic.cycle_string w)
            max_steps);
      match Constraints.Chase.chase_tgds ~max_steps sch deps inst with
      | Constraints.Chase.Tgd_fixpoint chased ->
          Printf.printf "chase reached a fixpoint:\n%s\n"
            (Instance.to_string chased)
      | Constraints.Chase.Tgd_failed (fd, t, u) ->
          Printf.printf "chase FAILED on %s: %s vs %s\n"
            (Constraints.Dependency.to_string ~schema:sch (Constraints.Dependency.Fd fd))
            (Tuple.to_string t) (Tuple.to_string u);
          exit 1
      | Constraints.Chase.Tgd_budget _ ->
          Printf.printf
            "chase stopped: %d-step budget exhausted without a fixpoint\n"
            max_steps;
          exit 1
    in
    (* The classifier picks the engine: the plain FD chase when no
       dependency generates tuples (output unchanged), otherwise the
       TGD chase under the weak-acyclicity certificate. *)
    match Analysis.Classify.chase_strategy sch deps with
    | Analysis.Classify.Fd_chase -> run_fd_chase ()
    | Analysis.Classify.Terminating_chase w
    | Analysis.Classify.Bounded_chase w ->
        run_tgd_chase w
  in
  let doc =
    "Chase an incomplete database with its dependencies (§4.4): the \
     terminating FD chase, or — for sets with inclusions/foreign keys — the \
     TGD chase dispatched on the weak-acyclicity certificate."
  in
  Cmd.v (Cmd.info "chase" ~doc)
    Term.(const run $ schema_arg $ db_arg $ constraints_arg $ max_steps_arg
          $ metrics_arg $ metrics_json_arg $ trace_arg)

let sat_cmd =
  let run schema db cstr =
    let sch = load_schema schema in
    let inst = load_db sch db in
    let deps = load_constraints sch cstr in
    (* Route through the static classifier: the Proposition 6 polynomial
       procedure fires automatically whenever the dependency set
       qualifies. *)
    let cclass = Analysis.Classify.constraint_class deps in
    if cclass.Analysis.Classify.unary_keys_fks then begin
      match Constraints.Sat.unary_keys_fks sch deps inst with
      | Constraints.Sat.Satisfiable v ->
          Printf.printf "SATISFIABLE (Prop 6 polynomial procedure)\nwitness: %s\n"
            (Incomplete.Valuation.to_string v)
      | Constraints.Sat.Unsatisfiable reason ->
          Printf.printf "UNSATISFIABLE: %s\n" reason
    end
    else begin
      let sat = Constraints.Sat.satisfiable_generic sch deps inst in
      Printf.printf "%s (generic exponential procedure)\n"
        (if sat then "SATISFIABLE" else "UNSATISFIABLE")
    end
  in
  let doc =
    "Decide satisfiability of constraints in an incomplete database; uses the \
     Proposition 6 polynomial procedure for unary keys and foreign keys."
  in
  Cmd.v (Cmd.info "sat" ~doc) Term.(const run $ schema_arg $ db_arg $ constraints_arg)

let approx_cmd =
  let scheme_arg =
    let doc =
      "Approximation scheme to grade: 'sql' (3-valued WHERE), 'naive' \
       (marked-null naive evaluation) or 'naive-null-free'."
    in
    Arg.(value & opt string "sql" & info [ "scheme" ] ~docv:"SCHEME" ~doc)
  in
  let run schema db query scheme_name =
    with_context schema db query (fun _ inst q ->
        let scheme =
          match scheme_name with
          | "sql" -> Zeroone.Approx.sql_scheme
          | "naive" -> fun d q -> Incomplete.Naive.answers d q
          | "naive-null-free" -> Zeroone.Approx.naive_null_free_scheme
          | other ->
              Printf.eprintf "error: unknown scheme %s\n" other;
              exit 2
        in
        let r = Zeroone.Approx.evaluate scheme inst q in
        Printf.printf "query:  %s\nscheme: %s\n\n" (Query.to_string q) scheme_name;
        print_relation "certain answers" r.Zeroone.Approx.certain;
        print_relation "returned by the scheme" r.Zeroone.Approx.returned;
        print_relation "missed certain answers" r.Zeroone.Approx.missed;
        print_relation "spurious but almost certainly true (benign)"
          r.Zeroone.Approx.spurious_benign;
        print_relation "spurious and almost certainly false (harmful)"
          r.Zeroone.Approx.spurious_harmful;
        Printf.printf "recall = %s   precision = %s   sound = %b   complete = %b\n"
          (R.to_string (Zeroone.Approx.recall r))
          (R.to_string (Zeroone.Approx.precision r))
          (Zeroone.Approx.sound r) (Zeroone.Approx.complete r))
  in
  let doc =
    "Grade a certain-answer approximation scheme against the exact certain \
     answers, classifying its errors by the measure µ (§6 of the paper)."
  in
  Cmd.v (Cmd.info "approx" ~doc)
    Term.(const run $ schema_arg $ db_arg $ query_arg $ scheme_arg)

let datalog_cmd =
  let program_arg =
    let doc =
      "Datalog program, e.g. 'TC(x, y) := E(x, y). TC(x, z) := E(x, y), TC(y, \
       z).' Prefix with @ to read from a file."
    in
    Arg.(required & opt (some string) None & info [ "p"; "program" ] ~docv:"PROGRAM" ~doc)
  in
  let goal_arg =
    let doc = "IDB predicate whose answers to report." in
    Arg.(required & opt (some string) None & info [ "g"; "goal" ] ~docv:"GOAL" ~doc)
  in
  let run schema db program goal =
    let sch = load_schema schema in
    let inst = load_db sch db in
    let prog =
      match Datalog.Program.parse sch (read_input program) with
      | Ok p -> p
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2
    in
    let q =
      try Zeroone.Generic.of_datalog sch prog ~goal
      with Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    in
    Printf.printf "program:\n%s" (Format.asprintf "%a" Datalog.Program.pp prog);
    print_relation
      ("almost certainly true " ^ goal ^ " facts (naive fixpoint, Thm 1)")
      (Zeroone.Generic.naive_answers inst q);
    let certain =
      List.filter
        (fun t -> Zeroone.Generic.is_certain inst q t)
        (Relation.to_list (Zeroone.Generic.naive_answers inst q))
    in
    Printf.printf "of these, certain under every valuation: %d\n"
      (List.length certain);
    List.iter (fun t -> Printf.printf "  %s\n" (Tuple.to_string t)) certain
  in
  let doc =
    "Evaluate a recursive datalog program over an incomplete database; the \
     0-1 law applies to these generic queries too."
  in
  Cmd.v (Cmd.info "datalog" ~doc)
    Term.(const run $ schema_arg $ db_arg $ program_arg $ goal_arg)

let analyze_cmd =
  let db_opt_arg =
    let doc =
      "Database instance (optional): enables the decomposition \
       certificate (with --tuple, or for a Boolean query)."
    in
    Arg.(value & opt (some string) None & info [ "d"; "db" ] ~docv:"DB" ~doc)
  in
  let constraints_opt_arg =
    let doc =
      "Constraints (optional): enables the constraint-class verdict \
       (FD-only, unary keys+FKs)."
    in
    Arg.(value & opt (some string) None
         & info [ "c"; "constraints" ] ~docv:"CONSTRAINTS" ~doc)
  in
  let k_arg =
    let doc =
      "Domain size k at which the decomposition certificate quotes its part \
       sizes (default: the number of database constants + 16)."
    in
    Arg.(value & opt (some int) None & info [ "domain-size" ] ~docv:"K" ~doc)
  in
  let run schema db query cstr tuple k json strict =
    let sch = load_schema schema in
    let q = load_query query in
    let inst = Option.map (load_db sch) db in
    let deps = Option.map (load_constraints sch) cstr in
    let tuple = load_tuple tuple in
    let report = Analysis.Report.analyze ?inst ?deps ?tuple ?k sch q in
    if json then print_endline (Analysis.Report.to_json report)
    else print_string (Analysis.Report.to_text report);
    if strict && Analysis.Report.has_errors report then exit 1
  in
  let doc =
    "Statically analyze a query (and optionally constraints) without \
     evaluating anything: tightest fragment (CQ/UCQ/Pos∀G/FO), \
     safety/range-restriction and genericity checks, schema conformance, \
     constraint class, the null-decomposition certificate, and the \
     paper-backed dispatch consequences — with stable diagnostic codes, as \
     text or JSON. With --strict, exit nonzero when errors are found (the \
     CI lint gate)."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ schema_arg $ db_opt_arg $ query_arg
          $ constraints_opt_arg $ tuple_arg $ k_arg $ json_arg $ strict_arg)

let trace_check_cmd =
  let file_arg =
    let doc = "JSONL span trace written by --trace." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    match Obs.Trace.validate_file file with
    | Ok n -> Printf.printf "trace ok: %d completed span(s)\n" n
    | Error msg ->
        Printf.eprintf "error: malformed trace: %s\n" msg;
        exit 1
    | exception Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
  in
  let doc =
    "Validate a span trace: every line a flat JSON event, every span closed \
     exactly once with non-decreasing timestamps. Nonzero exit on any \
     malformed or unclosed span — the CI trace gate."
  in
  Cmd.v (Cmd.info "trace-check" ~doc) Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* The query service                                                    *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Serve on (or connect to) the Unix-domain socket $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Serve on (or connect to) TCP port $(docv)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Host for --port." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let addr_of ~socket ~port ~host =
  match (socket, port) with
  | Some path, None -> Server.Daemon.Unix_sock path
  | None, Some port -> Server.Daemon.Tcp (host, port)
  | Some _, Some _ ->
      Printf.eprintf "error: pass --socket or --port, not both\n";
      exit 2
  | None, None ->
      Printf.eprintf "error: pass --socket PATH or --port PORT\n";
      exit 2

(* An unresolvable host, a bad configuration or a socket that cannot be
   bound or reached is a diagnostic and exit 2, not an exception. *)
let socket_or_exit ~what f =
  try f () with
  | Failure msg | Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  | Unix.Unix_error (e, fn, _) ->
      Printf.eprintf "error: cannot %s: %s (%s)\n" what (Unix.error_message e)
        fn;
      exit 2

let serve_cmd =
  let workers_arg =
    let doc =
      "Service threads executing requests concurrently (each may in turn \
       split its class pass or candidate checks over --jobs pool chunks)."
    in
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Bound on the admission queue: requests arriving while $(docv) are \
       already waiting are refused with a typed 'overloaded' response \
       instead of queueing without limit."
    in
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc =
      "Default per-request deadline in milliseconds (0 = none). Enforced at \
       pool-chunk boundaries and every 256 classes of a class pass: an \
       expired request gets a typed 'deadline_exceeded' response and its \
       partial work is discarded. A request's own deadline_ms field \
       overrides this."
    in
    Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let max_sessions_arg =
    let doc =
      "Cap on cached sessions (parsed database + evaluation caches); \
       the least recently used session is evicted beyond it."
    in
    Arg.(value & opt int 16 & info [ "max-sessions" ] ~docv:"N" ~doc)
  in
  let drain_grace_arg =
    let doc =
      "Seconds graceful drain waits for queued and in-flight work before \
       force-closing connections (so a peer that stopped reading cannot \
       hold the shutdown hostage)."
    in
    Arg.(value & opt float 30.0 & info [ "drain-grace" ] ~docv:"SECONDS" ~doc)
  in
  let shard_id_arg =
    let doc =
      "Stable shard identity reported by the health op (defaults to the \
       listen address) — what a router uses to tell shards apart."
    in
    Arg.(value & opt (some string) None & info [ "shard-id" ] ~docv:"ID" ~doc)
  in
  let run socket port host jobs workers max_queue deadline_ms max_sessions
      drain_grace shard_id metrics metrics_json trace =
    with_obs ~metrics ~metrics_json ~trace @@ fun () ->
    let addr = addr_of ~socket ~port ~host in
    let cfg =
      { Server.Daemon.addr;
        jobs = jobs_opt jobs;
        service_threads = workers;
        max_queue;
        deadline_ms = (if deadline_ms <= 0 then None else Some deadline_ms);
        max_sessions;
        drain_grace_s = drain_grace;
        shard_id
      }
    in
    Printf.eprintf "certainty: serving on %s\n%!"
      (Server.Daemon.addr_string addr);
    socket_or_exit ~what:"serve" (fun () -> Server.Daemon.run ~signals:true cfg)
  in
  let doc =
    "Run the long-lived query service: newline-delimited JSON requests \
     (certain, measure, conditional, approx, analyze, update, health) over \
     a Unix or TCP socket, with shared per-database caches, bounded admission, \
     per-request deadlines, and graceful drain on SIGTERM/SIGINT. The \
     protocol is documented in docs/PROTOCOL.md."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ port_arg $ host_arg $ jobs_arg
          $ workers_arg $ max_queue_arg $ deadline_arg $ max_sessions_arg
          $ drain_grace_arg $ shard_id_arg $ metrics_arg $ metrics_json_arg
          $ trace_arg)

let client_cmd =
  let op_arg =
    let doc =
      "Operation to request: certain, measure, conditional, approx, analyze, \
       update or health."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let opt_str names docv doc =
    Arg.(value & opt (some string) None & info names ~docv ~doc)
  in
  let schema_arg = opt_str [ "s"; "schema" ] "SCHEMA" "Schema text (@file ok)." in
  let db_arg = opt_str [ "d"; "db" ] "DB" "Database text (@file ok)." in
  let query_arg = opt_str [ "q"; "query" ] "QUERY" "Query text (@file ok)." in
  let constraints_arg =
    opt_str [ "c"; "constraints" ] "CONSTRAINTS" "Constraints text (@file ok)."
  in
  let tuple_arg = opt_str [ "t"; "tuple" ] "TUPLE" "Candidate answer tuple." in
  let ks_arg = opt_str [ "k"; "ks" ] "K,K,..." "Domain sizes for µ^k series." in
  let scheme_arg =
    opt_str [ "scheme" ] "SCHEME"
      "Approximation scheme for analyze: sql, naive or naive-null-free."
  in
  let id_arg = opt_str [ "id" ] "ID" "Request id, echoed in the response." in
  let action_arg =
    opt_str [ "action" ] "ACTION"
      "For the update op: insert or delete (sent as the action field)."
  in
  let relation_arg =
    opt_str [ "relation" ] "NAME"
      "For the update op: the relation the tuple goes into or out of."
  in
  let capprox_arg =
    opt_str [ "approx" ] "EPS,DELTA"
      "For the approx op: the (ε, δ) guarantee, sent as the eps and delta \
       fields."
  in
  let cseed_arg =
    let doc = "For the approx op: PRNG seed (sent as the seed field)." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)
  in
  let cstratify_arg =
    let doc = "For the approx op: request the stratified second pass." in
    Arg.(value & flag & info [ "stratify" ] ~doc)
  in
  let deadline_arg =
    let doc = "Per-request deadline in milliseconds (0 = server default)." in
    Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let raw_arg =
    let doc =
      "Send $(docv) verbatim as a request line before the main request \
       (repeatable, in order) — for probing the protocol, e.g. with \
       malformed input."
    in
    Arg.(value & opt_all string [] & info [ "raw" ] ~docv:"LINE" ~doc)
  in
  let run socket port host op schema db query cstr tuple ks approx seed
      stratify scheme action relation deadline_ms id raws =
    let addr = addr_of ~socket ~port ~host in
    let build op =
      let fields = ref [] in
      let add name v =
        match v with
        | Some s -> fields := (name, Server.Wire.S (read_input s)) :: !fields
        | None -> ()
      in
      add "scheme" scheme;
      add "action" action;
      add "relation" relation;
      (* The approx op takes a single domain size "k" (plus eps/delta/
         seed/stratify); every other op reads the "ks" list. *)
      if op = "approx" then begin
        if stratify then fields := ("stratify", Server.Wire.I 1) :: !fields;
        Option.iter
          (fun n -> fields := ("seed", Server.Wire.I n) :: !fields)
          seed;
        (match Option.map (String.split_on_char ',') approx with
        | Some [ e; d ] ->
            fields :=
              ("delta", Server.Wire.S (String.trim d))
              :: ("eps", Server.Wire.S (String.trim e))
              :: !fields
        | Some _ ->
            Printf.eprintf "error: --approx expects EPS,DELTA\n";
            exit 2
        | None -> ());
        add "k" ks
      end
      else add "ks" ks;
      add "tuple" tuple;
      add "constraints" cstr;
      add "query" query;
      add "db" db;
      add "schema" schema;
      if deadline_ms > 0 then
        fields := ("deadline_ms", Server.Wire.I deadline_ms) :: !fields;
      fields := ("op", Server.Wire.S op) :: !fields;
      add "id" id;
      Server.Wire.obj !fields
    in
    if op = None && raws = [] then begin
      Printf.eprintf "error: nothing to send; pass OP or --raw LINE\n";
      exit 2
    end;
    let failed = ref false in
    socket_or_exit ~what:"connect" (fun () ->
        Server.Client.with_conn addr (fun c ->
            let exec line =
              match Server.Client.request c line with
              | Some resp ->
                  print_endline resp;
                  if Server.Wire.contains resp "\"ok\":false" then
                    failed := true
              | None ->
                  Printf.eprintf "error: server closed the connection\n";
                  failed := true
            in
            List.iter exec raws;
            Option.iter (fun op -> exec (build op)) op));
    if !failed then exit 1
  in
  let doc =
    "Send one request (plus any --raw probe lines, on the same connection) \
     to a running 'certainty serve' and print the response lines; exits \
     nonzero if any response is an error."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const run $ socket_arg $ port_arg $ host_arg $ op_arg $ schema_arg
          $ db_arg $ query_arg $ constraints_arg $ tuple_arg $ ks_arg
          $ capprox_arg $ cseed_arg $ cstratify_arg $ scheme_arg
          $ action_arg $ relation_arg $ deadline_arg $ id_arg $ raw_arg)

let router_cmd =
  let shards_arg =
    let doc =
      "Backend shard address (repeatable, in ring order): host:port for TCP, \
       anything else a Unix socket path. The ring is built from every \
       configured shard; liveness is probed, not configured."
    in
    Arg.(value & opt_all string [] & info [ "shard" ] ~docv:"ADDR" ~doc)
  in
  let replicas_arg =
    let doc =
      "Read replicas per session: reads round-robin over the session's \
       $(docv) first live ring successors; updates go to the primary and \
       are forwarded to the rest in order."
    in
    Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"R" ~doc)
  in
  let window_arg =
    let doc = "Bound on in-flight requests per shard." in
    Arg.(value & opt int 32 & info [ "window" ] ~docv:"N" ~doc)
  in
  let fail_threshold_arg =
    let doc = "Consecutive health-probe failures before a shard is ejected." in
    Arg.(value & opt int 3 & info [ "fail-threshold" ] ~docv:"K" ~doc)
  in
  let probe_interval_arg =
    let doc = "Seconds between health-probe rounds." in
    Arg.(value & opt float 0.25 & info [ "probe-interval" ] ~docv:"SECONDS" ~doc)
  in
  let shard_timeout_arg =
    let doc =
      "Bound in seconds on any single shard conversation (send and receive); \
       past it the request fails over or returns shard_unavailable instead \
       of hanging."
    in
    Arg.(value & opt float 30.0 & info [ "shard-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let drain_grace_arg =
    let doc =
      "Seconds the rolling drain waits for each shard's in-flight window to \
       empty before closing its connections."
    in
    Arg.(value & opt float 30.0 & info [ "drain-grace" ] ~docv:"SECONDS" ~doc)
  in
  let run socket port host shards replicas window fail_threshold probe_interval
      shard_timeout drain_grace metrics metrics_json trace =
    with_obs ~metrics ~metrics_json ~trace @@ fun () ->
    let addr = addr_of ~socket ~port ~host in
    if shards = [] then begin
      Printf.eprintf "error: pass at least one --shard ADDR\n";
      exit 2
    end;
    let shard_addrs =
      List.map
        (fun s ->
          match Shard.Router.parse_addr s with
          | Ok a -> a
          | Error msg ->
              Printf.eprintf "error: bad --shard %s: %s\n" s msg;
              exit 2)
        shards
    in
    let cfg =
      { (Shard.Router.default_config ~addr ~shards:shard_addrs) with
        replicas;
        window;
        fail_threshold;
        probe_interval_s = probe_interval;
        shard_timeout_s = shard_timeout;
        drain_grace_s = drain_grace
      }
    in
    Printf.eprintf "certainty: routing %d shard(s) on %s\n%!"
      (List.length shards)
      (Server.Daemon.addr_string addr);
    socket_or_exit ~what:"route" (fun () -> Shard.Router.run ~signals:true cfg)
  in
  let doc =
    "Run the sharded serving tier's front router: consistent-hash the \
     (schema, db) session key of every wire-protocol request onto a ring of \
     backend 'certainty serve' shards, with health-gated membership, \
     replicated reads, ordered update forwarding, and typed \
     shard_unavailable errors. Clients speak the exact same protocol as to \
     a single daemon."
  in
  Cmd.v (Cmd.info "router" ~doc)
    Term.(const run $ socket_arg $ port_arg $ host_arg $ shards_arg
          $ replicas_arg $ window_arg $ fail_threshold_arg
          $ probe_interval_arg $ shard_timeout_arg $ drain_grace_arg
          $ metrics_arg $ metrics_json_arg $ trace_arg)

let default =
  Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let doc =
    "measures of certainty for query answering over incomplete databases \
     (Libkin, PODS 2018)"
  in
  let info = Cmd.info "certainty" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ analyze_cmd; naive_cmd; certain_cmd; measure_cmd; conditional_cmd; best_cmd;
            approx_cmd; datalog_cmd; chase_cmd; sat_cmd; trace_check_cmd;
            serve_cmd; router_cmd; client_cmd ]))

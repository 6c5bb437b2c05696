(* Static analysis as a gate: catch a non-generic query before spending
   exponential time measuring it, then read the classifier's dispatch
   facts programmatically.

   The measures of the paper are built on genericity (Theorem 1 needs
   it). A query that silently mentions a constant is a static
   property, so we can refuse it before evaluating anything.

   Run with:  dune exec examples/static_analysis.exe *)

module Instance = Relational.Instance
module Parser = Logic.Parser
module Fragment = Logic.Fragment
module Diag = Analysis.Diag
module Report = Analysis.Report

let schema = Parser.schema_exn "Orders(customer, product); Stock(product)"

let db =
  Parser.instance_exn schema
    "Orders = { ('c1', ~1), ('c2', 'p2') }; Stock = { ('p2'), (~2) }"

(* The gate: analyze, print findings, and only call [measure] when the
   report is clean. This is exactly what `certainty ... --strict`
   does. *)
let gated name q measure =
  Printf.printf "-- %s: %s\n" name (Logic.Query.to_string q);
  let r = Report.analyze ~inst:db schema q in
  List.iter
    (fun d -> Printf.printf "   %s\n" (Diag.to_string d))
    (Diag.sort r.Report.diags);
  if Report.has_errors r then
    print_endline "   refused: fix the query before measuring.\n"
  else begin
    Printf.printf "   fragment %s; analysis clean — measuring.\n"
      (Fragment.fragment_name r.Report.fragment);
    measure ();
    print_newline ()
  end

let () =
  (* A non-generic query: the constant 'p2' anchors the random
     valuations, so the unconditional 0-1 law does not apply. The gate
     refuses it (error ANL002) without evaluating anything. *)
  let bad = Parser.query_exn "Q(x) := Orders(x, 'p2')" in
  gated "non-generic" bad (fun () -> assert false);

  (* The generic repair: make the product an answer variable and let
     the caller select. The analysis is clean, and the classifier also
     tells us the query is a CQ, so the naive fast path inside
     [certain_answers] applies (Corollary 3) — dispatch the analysis
     already decided for us. *)
  let good = Parser.query_exn "Q(x, y) := Orders(x, y) & Stock(y)" in
  gated "generic repair" good (fun () ->
      let certain = Incomplete.Certain.certain_answers db good in
      let naive = Incomplete.Naive.answers db good in
      Printf.printf "   certain answers: %d tuple(s); almost-certain: %d\n"
        (Relational.Relation.cardinal certain)
        (Relational.Relation.cardinal naive));

  (* What an exact measure costs: Theorem 1 puts every valuation of a
     class on the same side of a generic sentence, so one pass over the
     valuation classes answers µ^k at every k — their number, not k^m,
     sets the work. *)
  let space =
    Incomplete.Support.space
      (Incomplete.Support.kernel_db db)
      [ good.Logic.Query.body ]
  in
  Printf.printf "valuation classes: %d over %d null(s), at every k\n"
    (List.length space.Incomplete.Support.classes)
    (List.length space.Incomplete.Support.nulls);

  (* ---------------------------------------------------------------- *)
  (* Decomposition: when the support sentence splits into independent  *)
  (* null blocks, µ^k factorizes and the k^m sweep collapses.          *)
  (* ---------------------------------------------------------------- *)
  print_newline ();
  let dschema = Parser.schema_exn "R1(a, b); R2(a, b); S1(a, b); S2(a, b)" in
  let ddb =
    Parser.instance_exn dschema
      "R1 = { ('c1', ~1), ('c2', ~2), ('c3', ~3) }; R2 = { ('c1', ~2) }; S1 \
       = { ('d1', ~4), ('d2', ~5), ('d3', ~6) }; S2 = { ('d1', ~5) }"
  in
  (* Each guarded conjunct touches one block: nulls ~1..~3 never meet
     ~4..~6, so the interaction graph has two components. *)
  let dq =
    Parser.query_exn "Q() := (exists x. R1(x, x)) & (exists y. S1(y, y))"
  in
  let sentence = Logic.Query.instantiate dq Relational.Tuple.empty in
  let cert = Analysis.Decomp.analyze ddb sentence in
  Printf.printf "-- decomposable: %s\n" (Logic.Query.to_string dq);
  Printf.printf "   verdict: %s — %d part(s), %s\n"
    (Analysis.Decomp.verdict_string cert.Analysis.Decomp.verdict)
    (Analysis.Decomp.parts cert)
    (Analysis.Decomp.sizes_string cert);
  (match Analysis.Decomp.plan cert with
  | None -> print_endline "   no sound plan: monolithic sweep only"
  | Some plan ->
      (* The certificate is what makes the shortcut safe: the
         factorized evaluator multiplies per-component measures and is
         bit-identical to the monolithic k^m sweep. *)
      let k = 5 in
      let mono = Incomplete.Support.mu_k ddb dq Relational.Tuple.empty ~k in
      let fact = Incomplete.Support.mu_k_plan ddb plan ~k in
      Printf.printf "   µ^%d monolithic (k^6 sweep)  = %s\n" k
        (Arith.Rat.to_string mono);
      Printf.printf "   µ^%d factorized (2·k^3 sweep) = %s  [%s]\n" k
        (Arith.Rat.to_string fact)
        (if Arith.Rat.compare mono fact = 0 then "identical" else "MISMATCH"));

  (* ---------------------------------------------------------------- *)
  (* Chase termination: the weak-acyclicity certificate decides        *)
  (* statically whether the TGD chase needs a step budget.             *)
  (* ---------------------------------------------------------------- *)
  print_newline ();
  let report sch deps =
    match Analysis.Classify.chase_strategy sch deps with
    | Analysis.Classify.Fd_chase ->
        print_endline "   FD-only: the chase always terminates"
    | Analysis.Classify.Terminating_chase w ->
        Printf.printf
          "   ANL306: weakly acyclic (%d regular, %d special edge(s)) — \
           chase to a fixpoint, no budget\n"
          w.Constraints.Wacyclic.n_regular w.Constraints.Wacyclic.n_special
    | Analysis.Classify.Bounded_chase w ->
        Printf.printf "   ANL307: %s — bounded runs only\n"
          (Constraints.Wacyclic.verdict_string w)
  in
  let acyclic = [ Constraints.Dependency.ind "R2" [ 0 ] "R1" [ 0 ] ] in
  Printf.printf "-- dependencies: R2[1] ⊆ R1[1]\n";
  report dschema acyclic;
  (* The same shape turned self-feeding: copying E's second column back
     into its first closes a cycle through the special edge, so no
     static termination proof exists. *)
  let esch = Parser.schema_exn "E(a, b)" in
  let cyclic = [ Constraints.Dependency.ind "E" [ 1 ] "E" [ 0 ] ] in
  Printf.printf "-- dependencies: E[2] ⊆ E[1]\n";
  report esch cyclic

(* Tests for the paper's core results: support polynomials, the 0-1 law
   (Theorem 1), the alternative measure (Theorem 2), the open-world
   measure (Proposition 2), implication vs conditional measures
   (Propositions 3-4, Theorem 3), naive breakage under constraints
   (§4.3), almost-surely-true constraints (Theorem 4) and the chase
   shortcut for FDs (Theorem 5 / Corollary 4). *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Instance = Relational.Instance
module F = Logic.Formula
module Query = Logic.Query
module Parser = Logic.Parser
module Support = Incomplete.Support
module Naive = Incomplete.Naive
module Dependency = Constraints.Dependency
module Support_poly = Zeroone.Support_poly
module Measure = Zeroone.Measure
module Alt_measure = Zeroone.Alt_measure
module Owa = Zeroone.Owa
module Conditional = Zeroone.Conditional
module Pipeline = Zeroone.Pipeline
module Constructions = Zeroone.Constructions
module B = Arith.Bigint
module R = Arith.Rat
module P = Arith.Poly

let check = Alcotest.check
let bool_t = Alcotest.bool
let rat_t = Alcotest.testable R.pp R.equal
let poly_t = Alcotest.testable P.pp P.equal

(* Shared random generators for small incomplete databases over
   R(2), S(2). *)
let rs_schema = Schema.make [ ("R", 2); ("S", 2) ]

let value_gen =
  QCheck.map
    (fun i ->
      if i >= 0 then Value.null (i mod 3)
      else Value.named ("z" ^ string_of_int (-i mod 3)))
    (QCheck.int_range (-6) 5)

let rs_instance_gen =
  QCheck.map
    (fun (r_rows, s_rows) ->
      Instance.of_rows rs_schema
        [ ("R", List.map (fun (a, b) -> [ a; b ]) r_rows);
          ("S", List.map (fun (a, b) -> [ a; b ]) s_rows)
        ])
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 0 3)
          (QCheck.pair value_gen value_gen))
       (QCheck.list_of_size (QCheck.Gen.int_range 0 2)
          (QCheck.pair value_gen value_gen)))

let fo_queries =
  [ Parser.query_exn "Q() := exists x. exists y. R(x, y) & !S(x, y)";
    Parser.query_exn "Q() := forall x. forall y. R(x, y) -> S(x, y)";
    Parser.query_exn "Q() := exists x. R(x, x)";
    Parser.query_exn "Q() := exists x. exists y. R(x, y) & S(y, x)";
    Parser.query_exn "Q() := exists x. exists y. R(x, y) & x != y"
  ]

(* ------------------------------------------------------------------ *)
(* Support polynomials                                                  *)
(* ------------------------------------------------------------------ *)

let test_support_poly_closed_form () =
  (* D: R = {(⊥,⊥')}, Q = ∃x R(x,x): |Supp^k| = k, |V^k| = k². *)
  let d =
    Instance.of_rows rs_schema [ ("R", [ [ Value.null 1; Value.null 2 ] ]) ]
  in
  let q = Parser.query_exn "exists x. R(x, x)" in
  let p = Support_poly.of_query d q Tuple.empty in
  check poly_t "equals k" P.x p;
  let pneg = Support_poly.of_query d (Query.negate q) Tuple.empty in
  check poly_t "equals k^2 - k" (P.sub (P.mul P.x P.x) P.x) pneg

let prop_support_poly_matches_bruteforce =
  QCheck.Test.make ~name:"support polynomial = brute-force count (Thm 3 proof)"
    ~count:60 rs_instance_gen (fun d ->
      List.for_all
        (fun q ->
          let sp = Support_poly.of_sentences d [ Query.instantiate q Tuple.empty ] in
          let kmin = List.fold_left max 1 sp.Support_poly.anchor_set in
          List.for_all
            (fun k ->
              let sym = P.eval_int (List.hd sp.Support_poly.polys) k in
              let brute = Support.supp_count d q Tuple.empty ~k in
              R.equal sym (R.of_bigint brute))
            [ kmin; kmin + 1; kmin + 2 ])
        fo_queries)

(* The census answers at every k ≥ 0 — below the anchor codes too,
   where the polynomial's value is no count — and the pipeline's µ^k
   series read off it equal the sweeps. Past every anchor code the
   series is the polynomials' quotient, also at k where k^m is far
   beyond a machine integer, which no sweep could check. The tuple (~5)
   names a null outside D that its query's body ignores: V^k grows by a
   factor k, which only the k = 0 quotient sees. *)
let prop_census_matches_sweep_every_k =
  let same a b =
    List.length a = List.length b
    && List.for_all2 (fun (k, x) (k', y) -> k = k' && R.equal x y) a b
  in
  let quotient num den k =
    let den = P.eval_int den k in
    if R.is_zero den then R.zero else R.div (P.eval_int num k) den
  in
  let big_ks = [ 1_000_000; 3_000_000_000 ] in
  let sigma = Parser.formula_exn "forall x. forall y. R(x, y) -> S(x, y)" in
  let boolean =
    Parser.query_exn "Q() := exists x. R(x, 'z1') | S(x, x)" :: fo_queries
  in
  let cases =
    List.map (fun q -> (q, Tuple.empty)) boolean
    @ [ (Parser.query_exn "Q(x) := exists y. R(x, y)",
         Tuple.of_list [ Value.null 0 ]);
        (Parser.query_exn "Q(x) := !(exists y. S(y, y))",
         Tuple.of_list [ Value.null 5 ])
      ]
  in
  QCheck.Test.make ~name:"census = sweep at every k ≥ 0" ~count:30
    rs_instance_gen (fun d ->
      List.for_all
        (fun (q, tuple) ->
          match
            ( Pipeline.measure d q tuple,
              Pipeline.conditional ~sigma d q tuple )
          with
          | Ok m, Ok report ->
              let census = m.Pipeline.census in
              let kmin = List.fold_left max 1 census.Support_poly.anchor_set in
              let ks = List.init (kmin + 3) Fun.id in
              (Query.arity q > 0
              || List.for_all
                   (fun k ->
                     B.equal
                       (Support_poly.supp_count census ~sentence:0 ~k)
                       (Support.supp_count d q tuple ~k))
                   ks)
              && Pipeline.series ~census d (Pipeline.Answer (q, tuple)) ~ks
                 |> Result.get_ok
                 |> same (Support.mu_k_series d q tuple ~ks)
              && Pipeline.series ~census:report.Conditional.census d
                   (Pipeline.Given (sigma, q, tuple))
                   ~ks
                 |> Result.get_ok
                 |> same
                      (List.map
                         (fun k ->
                           (k, Conditional.mu_cond_k ~sigma d q tuple ~k))
                         ks)
              && Pipeline.series ~census d (Pipeline.Answer (q, tuple))
                   ~ks:big_ks
                 |> Result.get_ok
                 |> same
                      (List.map
                         (fun k ->
                           ( k,
                             quotient m.Pipeline.supp_poly
                               census.Support_poly.total k ))
                         big_ks)
              && Pipeline.series ~census:report.Conditional.census d
                   (Pipeline.Given (sigma, q, tuple))
                   ~ks:big_ks
                 |> Result.get_ok
                 |> same
                      (List.map
                         (fun k ->
                           ( k,
                             quotient report.Conditional.numerator
                               report.Conditional.denominator k ))
                         big_ks)
          | _ -> false)
        cases)

(* ------------------------------------------------------------------ *)
(* Theorem 1: the 0-1 law                                               *)
(* ------------------------------------------------------------------ *)

let prop_zero_one_law =
  QCheck.Test.make
    ~name:"0-1 law: µ symbolic ∈ {0,1} and µ=1 iff naive (Thm 1)" ~count:80
    rs_instance_gen (fun d ->
      List.for_all
        (fun q ->
          let symbolic = Measure.mu_symbolic d q Tuple.empty in
          let naive = Naive.boolean d q in
          (R.is_zero symbolic || R.is_one symbolic)
          && R.is_one symbolic = naive
          && Measure.is_almost_certainly_true (Measure.mu_boolean d q) = naive)
        fo_queries)

let prop_zero_one_law_tuples =
  (* Non-Boolean version: for every candidate tuple over the active
     domain, µ(Q,D,ā) ∈ {0,1} and equals 1 iff ā is a naive answer. *)
  let queries =
    [ Parser.query_exn "Q(x, y) := R(x, y) & !S(x, y)";
      Parser.query_exn "Q(x) := exists y. R(x, y) & S(y, x)"
    ]
  in
  QCheck.Test.make ~name:"0-1 law for answer tuples (Thm 1)" ~count:25
    rs_instance_gen (fun d ->
      List.for_all
        (fun q ->
          let naive = Naive.answers d q in
          List.for_all
            (fun vals ->
              let a = Tuple.of_list vals in
              let symbolic = Measure.mu_symbolic d q a in
              (R.is_zero symbolic || R.is_one symbolic)
              && R.is_one symbolic = Relation.mem a naive)
            (Arith.Combinat.tuples (Instance.adom d) (Query.arity q)))
        queries)

let test_certain_implies_mu_one () =
  (* Every certain answer is almost certainly true (immediate from the
     definitions; checked on the intro example). *)
  let schema = Parser.schema_exn "R1(c, p); R2(c, p)" in
  let d =
    Parser.instance_exn schema
      "R1 = { ('c1', ~1), ('c2', ~1), ('c2', ~2) };
       R2 = { ('c1', ~2), ('c2', ~1), (~3, ~1) }"
  in
  let q = Parser.query_exn "Q(x, y) := R1(x, y)" in
  Relation.iter
    (fun a ->
      check bool_t "certain -> mu=1" true
        (Measure.is_almost_certainly_true (Measure.mu d q a)))
    (Incomplete.Certain.certain_answers d q)

(* ------------------------------------------------------------------ *)
(* Theorem 2: the instance-counting measure                             *)
(* ------------------------------------------------------------------ *)

let test_alt_measure_closed_forms () =
  (* D: R = {(1,⊥),(1,⊥')}, Q = ∃x∃y∃z R(x,y) & R(x,z) & y≠z.
     Worlds at k: unordered pairs {v⊥,v⊥'}: C(k,2)+k of them; satisfying:
     C(k,2). So m^k = (k-1)/(k+1) while µ^k = (k-1)/k — different finite
     values, same limit 1 (Theorem 2). *)
  let d =
    Instance.of_rows rs_schema
      [ ("R", [ [ Value.named "one"; Value.null 1 ]; [ Value.named "one"; Value.null 2 ] ]) ]
  in
  let q =
    Parser.query_exn "exists x. exists y. exists z. R(x, y) & R(x, z) & y != z"
  in
  let k0 = Instance.max_constant d in
  List.iter
    (fun i ->
      let k = k0 + i in
      check rat_t
        (Printf.sprintf "m^k at k=%d" k)
        (R.of_ints (k - 1) (k + 1))
        (Alt_measure.m_k_boolean d q ~k);
      check rat_t
        (Printf.sprintf "mu^k at k=%d" k)
        (R.of_ints (k - 1) k)
        (Support.mu_k_boolean d q ~k))
    [ 1; 2; 3; 4 ];
  (* and the symbolic limit is 1 *)
  check rat_t "limit" R.one (Measure.mu_symbolic d q Tuple.empty)

let prop_alt_measure_same_verdict =
  (* Theorem 2 empirically: at a reasonably large k both measures are on
     the same side of 1/2 whenever the naive verdict is clear-cut. We
     check the stronger structural fact that m^k and µ^k agree exactly
     when all valuations collapse injectively (no repeated nulls), and
     otherwise still converge to the same verdict. *)
  QCheck.Test.make ~name:"m^k and µ^k share the limit (Thm 2)" ~count:25
    rs_instance_gen (fun d ->
      List.for_all
        (fun q ->
          let verdict = Naive.boolean d q in
          let kbig = Instance.max_constant d + 9 in
          let mu = Support.mu_k_boolean d q ~k:kbig in
          let m = Alt_measure.m_k_boolean d q ~k:kbig in
          let close_to v x =
            R.Infix.(R.abs (R.sub x (if v then R.one else R.zero)) < R.half)
          in
          (* skip the degenerate all-null-free case where both are 0/1 *)
          close_to verdict mu && close_to verdict m)
        [ List.hd fo_queries ])

(* ------------------------------------------------------------------ *)
(* Proposition 2: open-world semantics                                  *)
(* ------------------------------------------------------------------ *)

let test_owa_witness () =
  let w = Constructions.owa_witness () in
  (* Q1 = ¬∃x U(x): naively true, owa-m^k = 2^-k. *)
  check bool_t "Q1 naive true" true (Naive.boolean w.Constructions.ow_instance w.Constructions.ow_q1);
  List.iter
    (fun k ->
      check rat_t
        (Printf.sprintf "owa-m^%d(Q1) = 2^-%d" k k)
        (R.pow R.half k)
        (Owa.owa_m_k w.Constructions.ow_instance w.Constructions.ow_q1 ~k);
      check rat_t
        (Printf.sprintf "owa-m^%d(Q2) = 1 - 2^-%d" k k)
        (R.sub R.one (R.pow R.half k))
        (Owa.owa_m_k w.Constructions.ow_instance w.Constructions.ow_q2 ~k))
    [ 1; 2; 3; 4 ];
  check bool_t "Q2 naive false" false
    (Naive.boolean w.Constructions.ow_instance w.Constructions.ow_q2)

let test_owa_semantics_membership () =
  (* Every member of [[D]]_owa^k contains some v(D). *)
  let schema = Schema.make [ ("U", 1) ] in
  let d = Instance.of_rows schema [ ("U", [ [ Value.null 1 ] ]) ] in
  let members = Owa.owa_semantics_k d ~k:2 in
  (* v(D) ∈ {U={1}, U={2}}; supersets over {1,2}: {1},{2},{1,2} *)
  check Alcotest.int "member count" 3 (List.length members);
  List.iter
    (fun e ->
      check bool_t "nonempty U" false
        (Relation.is_empty (Instance.relation e "U")))
    members

let test_owa_guard () =
  let schema = Schema.make [ ("R", 3) ] in
  let d = Instance.empty schema in
  let q = Query.boolean (F.Not (F.exists [ "x"; "y"; "z" ] (F.Atom ("R", [ F.var "x"; F.var "y"; F.var "z" ])))) in
  check bool_t "guard fires" true
    (match Owa.owa_m_k d q ~k:5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Propositions 3-4, Theorem 3: conditional measures                    *)
(* ------------------------------------------------------------------ *)

let test_section4_example () =
  let e = Constructions.section4_example () in
  check rat_t "µ(Q|Σ,D,(1,⊥)) = 1/3" (R.of_ints 1 3)
    (Conditional.mu_cond ~sigma:e.Constructions.s4_sigma e.Constructions.s4_instance
       e.Constructions.s4_query e.Constructions.s4_tuple_third);
  check rat_t "µ(Q|Σ,D,(2,⊥)) = 2/3" (R.of_ints 2 3)
    (Conditional.mu_cond ~sigma:e.Constructions.s4_sigma e.Constructions.s4_instance
       e.Constructions.s4_query e.Constructions.s4_tuple_two_thirds);
  (* µ^k stabilizes at the limit once k covers the constants *)
  let k = Instance.max_constant e.Constructions.s4_instance + 2 in
  check rat_t "µ^k already 1/3" (R.of_ints 1 3)
    (Conditional.mu_cond_k ~sigma:e.Constructions.s4_sigma e.Constructions.s4_instance
       e.Constructions.s4_query e.Constructions.s4_tuple_third ~k)

let test_rational_witness_sweep () =
  List.iter
    (fun (p, r) ->
      let w = Constructions.rational_witness ~p ~r in
      check rat_t
        (Printf.sprintf "µ(Q|Σ,D) = %d/%d" p r)
        w.Constructions.rw_expected
        (Conditional.mu_cond_boolean ~sigma:w.Constructions.rw_sigma
           w.Constructions.rw_instance w.Constructions.rw_query))
    [ (1, 1); (1, 2); (2, 3); (3, 7); (5, 5); (1, 6); (4, 9) ]

let test_naive_breaks () =
  let e = Constructions.naive_breaks () in
  check bool_t "Q naively true" true
    (Naive.boolean e.Constructions.nb_instance e.Constructions.nb_query);
  check bool_t "Σ→Q naively true" true
    (Naive.sentence e.Constructions.nb_instance
       (F.Implies
          ( e.Constructions.nb_sigma,
            e.Constructions.nb_query.Query.body )));
  check rat_t "but µ(Q|Σ,D) = 0" R.zero
    (Conditional.mu_cond_boolean ~sigma:e.Constructions.nb_sigma
       e.Constructions.nb_instance e.Constructions.nb_query)

let test_implication_degenerate () =
  (* Proposition 3: µ(Σ → Q) is 1 when µ(Σ)=0, else equals µ(Q). *)
  let d =
    Instance.of_rows rs_schema
      [ ("R", [ [ Value.null 1; Value.null 2 ] ]) ]
  in
  (* Σ with µ(Σ)=0: the two nulls are equal. *)
  let sigma0 = Parser.formula_exn "exists x. R(x, x)" in
  (* Σ with µ(Σ)=1: the two nulls differ. *)
  let sigma1 = Parser.formula_exn "exists x. exists y. R(x, y) & x != y" in
  let q = Parser.query_exn "exists x. exists y. S(x, y)" in
  (* µ(Q,D) = 0 since S is empty *)
  check rat_t "µ(Σ0→Q)=1" R.one (Conditional.mu_implication ~sigma:sigma0 d q Tuple.empty);
  check rat_t "µ(Σ1→Q)=µ(Q)=0" R.zero
    (Conditional.mu_implication ~sigma:sigma1 d q Tuple.empty);
  let q_true = Parser.query_exn "exists x. exists y. R(x, y)" in
  check rat_t "µ(Σ1→Qtrue)=1" R.one
    (Conditional.mu_implication ~sigma:sigma1 d q_true Tuple.empty)

let prop_implication_law =
  QCheck.Test.make ~name:"Prop 3: µ(Σ→Q) = 1 or µ(Q)" ~count:40
    rs_instance_gen (fun d ->
      let sigmas =
        [ Parser.formula_exn "exists x. exists y. R(x, y)";
          Parser.formula_exn "forall x. forall y. R(x, y) -> S(x, y)"
        ]
      in
      List.for_all
        (fun sigma ->
          List.for_all
            (fun q ->
              let impl = Conditional.mu_implication ~sigma d q Tuple.empty in
              let mu_sigma = Measure.mu_symbolic d (Query.boolean sigma) Tuple.empty in
              let mu_q = Measure.mu_symbolic d q Tuple.empty in
              if R.is_zero mu_sigma then R.is_one impl else R.equal impl mu_q)
            fo_queries)
        sigmas)

let prop_conditional_poly_matches_bruteforce =
  (* The report's polynomials evaluated at finite k must reproduce the
     brute-force µ^k(Q|Σ). *)
  QCheck.Test.make ~name:"conditional polynomials = brute force at k" ~count:30
    rs_instance_gen (fun d ->
      let sigma = Parser.formula_exn "forall x. forall y. R(x, y) -> S(x, y)" in
      List.for_all
        (fun q ->
          let report = Conditional.mu_cond_report ~sigma d q Tuple.empty in
          let sp = Support_poly.of_sentences d [ sigma ] in
          let kmin = List.fold_left max 1 sp.Support_poly.anchor_set in
          List.for_all
            (fun k ->
              let num = P.eval_int report.Conditional.numerator k in
              let den = P.eval_int report.Conditional.denominator k in
              let sym = if R.is_zero den then R.zero else R.div num den in
              R.equal sym (Conditional.mu_cond_k ~sigma d q Tuple.empty ~k))
            [ kmin; kmin + 2 ])
        [ List.nth fo_queries 0; List.nth fo_queries 2 ])

(* ------------------------------------------------------------------ *)
(* Theorem 4: almost-certainly-true constraints                         *)
(* ------------------------------------------------------------------ *)

let prop_acc_constraints_vanish =
  QCheck.Test.make
    ~name:"Thm 4: Σ naively true ⇒ µ(Q|Σ) = µ(Q)" ~count:50 rs_instance_gen
    (fun d ->
      let sigmas =
        [ Parser.formula_exn "exists x. exists y. R(x, y)";
          Parser.formula_exn "forall x. forall y. R(x, y) -> S(x, y)";
          Parser.formula_exn "exists x. exists y. R(x, y) & x != y"
        ]
      in
      List.for_all
        (fun sigma ->
          (not (Naive.sentence d sigma))
          || List.for_all
               (fun q ->
                 R.equal
                   (Conditional.mu_cond ~sigma d q Tuple.empty)
                   (Measure.mu_symbolic d q Tuple.empty))
               fo_queries)
        sigmas)

(* ------------------------------------------------------------------ *)
(* Theorem 5 / Corollary 4: FDs via the chase                           *)
(* ------------------------------------------------------------------ *)

let fd_r = { Dependency.fd_relation = "R"; fd_lhs = [ 0 ]; fd_rhs = 1 }

let prop_chase_equals_conditional =
  (* For FDs and null-free tuples, the chase shortcut computes exactly
     the conditional measure. *)
  let boolean_queries = fo_queries in
  QCheck.Test.make
    ~name:"Thm 5/Cor 4: µ(Q|Σ_FD,D) = µ(Q, chase_Σ(D))" ~count:50
    rs_instance_gen (fun d ->
      let sigma = Dependency.set_to_formula rs_schema [ Dependency.Fd fd_r ] in
      List.for_all
        (fun q ->
          let via_chase = Conditional.mu_cond_fds [ fd_r ] d q Tuple.empty in
          let direct = Conditional.mu_cond ~sigma d q Tuple.empty in
          R.equal via_chase direct)
        boolean_queries)

let prop_deps_direct_matches_compiled =
  (* The structural-predicate fast path computes the same conditional
     measure as the compiled-FO path, for FDs and INDs. *)
  QCheck.Test.make ~name:"mu_cond_deps_direct = mu_cond_deps" ~count:40
    rs_instance_gen (fun d ->
      let dep_sets =
        [ [ Dependency.Fd fd_r ];
          [ Dependency.ind "R" [ 0 ] "S" [ 0 ] ];
          [ Dependency.Fd fd_r; Dependency.ind "R" [ 1 ] "S" [ 1 ] ]
        ]
      in
      List.for_all
        (fun deps ->
          List.for_all
            (fun q ->
              R.equal
                (Conditional.mu_cond_deps rs_schema deps d q Tuple.empty)
                (Conditional.mu_cond_deps_direct deps d q Tuple.empty))
            [ List.hd fo_queries; List.nth fo_queries 2 ])
        dep_sets)

let test_chase_shortcut_failure_convention () =
  (* If the chase fails, Σ is unsatisfiable and both sides are 0. *)
  let d =
    Instance.of_rows rs_schema
      [ ("R", [ [ Value.named "k"; Value.named "v1" ]; [ Value.named "k"; Value.named "v2" ] ]) ]
  in
  let q = Parser.query_exn "exists x. exists y. R(x, y)" in
  let sigma = Dependency.set_to_formula rs_schema [ Dependency.Fd fd_r ] in
  check rat_t "chase side" R.zero (Conditional.mu_cond_fds [ fd_r ] d q Tuple.empty);
  check rat_t "direct side" R.zero (Conditional.mu_cond ~sigma d q Tuple.empty)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Edge cases and conventions                                           *)
(* ------------------------------------------------------------------ *)

let test_unsatisfiable_sigma_convention () =
  (* Σ unsatisfiable in D: µ(Q|Σ,D) = 0 by convention (the paper adopts
     exactly this convention in §4.2). *)
  let d =
    Instance.of_rows rs_schema [ ("R", [ [ Value.null 1; Value.null 2 ] ]) ]
  in
  let sigma = Parser.formula_exn "(exists x. R(x, x)) & !(exists x. R(x, x))" in
  let q = Parser.query_exn "exists x. exists y. R(x, y)" in
  check rat_t "convention 0" R.zero
    (Conditional.mu_cond ~sigma d q Tuple.empty);
  (* and the implication measure is 1 (vacuous) *)
  check rat_t "implication 1" R.one
    (Conditional.mu_implication ~sigma d q Tuple.empty)

let test_semantics_size () =
  (* [[D]]^k for R = {(1,⊥),(1,⊥')}: unordered pairs of values. *)
  let d =
    Instance.of_rows rs_schema
      [ ("R", [ [ Value.named "one"; Value.null 1 ]; [ Value.named "one"; Value.null 2 ] ]) ]
  in
  List.iter
    (fun k ->
      check Alcotest.int
        (Printf.sprintf "semantics size at %d" k)
        (k * (k + 1) / 2)
        (Alt_measure.semantics_size d ~k))
    [ 1; 2; 3; 5 ]

let test_construction_validation () =
  check bool_t "p = 0 rejected" true
    (match Constructions.rational_witness ~p:0 ~r:3 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check bool_t "p > r rejected" true
    (match Constructions.rational_witness ~p:4 ~r:3 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* the generated witnesses satisfy their own constraints naively? No:
     the inclusion constraint is genuinely at stake — but the sigma must
     be satisfiable, i.e. have nonzero support. *)
  let w = Constructions.rational_witness ~p:2 ~r:4 in
  check bool_t "sigma satisfiable" true
    (Incomplete.Certain.is_possible_sentence w.Constructions.rw_instance
       w.Constructions.rw_sigma)

let test_measure_arity_guards () =
  let d = Instance.empty rs_schema in
  let q = Parser.query_exn "Q(x) := exists y. R(x, y)" in
  check bool_t "mu_boolean guards" true
    (match Measure.mu_boolean d q with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check bool_t "m_k_boolean guards" true
    (match Alt_measure.m_k_boolean d q ~k:2 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let intro_like () =
  Instance.of_rows rs_schema
    [ ("R", [ [ Value.named "ca"; Value.null 1 ]; [ Value.named "cb"; Value.null 2 ] ]);
      ("S", [ [ Value.named "ca"; Value.null 2 ] ])
    ]

let test_mu_k_exact_matches_series () =
  let d = intro_like () in
  let q = Parser.query_exn "Q() := exists x. exists y. R(x, y) & !S(x, y)" in
  let sp = Support_poly.of_sentences d [ Query.instantiate q Tuple.empty ] in
  let kmin = List.fold_left max 1 sp.Support_poly.anchor_set in
  List.iter
    (fun k ->
      check rat_t
        (Printf.sprintf "exact µ^k at %d" k)
        (Support.mu_k_boolean d q ~k)
        (Support_poly.mu_k_exact sp ~sentence:0 ~k))
    [ 0; 1; kmin - 1; kmin; kmin + 1; kmin + 3 ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_support_poly_matches_bruteforce; prop_zero_one_law;
      prop_zero_one_law_tuples; prop_alt_measure_same_verdict;
      prop_implication_law; prop_conditional_poly_matches_bruteforce;
      prop_acc_constraints_vanish; prop_chase_equals_conditional;
      prop_deps_direct_matches_compiled; prop_census_matches_sweep_every_k ]

let () =
  Alcotest.run "zeroone"
    [ ( "support-poly",
        [ Alcotest.test_case "closed forms" `Quick test_support_poly_closed_form ] );
      ( "theorem-1",
        [ Alcotest.test_case "certain answers have µ=1" `Quick
            test_certain_implies_mu_one ] );
      ( "theorem-2",
        [ Alcotest.test_case "closed forms µ^k vs m^k" `Quick
            test_alt_measure_closed_forms ] );
      ( "prop-2-owa",
        [ Alcotest.test_case "witness series" `Quick test_owa_witness;
          Alcotest.test_case "semantics membership" `Quick
            test_owa_semantics_membership;
          Alcotest.test_case "blow-up guard" `Quick test_owa_guard
        ] );
      ( "conditional",
        [ Alcotest.test_case "§4 example: 1/3 and 2/3" `Quick test_section4_example;
          Alcotest.test_case "Prop 4: rational sweep" `Quick
            test_rational_witness_sweep;
          Alcotest.test_case "§4.3: naive breaks" `Quick test_naive_breaks;
          Alcotest.test_case "Prop 3: implication degenerates" `Quick
            test_implication_degenerate;
          Alcotest.test_case "chase failure convention" `Quick
            test_chase_shortcut_failure_convention
        ] );
      ( "edge-cases",
        [ Alcotest.test_case "unsatisfiable Σ convention" `Quick
            test_unsatisfiable_sigma_convention;
          Alcotest.test_case "semantics size" `Quick test_semantics_size;
          Alcotest.test_case "construction validation" `Quick
            test_construction_validation;
          Alcotest.test_case "arity guards" `Quick test_measure_arity_guards;
          Alcotest.test_case "exact µ^k from polynomials" `Quick
            test_mu_k_exact_matches_series
        ] );
      ("properties", qcheck_cases)
    ]

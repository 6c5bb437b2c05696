(* The per-theorem experiments E1-E20 (see DESIGN.md and EXPERIMENTS.md).

   The paper is pure theory — no measured tables — so each experiment
   regenerates the empirical content of a theorem, proposition, or
   worked example: exact values where the paper states them, convergence
   series for the limit objects, and complexity-scaling curves where the
   paper proves hardness/tractability boundaries. *)

module RInstance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value
module Schema = Relational.Schema
module Query = Logic.Query
module F = Logic.Formula
module Parser = Logic.Parser
module Ucq = Logic.Ucq
module Naive = Incomplete.Naive
module Support = Incomplete.Support
module Certain = Incomplete.Certain
module Dependency = Constraints.Dependency
module Chase = Constraints.Chase
module Sat = Constraints.Sat
module Support_poly = Zeroone.Support_poly
module Measure = Zeroone.Measure
module Alt_measure = Zeroone.Alt_measure
module Owa = Zeroone.Owa
module Conditional = Zeroone.Conditional
module Constructions = Zeroone.Constructions
module Sep = Compare.Sep
module Order = Compare.Order
module Best = Compare.Best
module Ucq_compare = Compare.Ucq_compare
module Pworld = Probdb.Pworld
module R = Arith.Rat
module P = Arith.Poly

let header id title = Printf.printf "\n== %s: %s ==\n%!" id title
let rowf fmt = Printf.printf fmt
let rat = R.to_string
let ratf r = R.to_float r

let time_it f =
  let t0 = Sys.time () in
  let result = f () in
  (result, Sys.time () -. t0)

(* Deterministic small "random" incomplete databases over R(2), S(2). *)
let rs_schema = Schema.make [ ("R", 2); ("S", 2) ]

let random_value rng =
  if Random.State.int rng 2 = 0 then Value.null (Random.State.int rng 3)
  else Value.named ("e" ^ string_of_int (Random.State.int rng 3))

let random_rs_instance rng =
  let rows n = List.init n (fun _ -> [ random_value rng; random_value rng ]) in
  RInstance.of_rows rs_schema
    [ ("R", rows (1 + Random.State.int rng 3));
      ("S", rows (Random.State.int rng 3))
    ]

let fo_query_suite =
  [ Parser.query_exn "Q() := exists x. exists y. R(x, y) & !S(x, y)";
    Parser.query_exn "Q() := forall x. forall y. R(x, y) -> S(x, y)";
    Parser.query_exn "Q() := exists x. R(x, x)";
    Parser.query_exn "Q() := exists x. exists y. R(x, y) & S(y, x)"
  ]

let intro_schema = Parser.schema_exn "R1(customer, product); R2(customer, product)"

let intro_db () =
  Parser.instance_exn intro_schema
    "R1 = { ('c1', ~1), ('c2', ~1), ('c2', ~2) };
     R2 = { ('c1', ~2), ('c2', ~1), (~3, ~1) }"

let intro_query () = Parser.query_exn "Q(x, y) := R1(x, y) & !R2(x, y)"

(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1" "intro example — measuring and comparing certainty (§1)";
  let d = intro_db () and q = intro_query () in
  let a = Parser.tuple_exn "('c1', ~1)" and b = Parser.tuple_exn "('c2', ~2)" in
  rowf "certain answers: %d   naive answers: %d\n"
    (Relation.cardinal (Certain.certain_answers d q))
    (Relation.cardinal (Naive.answers d q));
  let ks = List.map (fun i -> RInstance.max_constant d + i) [ 1; 2; 4; 8; 16 ] in
  rowf "%6s  %-14s %-14s\n" "k" "mu^k(c1,~1)" "mu^k(c2,~2)";
  List.iter
    (fun k ->
      rowf "%6d  %-14s %-14s\n" k
        (rat (Support.mu_k d q a ~k))
        (rat (Support.mu_k d q b ~k)))
    ks;
  rowf "(c1,~1) strictly below (c2,~2): %b   Best = " (Order.lt d q a b);
  Relation.iter (fun t -> rowf "%s " (Tuple.to_string t)) (Best.best d q);
  rowf "\nwith FD customer->product: naive answers after chase = %d (paper: both tuples die)\n"
    (match
       Chase.chase [ { Dependency.fd_relation = "R1"; fd_lhs = [ 0 ]; fd_rhs = 1 } ] d
     with
    | Chase.Success c -> Relation.cardinal (Naive.answers c q)
    | Chase.Failure _ -> -1)

let e2 () =
  header "E2" "the 0-1 law (Theorem 1): mu in {0,1} and mu = naive";
  let rng = Random.State.make [| 2018; 6; 10 |] in
  let trials = 60 in
  let checked = ref 0 and violations = ref 0 in
  for _ = 1 to trials do
    let d = random_rs_instance rng in
    List.iter
      (fun q ->
        let mu = Measure.mu_symbolic d q Tuple.empty in
        let naive = Naive.boolean d q in
        incr checked;
        if not ((R.is_zero mu || R.is_one mu) && R.is_one mu = naive) then
          incr violations)
      fo_query_suite
  done;
  rowf "checked %d (database, query) pairs: %d violations (paper: 0)\n" !checked
    !violations;
  (* one visible convergence series *)
  let d =
    RInstance.of_rows rs_schema [ ("R", [ [ Value.null 1; Value.null 2 ] ]) ]
  in
  let q = Parser.query_exn "Q() := exists x. exists y. R(x, y) & x != y" in
  rowf "sample series for Q = 'the two nulls differ' (limit 1):\n";
  List.iter
    (fun k -> rowf "  k = %3d  mu^k = %-10s ~ %.4f\n" k (rat (Support.mu_k_boolean d q ~k)) (ratf (Support.mu_k_boolean d q ~k)))
    [ 2; 4; 8; 16; 32 ];
  rowf "symbolic |Supp^k| = %s over k^2\n"
    (P.to_string (Support_poly.of_query d q Tuple.empty))

let e3 () =
  header "E3" "valuation- vs instance-counting measures (Theorem 2)";
  let d =
    RInstance.of_rows rs_schema
      [ ("R", [ [ Value.named "one"; Value.null 1 ]; [ Value.named "one"; Value.null 2 ] ]) ]
  in
  let q = Parser.query_exn "exists x. exists y. exists z. R(x, y) & R(x, z) & y != z" in
  let k0 = RInstance.max_constant d in
  rowf "%6s  %-12s %-12s (paper: different values, same limit 1)\n" "k" "mu^k" "m^k";
  List.iter
    (fun i ->
      let k = k0 + i in
      rowf "%6d  %-12s %-12s\n" k
        (rat (Support.mu_k_boolean d q ~k))
        (rat (Alt_measure.m_k_boolean d q ~k)))
    [ 1; 2; 4; 8; 12 ]

let e4 () =
  header "E4" "open-world measure (Proposition 2)";
  let w = Constructions.owa_witness () in
  rowf "Q1 = not exists x. U(x): naive = %b, owa-m^k below (paper: 2^-k -> 0)\n"
    (Naive.boolean w.Constructions.ow_instance w.Constructions.ow_q1);
  rowf "%6s  %-10s %-10s\n" "k" "Q1" "Q2";
  List.iter
    (fun k ->
      rowf "%6d  %-10s %-10s\n" k
        (rat (Owa.owa_m_k w.Constructions.ow_instance w.Constructions.ow_q1 ~k))
        (rat (Owa.owa_m_k w.Constructions.ow_instance w.Constructions.ow_q2 ~k)))
    [ 1; 2; 3; 4; 5 ]

let e5 () =
  header "E5" "the implication measure degenerates (Proposition 3)";
  let d =
    RInstance.of_rows rs_schema [ ("R", [ [ Value.null 1; Value.null 2 ] ]) ]
  in
  let sigma_mu0 = Parser.formula_exn "exists x. R(x, x)" in
  let sigma_mu1 = Parser.formula_exn "exists x. exists y. R(x, y) & x != y" in
  let q_mu0 = Parser.query_exn "exists x. exists y. S(x, y)" in
  let q_mu1 = Parser.query_exn "exists x. exists y. R(x, y)" in
  rowf "%-14s %-10s %-12s %-14s\n" "mu(Sigma)" "mu(Q)" "mu(Sigma->Q)" "paper says";
  let cases =
    [ (sigma_mu0, q_mu0, "1 (vacuous)"); (sigma_mu0, q_mu1, "1 (vacuous)");
      (sigma_mu1, q_mu0, "mu(Q) = 0"); (sigma_mu1, q_mu1, "mu(Q) = 1")
    ]
  in
  List.iter
    (fun (sigma, q, expect) ->
      let ms = Measure.mu_symbolic d (Query.boolean sigma) Tuple.empty in
      let mq = Measure.mu_symbolic d q Tuple.empty in
      let mi = Conditional.mu_implication ~sigma d q Tuple.empty in
      rowf "%-14s %-10s %-12s %-14s\n" (rat ms) (rat mq) (rat mi) expect)
    cases

let e6 () =
  header "E6" "conditional probabilities 1/3 and 2/3 (§4 example)";
  let e = Constructions.section4_example () in
  List.iter
    (fun (t, expect) ->
      let r =
        Conditional.mu_cond_report ~sigma:e.Constructions.s4_sigma
          e.Constructions.s4_instance e.Constructions.s4_query t
      in
      rowf "mu(Q|Sigma,D,%s) = %-5s (paper: %s)  num=%s den=%s\n"
        (Tuple.to_string t) (rat r.Conditional.value) expect
        (P.to_string r.Conditional.numerator)
        (P.to_string r.Conditional.denominator))
    [ (e.Constructions.s4_tuple_third, "1/3");
      (e.Constructions.s4_tuple_two_thirds, "2/3")
    ]

let e7 () =
  header "E7" "convergence of mu^k(Q|Sigma) (Theorem 3)";
  (* FD case: genuine k-dependence, limit 0 (0-1 law recovered). *)
  let d =
    RInstance.of_rows rs_schema
      [ ("R", [ [ Value.named "one"; Value.null 1 ]; [ Value.named "one"; Value.null 2 ] ]) ]
  in
  let fd = { Dependency.fd_relation = "R"; fd_lhs = [ 0 ]; fd_rhs = 1 } in
  let sigma = Dependency.set_to_formula rs_schema [ Dependency.Fd fd ] in
  let q = Parser.query_exn "Q() := R('one', 'one')" in
  rowf "FD case, Q = R(one,one): mu^k(Q|Sigma) = 1/k -> 0\n";
  let k0 = RInstance.max_constant d in
  List.iter
    (fun i ->
      let k = k0 + i in
      rowf "  k = %3d  %-10s\n" k (rat (Conditional.mu_cond_k ~sigma d q Tuple.empty ~k)))
    [ 1; 2; 4; 8; 16 ];
  let report = Conditional.mu_cond_report ~sigma d q Tuple.empty in
  rowf "  symbolic: num %s / den %s -> limit %s\n"
    (P.to_string report.Conditional.numerator)
    (P.to_string report.Conditional.denominator)
    (rat report.Conditional.value);
  (* IND case: the measure is a non-trivial rational, constant in k. *)
  let w = Constructions.rational_witness ~p:3 ~r:7 in
  let report =
    Conditional.mu_cond_report ~sigma:w.Constructions.rw_sigma
      w.Constructions.rw_instance w.Constructions.rw_query Tuple.empty
  in
  rowf "IND case (Prop 4 witness 3/7): num %s / den %s -> limit %s\n"
    (P.to_string report.Conditional.numerator)
    (P.to_string report.Conditional.denominator)
    (rat report.Conditional.value)

let e8 () =
  header "E8" "every rational is realizable (Proposition 4)";
  rowf "%-8s %-8s %s\n" "target" "measured" "ok";
  List.iter
    (fun (p, r) ->
      let w = Constructions.rational_witness ~p ~r in
      let got =
        Conditional.mu_cond_boolean ~sigma:w.Constructions.rw_sigma
          w.Constructions.rw_instance w.Constructions.rw_query
      in
      rowf "%d/%-6d %-8s %b\n" p r (rat got) (R.equal got w.Constructions.rw_expected))
    [ (1, 1); (1, 2); (1, 3); (2, 3); (3, 4); (2, 5); (5, 8); (3, 7); (7, 11); (9, 10) ]

let e9 () =
  header "E9" "constraints break the naive connection (§4.3 example)";
  let e = Constructions.naive_breaks () in
  rowf "Q naively true:          %b (paper: true)\n"
    (Naive.boolean e.Constructions.nb_instance e.Constructions.nb_query);
  rowf "Sigma->Q naively true:   %b (paper: true)\n"
    (Naive.sentence e.Constructions.nb_instance
       (F.Implies (e.Constructions.nb_sigma, e.Constructions.nb_query.Query.body)));
  rowf "mu(Q|Sigma,D):           %s (paper: 0)\n"
    (rat
       (Conditional.mu_cond_boolean ~sigma:e.Constructions.nb_sigma
          e.Constructions.nb_instance e.Constructions.nb_query))

let orders_schema =
  Schema.make_with_attrs [ ("Orders", [ "id"; "customer" ]); ("Customers", [ "cid" ]) ]

let orders_instance ~rows ~nulls =
  (* [rows] orders; the first [nulls] reference unresolved customers. *)
  let order i =
    let cust =
      if i < nulls then Value.null i
      else Value.named ("cust" ^ string_of_int (i mod 5))
    in
    [ Value.named ("o" ^ string_of_int i); cust ]
  in
  RInstance.of_rows orders_schema
    [ ("Orders", List.init rows order);
      ("Customers", List.init 5 (fun i -> [ Value.named ("cust" ^ string_of_int i) ]))
    ]

let e10 () =
  header "E10" "Prop 6: satisfiability is polynomial; counting is hard";
  let cs =
    [ Dependency.key "Orders" [ 0 ]; Dependency.key "Customers" [ 0 ];
      Dependency.foreign_key "Orders" [ 1 ] "Customers" [ 0 ]
    ]
  in
  rowf "satisfiability (polynomial procedure) vs database size:\n";
  rowf "%8s %12s\n" "rows" "seconds";
  List.iter
    (fun rows ->
      let d = orders_instance ~rows ~nulls:(min rows 3) in
      let _, dt = time_it (fun () -> Sat.unary_keys_fks orders_schema cs d) in
      rowf "%8d %12.6f\n" rows dt)
    [ 8; 16; 32; 64; 128 ];
  rowf "exact support counting (the #P-hard numerator) vs number of nulls:\n";
  let unary_schema = Schema.make [ ("Ref", 1); ("Dom", 1) ] in
  let sigma =
    Dependency.set_to_formula unary_schema [ Dependency.ind "Ref" [ 0 ] "Dom" [ 0 ] ]
  in
  rowf "%8s %12s %16s\n" "nulls" "seconds" "Bell(m) classes";
  List.iter
    (fun m ->
      let d =
        RInstance.of_rows unary_schema
          [ ("Ref", List.init m (fun i -> [ Value.null i ]));
            ("Dom", [ [ Value.named "d0" ]; [ Value.named "d1" ] ])
          ]
      in
      let _, dt = time_it (fun () -> Support_poly.of_sentence d sigma) in
      rowf "%8d %12.6f %16s\n" m dt
        (Arith.Bigint.to_string (Arith.Combinat.bell m)))
    [ 1; 2; 3; 4; 5; 6; 7 ]

let e11 () =
  header "E11" "almost-certainly-true constraints change nothing (Theorem 4)";
  let rng = Random.State.make [| 4; 4; 4 |] in
  let sigma = Parser.formula_exn "forall x. forall y. R(x, y) -> S(x, y)" in
  let q = List.hd fo_query_suite in
  let applicable = ref 0 and agreements = ref 0 in
  for _ = 1 to 60 do
    (* build S ⊇ R so that Σ: R ⊆ S is naively true by construction *)
    let r_rows =
      List.init
        (1 + Random.State.int rng 2)
        (fun _ -> [ random_value rng; random_value rng ])
    in
    let extra = List.init (Random.State.int rng 2) (fun _ -> [ random_value rng; random_value rng ]) in
    let d = RInstance.of_rows rs_schema [ ("R", r_rows); ("S", r_rows @ extra) ] in
    if Naive.sentence d sigma then begin
      incr applicable;
      if
        R.equal
          (Conditional.mu_cond ~sigma d q Tuple.empty)
          (Measure.mu_symbolic d q Tuple.empty)
      then incr agreements
    end
  done;
  rowf "instances with Sigma naively true: %d;  mu(Q|Sigma) = mu(Q) on %d (paper: all)\n"
    !applicable !agreements

let e12 () =
  header "E12" "FDs: chase shortcut vs direct conditional (Thm 5 / Cor 4)";
  let fd = { Dependency.fd_relation = "R"; fd_lhs = [ 0 ]; fd_rhs = 1 } in
  let sigma = Dependency.set_to_formula rs_schema [ Dependency.Fd fd ] in
  let q = List.hd fo_query_suite in
  let make_instance m =
    (* m null pairs sharing keys: the chase has real work to do *)
    RInstance.of_rows rs_schema
      [ ("R",
         List.concat
           (List.init m (fun i ->
                [ [ Value.named ("key" ^ string_of_int i); Value.null (2 * i) ];
                  [ Value.named ("key" ^ string_of_int i); Value.null ((2 * i) + 1) ]
                ])))
      ]
  in
  rowf "%8s %14s %16s %18s %8s\n" "nulls" "chase (s)" "direct-FO (s)"
    "direct-struct (s)" "equal";
  List.iter
    (fun m ->
      let d = make_instance m in
      let via_chase, t_chase =
        time_it (fun () -> Conditional.mu_cond_fds [ fd ] d q Tuple.empty)
      in
      let direct, t_direct =
        if m <= 2 then time_it (fun () -> Conditional.mu_cond ~sigma d q Tuple.empty)
        else (via_chase, Float.nan)
      in
      let direct2, t_direct2 =
        time_it (fun () ->
            Conditional.mu_cond_deps_direct [ Dependency.Fd fd ] d q Tuple.empty)
      in
      rowf "%8d %14.6f %16.6f %18.6f %8b\n" (2 * m) t_chase t_direct t_direct2
        (R.equal via_chase direct && R.equal via_chase direct2))
    [ 1; 2; 3 ];
  rowf
    "(chase flat; compiled-FO conditional explodes first; the structural fast \
     path buys one more doubling before Bell(m) wins)\n"

let e13 () =
  header "E13" "best answers for R minus S (§5 example)";
  let d =
    RInstance.of_rows rs_schema
      [ ("R", [ [ Value.named "1"; Value.null 1 ]; [ Value.named "2"; Value.null 2 ] ]);
        ("S", [ [ Value.named "1"; Value.null 2 ]; [ Value.null 3; Value.null 1 ] ])
      ]
  in
  let q = Parser.query_exn "Q(x, y) := R(x, y) & !S(x, y)" in
  rowf "certain answers: %d (paper: 0)\n"
    (Relation.cardinal (Certain.certain_answers d q));
  rowf "Best(Q,D) = ";
  Relation.iter (fun t -> rowf "%s " (Tuple.to_string t)) (Best.best d q);
  rowf " (paper: {(2,~2)})\n"

let e14 () =
  header "E14" "cost of FO comparisons grows with the number of nulls (Thms 6-7)";
  let q = intro_query () in
  let make_db extra =
    (* intro database padded with extra null-carrying rows *)
    let base = intro_db () in
    List.fold_left
      (fun d i ->
        RInstance.add_tuple "R1"
          (Tuple.of_list [ Value.named ("cx" ^ string_of_int i); Value.null (10 + i) ])
          d)
      base
      (List.init extra (fun i -> i))
  in
  rowf "%8s %12s %14s\n" "nulls" "sep (s)" "best (s)";
  List.iter
    (fun extra ->
      let d = make_db extra in
      let a = Parser.tuple_exn "('c1', ~1)" and b = Parser.tuple_exn "('c2', ~2)" in
      let _, t_sep = time_it (fun () -> Sep.sep d q a b) in
      let _, t_best =
        if extra <= 1 then time_it (fun () -> ignore (Best.best d q))
        else ((), Float.nan)
      in
      rowf "%8d %12.6f %14.6f\n" (3 + extra) t_sep t_best)
    [ 0; 1; 2; 3 ]

let e15 () =
  header "E15" "Theorem 8: UCQ comparisons in polynomial time";
  let q = Parser.query_exn "Q(x) := exists y. R(x, y) & S(y, x)" in
  let u = Option.get (Ucq.of_query q) in
  let make_db m =
    RInstance.of_rows rs_schema
      [ ("R", List.init m (fun i -> [ Value.named ("a" ^ string_of_int i); Value.null i ]));
        ("S", List.init m (fun i -> [ Value.null i; Value.named ("a" ^ string_of_int i) ]))
      ]
  in
  rowf "%8s %14s %14s %8s\n" "nulls" "generic (s)" "Thm 8 (s)" "agree";
  List.iter
    (fun m ->
      let d = make_db m in
      let a = Tuple.of_list [ Value.named "a0" ] in
      let b = Tuple.of_list [ Value.null (m - 1) ] in
      let fast, t_fast = time_it (fun () -> Ucq_compare.sep d u a b) in
      let slow, t_slow =
        if m <= 4 then time_it (fun () -> Sep.sep d q a b) else (fast, Float.nan)
      in
      rowf "%8d %14.6f %14.6f %8b\n" m t_slow t_fast (fast = slow))
    [ 1; 2; 3; 4; 5 ];
  rowf "(the generic class search is exponential in nulls; Theorem 8 is polynomial)\n"

let e16 () =
  header "E16" "naive evaluation cannot decide support orderings (§5.1)";
  let schema = Schema.make [ ("R", 2) ] in
  let d =
    RInstance.of_rows schema
      [ ("R", [ [ Value.named "1"; Value.null 7 ]; [ Value.null 7; Value.named "2" ] ]) ]
  in
  let q = Parser.query_exn "Q(x, y) := R(x, y)" in
  let a = Tuple.consts [ "1"; "2" ] and b = Tuple.consts [ "1"; "1" ] in
  rowf "naive(Q(a) -> Q(b)): %b (suggests a below b)\n"
    (Naive.sentence d (F.Implies (Query.instantiate q a, Query.instantiate q b)));
  rowf "a actually below b:  %b (paper: false — naive evaluation misleads)\n"
    (Order.leq d q a b)

let e17 () =
  header "E17" "best vs almost-certain are orthogonal (Proposition 7)";
  let w = Constructions.orthogonality_witness () in
  let line label inst q t =
    rowf "%-24s best=%-5b mu=%s\n" label (Best.is_best inst q t)
      (rat (Measure.to_rat (Measure.mu inst q t)))
  in
  line "base, tuple a" w.Constructions.og_base_instance w.Constructions.og_base_query
    w.Constructions.og_a;
  line "base, tuple b" w.Constructions.og_base_instance w.Constructions.og_base_query
    w.Constructions.og_b;
  line "ext, tuple a" w.Constructions.og_ext_instance w.Constructions.og_ext_query
    w.Constructions.og_a;
  line "ext, tuple b" w.Constructions.og_ext_instance w.Constructions.og_ext_query
    w.Constructions.og_b;
  rowf "(paper: all four best/non-best x mu=1/mu=0 combinations occur)\n"

let e18 () =
  header "E18" "Best_mu (Proposition 8)";
  let w = Constructions.orthogonality_witness () in
  let show label inst q =
    rowf "%-6s Best = " label;
    Relation.iter (fun t -> rowf "%s " (Tuple.to_string t)) (Best.best inst q);
    rowf "  Best_mu = ";
    Relation.iter (fun t -> rowf "%s " (Tuple.to_string t)) (Best.best_mu inst q);
    rowf "\n"
  in
  show "base" w.Constructions.og_base_instance w.Constructions.og_base_query;
  show "ext" w.Constructions.og_ext_instance w.Constructions.og_ext_query

let e19 () =
  header "E19" "Pos-forall-G queries: certain = almost certainly true (Cor 3)";
  let rng = Random.State.make [| 19; 19 |] in
  let queries =
    [ Parser.query_exn "Q(x) := exists y. R(x, y)";
      Parser.query_exn "Q(x) := forall y. forall z. S(y, z) -> R(x, y)";
      Parser.query_exn "Q(x, y) := R(x, y) | S(x, y)"
    ]
  in
  List.iter
    (fun q ->
      if not (Logic.Fragment.is_pos_forall_guard q.Query.body) then
        rowf "NOT in the fragment: %s\n" (Query.to_string q))
    queries;
  (* a query that looks guarded but has a free variable inside the
     guard — genuinely outside Pos∀G, where the equality can fail *)
  rowf "control: 'forall y. S(x, y) -> exists z. R(x, z)' in fragment: %b (should be false)\n"
    (Logic.Fragment.is_pos_forall_guard
       (Parser.query_exn "Q(x) := forall y. S(x, y) -> (exists z. R(x, z))").Query.body);
  let checked = ref 0 and agreements = ref 0 in
  for _ = 1 to 25 do
    let d = random_rs_instance rng in
    List.iter
      (fun q ->
        incr checked;
        if
          Relation.equal (Certain.certain_answers d q)
            (Measure.almost_certain_answers d q)
        then incr agreements)
      queries
  done;
  rowf "checked %d pairs: certain = almost-certainly-true on %d (paper: all)\n"
    !checked !agreements

let e20 () =
  header "E20" "mu^k three ways (probabilistic databases, §3.2 remark)";
  let d = intro_db () in
  let q = Parser.query_exn "Q() := exists x. exists y. R1(x, y) & !R2(x, y)" in
  let sp = Support_poly.of_sentences d [ Query.instantiate q Tuple.empty ] in
  rowf "%6s %-14s %-14s %-14s %10s\n" "k" "enumeration" "class census" "prob. worlds"
    "#worlds";
  List.iter
    (fun k ->
      let brute = Support.mu_k_boolean d q ~k in
      let sym = Support_poly.mu_k_exact sp ~sentence:0 ~k in
      let worlds = Pworld.of_incomplete d ~k in
      let prob = Pworld.prob_sentence worlds q.Query.body in
      rowf "%6d %-14s %-14s %-14s %10d\n" k (rat brute) (rat sym) (rat prob)
        (Pworld.world_count worlds))
    (List.map (fun i -> RInstance.max_constant d + i) [ 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper (its §6 future-work directions)          *)
(* ------------------------------------------------------------------ *)

let e21 () =
  header "E21" "extension: non-uniform distributions (§6 'Other distributions')";
  let d =
    RInstance.of_rows rs_schema [ ("R", [ [ Value.null 1; Value.null 2 ] ]) ]
  in
  let q = Parser.query_exn "Q() := exists x. R(x, x)" in
  let module W = Zeroone.Weighted in
  rowf "Q = 'the two nulls collide'; uniform µ = 0 by the 0-1 law.\n";
  rowf "%6s %-12s %-14s %-14s\n" "k" "uniform" "favourite(10)" "geometric(1/2)";
  List.iter
    (fun k ->
      rowf "%6d %-12s %-14s %-14s\n" k
        (rat (W.mu_k_boolean W.uniform d q ~k))
        (rat (W.mu_k_boolean (W.favourite ~code:1 ~weight:(R.of_int 10)) d q ~k))
        (rat (W.mu_k_boolean (W.geometric ~ratio:R.half) d q ~k)))
    [ 2; 4; 8; 16 ];
  rowf
    "(geometric mass never spreads out: the measure converges to 1/3, not 0 — \
     the 0-1 law is distribution-dependent)\n"

let e22 () =
  header "E22" "extension: SQL nulls and approximation quality (§6)";
  let d = intro_db () in
  let q = intro_query () in
  let module A = Zeroone.Approx in
  let describe name scheme =
    let r = A.evaluate scheme d q in
    rowf
      "%-22s returned=%d missed=%d spurious(benign)=%d spurious(harmful)=%d \
       recall=%s precision=%s\n"
      name
      (Relation.cardinal r.A.returned)
      (Relation.cardinal r.A.missed)
      (Relation.cardinal r.A.spurious_benign)
      (Relation.cardinal r.A.spurious_harmful)
      (rat (A.recall r)) (rat (A.precision r))
  in
  describe "SQL 3VL" A.sql_scheme;
  describe "naive (marked nulls)" (fun d q -> Naive.answers d q);
  describe "naive, null-free" A.naive_null_free_scheme;
  let self_join = Parser.formula_exn "exists x. R1(x, x)" in
  let d2 =
    RInstance.of_rows intro_schema
      [ ("R1", [ [ Value.null 9; Value.null 9 ] ]) ]
  in
  rowf "repeated null ~9: certain %b, naive %b, SQL says %s\n"
    (Certain.is_certain_sentence d2 self_join)
    (Naive.sentence d2 self_join)
    (Logic.Sql3vl.to_string3 (Logic.Sql3vl.sentence_holds d2 self_join))

let e23 () =
  header "E23" "extension: Codd nulls and relational algebra";
  let d = intro_db () in
  let c = Incomplete.Codd.coddify d in
  rowf "intro database is Codd: %b; coddified has %d nulls (was %d)\n"
    (Incomplete.Codd.is_codd d)
    (RInstance.null_count c) (RInstance.null_count d);
  let q = Parser.formula_exn "exists x. exists y. R1(x, y) & R2(x, y)" in
  rowf "Q = 'some purchase from both suppliers': certain on D: %b, on coddify(D): %b\n"
    (Certain.is_certain_sentence d q)
    (Certain.is_certain_sentence c q);
  rowf "(forgetting null equalities loses certainty — [[D]] ⊆ [[coddify D]])\n";
  let module Ra = Logic.Ra in
  let expr = Ra.Diff (Ra.Rel "R1", Ra.Rel "R2") in
  let direct = Ra.eval d expr in
  let compiled = Logic.Eval.answers d (Ra.to_query intro_schema expr) in
  rowf "RA plan %s: direct eval %d tuples; compiled-to-FO eval agrees: %b\n"
    (Ra.to_string expr) (Relation.cardinal direct)
    (Relation.equal direct compiled)

let e24 () =
  header "E24" "extension: the 0-1 law beyond FO (datalog / transitive closure)";
  let graph_schema = Schema.make [ ("E", 2) ] in
  let program =
    Datalog.Program.parse_exn graph_schema
      "TC(x, y) := E(x, y). TC(x, z) := E(x, y), TC(y, z)."
  in
  let q = Zeroone.Generic.of_datalog graph_schema program ~goal:"TC" in
  let d =
    RInstance.of_rows graph_schema
      [ ("E",
         [ [ Value.named "src"; Value.null 1 ];
           [ Value.null 2; Value.named "dst" ]
         ])
      ]
  in
  rowf "graph: src -> ~1, ~2 -> dst;  query: TC (not FO-expressible)\n";
  let t = Tuple.consts [ "src"; "dst" ] in
  let k0 = RInstance.max_constant d in
  rowf "%6s %-14s\n" "k" "mu^k(src,dst)";
  List.iter
    (fun i ->
      let k = k0 + i in
      rowf "%6d %-14s\n" k (rat (Zeroone.Generic.mu_k d q t ~k)))
    [ 1; 2; 4; 8 ];
  rowf "symbolic mu = %s;  naive membership = %b  (Theorem 1 for a generic, recursive query)\n"
    (rat (Zeroone.Generic.mu_symbolic d q t))
    (Relation.mem t (Zeroone.Generic.naive_answers d q));
  (* a tuple with mu = 1 *)
  let t1 = Tuple.of_list [ Value.named "src"; Value.null 1 ] in
  rowf "mu(src,~1) = %s and certain = %b (the edge is explicit)\n"
    (rat (Zeroone.Generic.mu_symbolic d q t1))
    (Zeroone.Generic.is_certain d q t1)

let e25 () =
  header "E25" "extension: c-tables represent, measures grade (IL84 + Thm 1)";
  let d =
    RInstance.of_rows rs_schema
      [ ("R", [ [ Value.named "one"; Value.null 1 ]; [ Value.named "two"; Value.null 2 ] ]);
        ("S", [ [ Value.named "one"; Value.null 2 ]; [ Value.null 3; Value.null 1 ] ])
      ]
  in
  let module CT = Ctables.Ctable in
  let module Ra = Logic.Ra in
  let plan = Ra.Diff (Ra.Rel "R", Ra.Rel "S") in
  let ct = CT.eval d plan in
  rowf "plan %s compiled to a c-table:\n%s" (Ra.to_string plan)
    (Format.asprintf "%a" CT.pp ct);
  rowf "certain tuples from conditions: %d (paper's §5 example: none)\n"
    (Relation.cardinal (CT.certain_tuples ct));
  (* representation theorem spot-check over the constants of D plus two
     fresh values — sufficient by genericity *)
  let top = RInstance.max_constant d in
  let domain = RInstance.constants d @ [ top + 1; top + 2 ] in
  let nulls = RInstance.nulls d in
  let ok =
    List.for_all
      (fun codes ->
        let v = Incomplete.Valuation.of_list (List.combine nulls codes) in
        Relation.equal (CT.instantiate v ct)
          (Ra.eval (Incomplete.Valuation.instance v d) plan))
      (Arith.Combinat.tuples domain (List.length nulls))
  in
  rowf "IL84 closure check over %d^%d representative valuations: %b\n"
    (List.length domain) (List.length nulls) ok;
  (* the measures grade what the c-table represents *)
  let q = Ra.to_query rs_schema plan in
  Relation.iter
    (fun t ->
      rowf "  row %s : mu = %s\n" (Tuple.to_string t)
        (rat (Measure.to_rat (Measure.mu d q t))))
    (CT.possible_tuples ct)

let all =
  [ ("e1_intro", e1); ("e2_zero_one", e2); ("e3_alt_measure", e3);
    ("e4_owa", e4); ("e5_implication", e5); ("e6_conditional_example", e6);
    ("e7_convergence", e7); ("e8_rational_sweep", e8); ("e9_naive_breaks", e9);
    ("e10_sat_vs_count", e10); ("e11_acc_constraints", e11); ("e12_chase", e12);
    ("e13_best_example", e13); ("e14_fo_scaling", e14); ("e15_ucq", e15);
    ("e16_naive_no_help", e16); ("e17_orthogonal", e17); ("e18_best_mu", e18);
    ("e19_posforallg", e19); ("e20_probdb", e20); ("e21_weighted", e21);
    ("e22_sql_approx", e22); ("e23_codd_ra", e23); ("e24_datalog", e24);
    ("e25_ctables", e25)
  ]

(* Tests for the null-dependency decomposition pipeline: the
   Depgraph/Decomp certificate, the factorized Support/Conditional
   evaluators and the weak-acyclicity chase-termination certificate.

   The load-bearing checks are randomized equivalences — the
   factorized engines must agree with the monolithic ones on every
   sound plan, and the static termination certificate must be honoured
   by the dynamic chase:

     Support.supp_count_plan     ≡ Support.count_satisfying (monolithic)
     Support.mu_k_plan           ≡ µ^k from the monolithic count
     Conditional.mu_cond_k_plans ≡ Conditional.mu_cond_k
     Wacyclic.Weakly_acyclic     ⇒ chase_tgds terminates within budget

   The generators are driven by explicit [Random.State] seeds, so every
   failure is reproducible from the printed seed. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Instance = Relational.Instance
module F = Logic.Formula
module Query = Logic.Query
module Parser = Logic.Parser
module Dependency = Constraints.Dependency
module Wacyclic = Constraints.Wacyclic
module Chase = Constraints.Chase
module Factor = Incomplete.Factor
module Support = Incomplete.Support
module Enumerate = Incomplete.Enumerate
module Decomp = Analysis.Decomp
module B = Arith.Bigint
module R = Arith.Rat

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let seeds = List.init 300 Fun.id
let state seed = Random.State.make [| 0xdec0; seed |]

(* ------------------------------------------------------------------ *)
(* Fixtures: the two-block workload of bench/main.ml                    *)
(* ------------------------------------------------------------------ *)

let two_block_schema =
  Parser.schema_exn "R1(a, b); R2(a, b); S1(a, b); S2(a, b)"

let two_block_db =
  Parser.instance_exn two_block_schema
    "R1 = { ('c1', ~1), ('c2', ~2), ('c3', ~3) }; R2 = { ('c1', ~2), ('c2', \
     ~3) }; S1 = { ('d1', ~4), ('d2', ~5), ('d3', ~6) }; S2 = { ('d1', ~5), \
     ('d2', ~6) }"

let two_block_q =
  Parser.query_exn
    "Q() := R1('c1', 'c1') & !R2('c2', 'c2') & S1('d1', 'd1') & !S2('d2', \
     'd2')"

let two_block_sentence = Query.instantiate two_block_q Tuple.empty

let two_block_plan () =
  let d = Decomp.analyze two_block_db two_block_sentence in
  match Decomp.plan d with
  | Some p -> (d, p)
  | None -> Alcotest.fail "two-block sentence did not decompose"

(* ------------------------------------------------------------------ *)
(* Certificates                                                         *)
(* ------------------------------------------------------------------ *)

let test_two_block_certificate () =
  let d, plan = two_block_plan () in
  (match d.Decomp.verdict with
  | Decomp.Decomposable -> ()
  | v -> Alcotest.failf "expected Decomposable, got %s" (Decomp.verdict_string v));
  check int_t "parts" 2 (Decomp.parts d);
  check int_t "components" 2 (List.length plan.Factor.components);
  List.iter
    (fun (c : Factor.component) ->
      check int_t "component nulls" 3 (List.length c.Factor.c_nulls))
    plan.Factor.components;
  check int_t "free nulls" 0 (List.length plan.Factor.free_nulls);
  check int_t "all nulls" 6 (List.length plan.Factor.all_nulls)

let test_unguarded_indecomposable () =
  let q = Parser.query_exn "Q() := exists x. !R1(x, x)" in
  let d = Decomp.analyze two_block_db (Query.instantiate q Tuple.empty) in
  (match d.Decomp.verdict with
  | Decomp.Indecomposable reason ->
      check bool_t "reason nonempty" true (String.length reason > 0)
  | v -> Alcotest.failf "expected Indecomposable, got %s" (Decomp.verdict_string v));
  check bool_t "no plan" true (Decomp.plan d = None)

let test_free_nulls_factor () =
  (* Only the R-block is mentioned: the S-nulls are free and contribute
     a bare k^3 factor to the count, cancelling in µ^k. *)
  let q = Parser.query_exn "Q() := R1('c1', 'c1')" in
  let sentence = Query.instantiate q Tuple.empty in
  let d = Decomp.analyze two_block_db sentence in
  match Decomp.plan d with
  | None -> Alcotest.fail "free-null sentence did not plan"
  | Some plan ->
      check int_t "free nulls" 3 (List.length plan.Factor.free_nulls);
      List.iter
        (fun k ->
          let db = Support.kernel_db two_block_db in
          let mono =
            Support.count_satisfying ~db ~sentence
              ~nulls:plan.Factor.all_nulls ~k ()
          in
          check string_t
            (Printf.sprintf "count at k=%d" k)
            (B.to_string mono)
            (B.to_string (Support.supp_count_plan two_block_db plan ~k)))
        [ 2; 3; 5 ]

(* ------------------------------------------------------------------ *)
(* Randomized factorized-vs-monolithic equivalences                     *)
(* ------------------------------------------------------------------ *)

let schema = Schema.make [ ("R", 2); ("S", 2) ]

let gen_value st =
  match Random.State.int st 5 with
  | 0 | 1 -> Value.const (1 + Random.State.int st 3)
  | _ -> Value.null (1 + Random.State.int st 4)

let gen_instance st =
  let rows bound =
    List.init (Random.State.int st bound) (fun _ ->
        [ gen_value st; gen_value st ])
  in
  Instance.of_rows schema [ ("R", rows 4); ("S", rows 4) ]

(* Conjuncts are mostly ground literals over constants and nulls, with
   occasional guarded quantifiers — all shapes the planner must either
   factor soundly or refuse. *)
let gen_conjunct st =
  let t () = F.Val (gen_value st) in
  let atom rel = F.Atom (rel, [ t (); t () ]) in
  match Random.State.int st 8 with
  | 0 -> atom "R"
  | 1 -> atom "S"
  | 2 -> F.Not (atom "R")
  | 3 -> F.Not (atom "S")
  | 4 -> F.Eq (t (), t ())
  | 5 -> F.And (atom "R", F.Not (atom "S"))
  | 6 -> F.Exists ("x", F.Atom ("R", [ F.Var "x"; t () ]))
  | _ ->
      F.Forall
        ( "x",
          F.Implies
            (F.Atom ("S", [ F.Var "x"; F.Var "x" ]),
             F.Atom ("R", [ F.Var "x"; t () ])) )

let gen_sentence st =
  let n = 1 + Random.State.int st 4 in
  let rec conj i =
    if i = 1 then gen_conjunct st else F.And (gen_conjunct st, conj (i - 1))
  in
  conj n

let test_randomized_count_identity () =
  let decomposed = ref 0 in
  List.iter
    (fun seed ->
      let st = state seed in
      let inst = gen_instance st in
      let sentence = gen_sentence st in
      let d = Decomp.analyze ~extra_nulls:(F.nulls sentence) inst sentence in
      match Decomp.plan d with
      | None -> (
          match d.Decomp.verdict with
          | Decomp.Indecomposable reason ->
              check bool_t "reason nonempty" true (String.length reason > 0)
          | _ -> Alcotest.fail "no plan but not Indecomposable")
      | Some plan ->
          if Decomp.parts d >= 2 then incr decomposed;
          let db = Support.kernel_db inst in
          List.iter
            (fun k ->
              let mono =
                Support.count_satisfying ~db ~sentence
                  ~nulls:plan.Factor.all_nulls ~k ()
              in
              check string_t
                (Printf.sprintf "seed %d k %d count" seed k)
                (B.to_string mono)
                (B.to_string (Support.supp_count_plan inst plan ~k));
              (* µ^k = |Supp^k| / k^m, and 0 on the empty space V^0. *)
              let total = Enumerate.count ~nulls:plan.Factor.all_nulls ~k in
              check string_t
                (Printf.sprintf "seed %d k %d mu" seed k)
                (R.to_string
                   (if B.is_zero total then R.zero else R.make mono total))
                (R.to_string (Support.mu_k_plan inst plan ~k)))
            [ 0; 2; 3; 5 ])
    seeds;
  (* the generator must actually exercise the factorized path *)
  check bool_t "decomposed often enough" true (!decomposed > 20)

let test_randomized_conditional_identity () =
  List.iter
    (fun seed ->
      let st = state seed in
      let inst = gen_instance st in
      let sigma = gen_conjunct st in
      let q = Query.boolean (gen_sentence st) in
      let tuple = Tuple.empty in
      let dnum, dden = Zeroone.Conditional.cond_decomp ~sigma inst q tuple in
      match (Decomp.plan dnum, Decomp.plan dden) with
      | Some num_plan, Some den_plan ->
          List.iter
            (fun k ->
              check string_t
                (Printf.sprintf "seed %d k %d" seed k)
                (R.to_string
                   (Zeroone.Conditional.mu_cond_k ~sigma inst q tuple ~k))
                (R.to_string
                   (Zeroone.Conditional.mu_cond_k_plans ~num_plan ~den_plan
                      inst ~k)))
            [ 0; 2; 3 ]
      | _ -> ())
    (List.filteri (fun i _ -> i < 150) seeds)

(* ------------------------------------------------------------------ *)
(* Weak acyclicity and the TGD chase                                    *)
(* ------------------------------------------------------------------ *)

let test_wacyclic_fixtures () =
  let sch = Parser.schema_exn "R(a); U(a)" in
  let w = Wacyclic.check sch [ Dependency.ind "R" [ 0 ] "U" [ 0 ] ] in
  check bool_t "R ⊆ U weakly acyclic" true (Wacyclic.is_weakly_acyclic w);
  check int_t "one regular edge" 1 w.Wacyclic.n_regular;
  check int_t "no special edge" 0 w.Wacyclic.n_special;
  let sch2 = Parser.schema_exn "E(a, b)" in
  let w2 = Wacyclic.check sch2 [ Dependency.ind "E" [ 1 ] "E" [ 0 ] ] in
  check bool_t "E[2] ⊆ E[1] cyclic" false (Wacyclic.is_weakly_acyclic w2);
  (match w2.Wacyclic.verdict with
  | Wacyclic.Special_cycle (_ :: _) -> ()
  | _ -> Alcotest.fail "expected a nonempty special cycle");
  (* FD-only sets have no position edges at all *)
  let w3 = Wacyclic.check sch2 [ Dependency.fd "E" [ 0 ] 1 ] in
  check bool_t "FD-only weakly acyclic" true (Wacyclic.is_weakly_acyclic w3);
  check int_t "FD-only edges" 0 (w3.Wacyclic.n_regular + w3.Wacyclic.n_special)

let gen_dep st =
  let rel () = if Random.State.bool st then "R" else "S" in
  let col () = Random.State.int st 2 in
  match Random.State.int st 4 with
  | 0 -> Dependency.fd (rel ()) [ col () ] (col ())
  | 1 -> Dependency.key (rel ()) [ col () ]
  | 2 -> Dependency.ind (rel ()) [ col () ] (rel ()) [ col () ]
  | _ -> Dependency.foreign_key (rel ()) [ col () ] (rel ()) [ col () ]

let test_randomized_wacyclic_oracle () =
  List.iter
    (fun seed ->
      let st = state seed in
      let deps = List.init (1 + Random.State.int st 4) (fun _ -> gen_dep st) in
      let inst = gen_instance st in
      let w = Wacyclic.check schema deps in
      if Wacyclic.is_weakly_acyclic w then begin
        match Chase.chase_tgds ~max_steps:5000 schema deps inst with
        | Chase.Tgd_budget _ ->
            Alcotest.failf
              "seed %d: weakly acyclic set exhausted the chase budget" seed
        | Chase.Tgd_fixpoint _ | Chase.Tgd_failed _ -> ()
      end
      else
        match w.Wacyclic.verdict with
        | Wacyclic.Special_cycle (_ :: _) -> ()
        | _ -> Alcotest.failf "seed %d: cyclic verdict without a cycle" seed)
    seeds

let test_chase_tgds_repairs () =
  let sch = Parser.schema_exn "R(a); U(a)" in
  let inst = Parser.instance_exn sch "R = { ('c1') }; U = { }" in
  match Chase.chase_tgds sch [ Dependency.ind "R" [ 0 ] "U" [ 0 ] ] inst with
  | Chase.Tgd_fixpoint chased ->
      check int_t "U repaired" 1
        (Relational.Relation.cardinal (Instance.relation chased "U"))
  | _ -> Alcotest.fail "expected a fixpoint"

let () =
  Alcotest.run "decomp"
    [ ( "certificate",
        [ Alcotest.test_case "two-block workload" `Quick
            test_two_block_certificate;
          Alcotest.test_case "unguarded quantifier refused" `Quick
            test_unguarded_indecomposable;
          Alcotest.test_case "free nulls factor out" `Quick
            test_free_nulls_factor
        ] );
      ( "factorized-support",
        [ Alcotest.test_case "≡ monolithic count (randomized)" `Quick
            test_randomized_count_identity
        ] );
      ( "factorized-conditional",
        [ Alcotest.test_case "≡ monolithic µ^k(Q|Σ) (randomized)" `Quick
            test_randomized_conditional_identity
        ] );
      ( "wacyclic",
        [ Alcotest.test_case "fixtures" `Quick test_wacyclic_fixtures;
          Alcotest.test_case "WA ⇒ chase terminates (randomized)" `Quick
            test_randomized_wacyclic_oracle;
          Alcotest.test_case "inclusion repair reaches fixpoint" `Quick
            test_chase_tgds_repairs
        ] )
    ]

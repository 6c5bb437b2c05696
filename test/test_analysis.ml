(* Tests for the static-analysis subsystem (lib/analysis): the
   diagnostics engine, the safety/genericity/schema checks (one
   positive and one clean case per code), the fragment classifier and
   its dispatch hints, the aggregate report, and the
   classifier-driven fast paths of [Incomplete.Certain] and
   [Zeroone.Conditional]. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Instance = Relational.Instance
module F = Logic.Formula
module Query = Logic.Query
module Parser = Logic.Parser
module Fragment = Logic.Fragment
module Dependency = Constraints.Dependency
module Certain = Incomplete.Certain
module Conditional = Zeroone.Conditional
module Diag = Analysis.Diag
module Safety = Analysis.Safety
module Classify = Analysis.Classify
module Report = Analysis.Report
module R = Arith.Rat

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let rat_t = Alcotest.testable R.pp R.equal

let rs_schema = Schema.make [ ("R", 2); ("S", 1) ]

let codes ds = List.sort_uniq String.compare (List.map (fun d -> d.Diag.code) ds)
let has_code c ds = List.exists (fun d -> d.Diag.code = c) ds
let q s = Parser.query_exn s

(* ------------------------------------------------------------------ *)
(* Diagnostics engine                                                   *)
(* ------------------------------------------------------------------ *)

let test_diag_basics () =
  let e = Diag.error ~code:"ANL001" ~loc:"query" "boom" in
  let w = Diag.warning ~code:"ANL101" ~hint:"drop it" ~loc:"query" "meh" in
  let h = Diag.hint ~code:"ANL301" ~loc:"dispatch" "fast" in
  check string_t "severity strings" "error,warning,hint"
    (String.concat ","
       (List.map (fun d -> Diag.severity_string d.Diag.severity) [ e; w; h ]));
  (* Sort puts errors before warnings before hints regardless of input
     order. *)
  let sorted = Diag.sort [ h; w; e ] in
  check string_t "sorted codes" "ANL001,ANL101,ANL301"
    (String.concat "," (List.map (fun d -> d.Diag.code) sorted));
  check bool_t "has_errors" true (Diag.has_errors [ h; e ]);
  check bool_t "no errors" false (Diag.has_errors [ h; w ]);
  check int_t "count warnings" 1 (Diag.count Diag.Warning [ e; w; h ]);
  (* to_string: one line, hint on an indented continuation. *)
  check string_t "render" "error[ANL001] query: boom" (Diag.to_string e);
  check string_t "render with hint" "warning[ANL101] query: meh\n  = drop it"
    (Diag.to_string w)

let test_diag_registry () =
  (* Every code the checks can emit is registered exactly once, with
     the severity the constructors use. *)
  let expected =
    [ "ANL001"; "ANL002"; "ANL003"; "ANL101"; "ANL102"; "ANL103"; "ANL301";
      "ANL302"; "ANL303"; "ANL304"; "ANL305"; "ANL306"; "ANL307"; "ANL401";
      "ANL402" ]
  in
  check int_t "registry size" (List.length expected) (List.length Diag.registry);
  List.iter
    (fun c ->
      check bool_t (c ^ " registered") true
        (List.exists (fun (c', _, _) -> c' = c) Diag.registry))
    expected;
  let sev c =
    let _, s, _ = List.find (fun (c', _, _) -> c' = c) Diag.registry in
    s
  in
  check bool_t "ANL001 is error" true (sev "ANL001" = Diag.Error);
  check bool_t "ANL305 is hint" true (sev "ANL305" = Diag.Hint);
  check bool_t "ANL306 is hint" true (sev "ANL306" = Diag.Hint);
  check bool_t "ANL307 is warning" true (sev "ANL307" = Diag.Warning);
  check bool_t "ANL401 is hint" true (sev "ANL401" = Diag.Hint);
  check bool_t "ANL402 is hint" true (sev "ANL402" = Diag.Hint)

let test_diag_json () =
  let d =
    Diag.error ~code:"ANL003" ~loc:"query"
      "relation \"T\" unknown\nsecond line"
  in
  let j = Diag.to_json d in
  check bool_t "escapes quotes" true
    (String.length j > 0
    && String.index_opt j '\n' = None
    (* the newline must be escaped, not literal *));
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check bool_t "code field" true (contains "\"code\": \"ANL003\"" j);
  check bool_t "escaped quote" true (contains "\\\"T\\\"" j);
  check bool_t "escaped newline" true (contains "\\n" j);
  check string_t "empty list renders as []" "[]" (Diag.render_json [])

(* ------------------------------------------------------------------ *)
(* Safety / range restriction                                           *)
(* ------------------------------------------------------------------ *)

let test_safety () =
  check bool_t "atom-bound safe" true (Safety.is_safe (q "Q(x, y) := R(x, y)"));
  check bool_t "negation unsafe" false (Safety.is_safe (q "Q(x) := !R(x, x)"));
  (* Equality with a restricted variable propagates restriction. *)
  check bool_t "equality chain safe" true
    (Safety.is_safe (q "Q(x, y) := R(x, x) & y = x"));
  (* Disjunction restricts only the intersection. *)
  check bool_t "one-branch disjunction unsafe" false
    (Safety.is_safe (q "Q(x, y) := R(x, y) | S(x)"));
  check bool_t "both-branch disjunction safe" true
    (Safety.is_safe (q "Q(x) := S(x) | R(x, x)"));
  (* Universal quantification restricts nothing. *)
  check bool_t "forall unsafe" false
    (Safety.is_safe (Query.make [ "x" ] (F.Forall ("y", F.Atom ("R", [ F.var "x"; F.var "y" ])))));
  check string_t "witnesses" "y"
    (String.concat "," (Safety.unsafe_answer_vars (q "Q(x, y) := R(x, x)")))

(* One positive and one clean case per check code. *)
let test_check_codes () =
  let run s = Safety.check_query rs_schema (q s) in
  (* ANL001 unsafe *)
  check bool_t "ANL001 fires" true (has_code "ANL001" (run "Q(x) := !R(x, x)"));
  check bool_t "ANL001 clean" false (has_code "ANL001" (run "Q(x, y) := R(x, y)"));
  (* ANL002 non-generic *)
  check bool_t "ANL002 fires" true (has_code "ANL002" (run "Q(x) := R(x, 'a')"));
  check bool_t "ANL002 clean" false (has_code "ANL002" (run "Q(x, y) := R(x, y)"));
  (* ANL003 schema conformance: unknown relation and arity mismatch *)
  check bool_t "ANL003 unknown relation" true
    (has_code "ANL003" (run "Q(x) := T(x)"));
  check bool_t "ANL003 arity mismatch" true
    (has_code "ANL003" (run "Q(x) := R(x)"));
  check bool_t "ANL003 clean" false (has_code "ANL003" (run "Q(x) := S(x)"));
  (* ANL101 unused quantified variable *)
  check bool_t "ANL101 fires" true
    (has_code "ANL101"
       (Safety.check_query rs_schema
          (Query.make [ "x" ]
             (F.Exists ("z", F.Atom ("R", [ F.var "x"; F.var "x" ]))))));
  check bool_t "ANL101 clean" false
    (has_code "ANL101" (run "Q(x) := exists y. R(x, y)"));
  (* ANL102 trivial subformula *)
  check bool_t "ANL102 fires" true
    (has_code "ANL102"
       (Safety.check_query rs_schema
          (Query.make [ "x" ] (F.And (F.Atom ("S", [ F.var "x" ]), F.False)))));
  check bool_t "ANL102 self-equality" true
    (has_code "ANL102"
       (Safety.check_query rs_schema
          (Query.make [ "x" ]
             (F.And (F.Atom ("S", [ F.var "x" ]), F.Eq (F.var "x", F.var "x"))))));
  check bool_t "ANL102 clean" false (has_code "ANL102" (run "Q(x) := S(x)"));
  (* ANL103 top-level implication *)
  check bool_t "ANL103 fires" true
    (has_code "ANL103"
       (Safety.check_query rs_schema
          (Query.make []
             (F.Implies (F.Atom ("S", [ F.cst "a" ]), F.Atom ("S", [ F.cst "b" ]))))));
  check bool_t "ANL103 clean (nested implication)" false
    (has_code "ANL103"
       (Safety.check_query rs_schema
          (Query.make []
             (F.Forall
                ( "x",
                  F.Implies
                    (F.Atom ("S", [ F.var "x" ]), F.Atom ("R", [ F.var "x"; F.var "x" ])) )))))

(* ------------------------------------------------------------------ *)
(* Classifier and dispatch hints                                        *)
(* ------------------------------------------------------------------ *)

let test_classify_fragment () =
  let frag s = Classify.fragment (q s) in
  check string_t "cq" "CQ" (Fragment.fragment_name (frag "Q(x) := exists y. R(x, y)"));
  check string_t "ucq" "UCQ"
    (Fragment.fragment_name (frag "Q(x) := S(x) | exists y. R(x, y)"));
  check string_t "posforallg" "Pos∀G"
    (Fragment.fragment_name
       (Classify.fragment
          (Query.make []
             (F.Forall
                ( "x",
                  F.Implies
                    (F.Atom ("S", [ F.var "x" ]), F.Atom ("R", [ F.var "x"; F.var "x" ])) )))));
  check string_t "fo" "FO" (Fragment.fragment_name (frag "Q(x) := !S(x)"))

let test_constraint_class () =
  let empty = Classify.constraint_class [] in
  check bool_t "empty fd_only (vacuous)" true empty.Classify.fd_only;
  check bool_t "empty unary (vacuous)" true empty.Classify.unary_keys_fks;
  check int_t "empty count" 0 empty.Classify.n_constraints;
  let fds = Classify.constraint_class [ Dependency.fd "R" [ 0 ] 1 ] in
  check bool_t "fd set fd_only" true fds.Classify.fd_only;
  check bool_t "fd set not unary-keys-fks" false fds.Classify.unary_keys_fks;
  let keys = Classify.constraint_class [ Dependency.key "R" [ 0 ] ] in
  check bool_t "unary key fd_only" true keys.Classify.fd_only;
  check bool_t "unary key unary" true keys.Classify.unary_keys_fks;
  let wide_key = Classify.constraint_class [ Dependency.key "R" [ 0; 1 ] ] in
  check bool_t "binary key not unary" false wide_key.Classify.unary_keys_fks;
  let fks =
    Classify.constraint_class
      [ Dependency.key "S" [ 0 ]; Dependency.foreign_key "R" [ 0 ] "S" [ 0 ] ]
  in
  check bool_t "unary key+fk unary" true fks.Classify.unary_keys_fks;
  check bool_t "fk not fd_only" false fks.Classify.fd_only;
  let ind = Classify.constraint_class [ Dependency.ind "R" [ 0 ] "S" [ 0 ] ] in
  check bool_t "ind neither" false
    (ind.Classify.fd_only || ind.Classify.unary_keys_fks)

let test_dispatch_hints () =
  let cq = q "Q(x) := exists y. R(x, y)" in
  check string_t "cq hints" "ANL301,ANL302"
    (String.concat "," (codes (Classify.dispatch_hints cq)));
  let fo = q "Q(x) := !S(x)" in
  check string_t "fo hints" "" (String.concat "," (codes (Classify.dispatch_hints fo)));
  check bool_t "fd-only hint" true
    (has_code "ANL303"
       (Classify.dispatch_hints ~deps:[ Dependency.fd "R" [ 0 ] 1 ] cq));
  check bool_t "unary sat hint" true
    (has_code "ANL304"
       (Classify.dispatch_hints ~deps:[ Dependency.key "R" [ 0 ] ] cq));
  check bool_t "generic-procedures hint" true
    (has_code "ANL305"
       (Classify.dispatch_hints ~deps:[ Dependency.ind "R" [ 0 ] "S" [ 0 ] ] cq))

(* ------------------------------------------------------------------ *)
(* Aggregate report                                                     *)
(* ------------------------------------------------------------------ *)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_report () =
  let inst =
    Instance.of_rows rs_schema
      [ ("R", [ [ Value.named "a"; Value.null 1 ] ]); ("S", [ [ Value.named "a" ] ]) ]
  in
  let deps = [ Dependency.fd "R" [ 0 ] 1 ] in
  let r = Report.analyze ~inst ~deps rs_schema (q "Q(x, y) := R(x, y)") in
  check bool_t "clean" false (Report.has_errors r);
  check bool_t "safe" true r.Report.safe;
  check bool_t "generic" true r.Report.generic;
  check bool_t "fragment is CQ" true (r.Report.fragment = Fragment.Cq);
  check bool_t "constraint class present" true (r.Report.cclass <> None);
  check bool_t "no certificate for an open query without a tuple" true
    (r.Report.decomp = None);
  let text = Report.to_text r in
  check bool_t "text names fragment" true (contains "CQ" text);
  check bool_t "text has verdict" true (contains "verdict" text);
  check bool_t "text has dispatch" true (contains "ANL301" text);
  let json = Report.to_json r in
  check bool_t "json fragment" true (contains "\"fragment\": \"CQ\"" json);
  check bool_t "json no errors" true (contains "\"errors\": 0" json);
  (* A non-generic query turns the report into an error. *)
  let bad = Report.analyze rs_schema (q "Q(x) := R(x, 'a')") in
  check bool_t "non-generic errors" true (Report.has_errors bad);
  check bool_t "ANL002 in report" true (has_code "ANL002" bad.Report.diags)

(* ------------------------------------------------------------------ *)
(* Classifier-driven dispatch in the engines                            *)
(* ------------------------------------------------------------------ *)

let test_certain_dispatch () =
  (* The dispatching entry point must agree with class enumeration on
     a Pos∀G-or-below query without constants (Corollary 3 says the
     fast path is exact there). *)
  let inst =
    Instance.of_rows rs_schema
      [ ("R",
         [ [ Value.named "a"; Value.null 1 ];
           [ Value.null 1; Value.named "b" ];
           [ Value.named "b"; Value.named "b" ] ]);
        ("S", [ [ Value.named "b" ]; [ Value.null 2 ] ]) ]
  in
  let rel_t =
    Alcotest.testable Relational.Relation.pp Relational.Relation.equal
  in
  List.iter
    (fun s ->
      let query = q s in
      check rel_t s
        (Certain.certain_answers_enumerated inst query)
        (Certain.certain_answers inst query))
    [ "Q(x) := exists y. R(x, y)";
      "Q(x, y) := R(x, y)";
      "Q(x) := S(x) | exists y. R(y, x)"
    ]

let test_conditional_dispatch () =
  let schema = Schema.make [ ("R", 2) ] in
  let inst =
    Instance.of_rows schema
      [ ("R", [ [ Value.named "a"; Value.null 1 ]; [ Value.named "a"; Value.named "b" ] ]) ]
  in
  let fd = Dependency.fd "R" [ 0 ] 1 in
  let query = q "Q(x, y) := R(x, y)" in
  let t = Tuple.of_list [ Value.named "a"; Value.named "b" ] in
  (* FD-only + null-free tuple routes through the chase… *)
  check bool_t "chase strategy" true
    (Conditional.strategy [ fd ] t = Conditional.Chase_fds);
  let strat, v = Conditional.mu_cond_auto schema [ fd ] inst query t in
  check bool_t "auto picked chase" true (strat = Conditional.Chase_fds);
  check rat_t "chase agrees with symbolic" v
    (Conditional.mu_cond_deps schema [ fd ] inst query t);
  (* …while a null in the tuple or a non-FD constraint forces the
     symbolic path. *)
  let t_null = Tuple.of_list [ Value.named "a"; Value.null 1 ] in
  check bool_t "null tuple symbolic" true
    (Conditional.strategy [ fd ] t_null = Conditional.Symbolic);
  check bool_t "ind symbolic" true
    (Conditional.strategy [ Dependency.ind "R" [ 0 ] "R" [ 1 ] ] t
    = Conditional.Symbolic);
  let strat', v' = Conditional.mu_cond_auto schema [ fd ] inst query t_null in
  check bool_t "auto picked symbolic" true (strat' = Conditional.Symbolic);
  check rat_t "symbolic value" v'
    (Conditional.mu_cond_deps schema [ fd ] inst query t_null)

let () =
  Alcotest.run "analysis"
    [ ( "diag",
        [ Alcotest.test_case "basics" `Quick test_diag_basics;
          Alcotest.test_case "registry" `Quick test_diag_registry;
          Alcotest.test_case "json" `Quick test_diag_json
        ] );
      ( "safety",
        [ Alcotest.test_case "range restriction" `Quick test_safety;
          Alcotest.test_case "per-code coverage" `Quick test_check_codes
        ] );
      ( "classify",
        [ Alcotest.test_case "fragment" `Quick test_classify_fragment;
          Alcotest.test_case "constraint class" `Quick test_constraint_class;
          Alcotest.test_case "dispatch hints" `Quick test_dispatch_hints
        ] );
      ( "report", [ Alcotest.test_case "aggregate" `Quick test_report ] );
      ( "dispatch",
        [ Alcotest.test_case "certain answers" `Quick test_certain_dispatch;
          Alcotest.test_case "conditional measure" `Quick test_conditional_dispatch
        ] )
    ]

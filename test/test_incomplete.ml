(* Tests for valuations, enumeration, naïve evaluation, valuation
   classes, supports and certain answers. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Schema = Relational.Schema
module Instance = Relational.Instance
module F = Logic.Formula
module Query = Logic.Query
module Parser = Logic.Parser
module Valuation = Incomplete.Valuation
module Enumerate = Incomplete.Enumerate
module Naive = Incomplete.Naive
module Classes = Incomplete.Classes
module Support = Incomplete.Support
module Certain = Incomplete.Certain
module B = Arith.Bigint
module R = Arith.Rat
module P = Arith.Poly

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let bigint_t = Alcotest.testable B.pp B.equal
let rat_t = Alcotest.testable R.pp R.equal
let relation_t = Alcotest.testable Relation.pp Relation.equal

(* The intro example of the paper. *)
let intro_schema =
  Parser.schema_exn "R1(customer, product); R2(customer, product)"

let intro_db () =
  Parser.instance_exn intro_schema
    "R1 = { ('c1', ~1), ('c2', ~1), ('c2', ~2) };
     R2 = { ('c1', ~2), ('c2', ~1), (~3, ~1) }"

let intro_query () = Parser.query_exn "Q(x, y) := R1(x, y) & !R2(x, y)"

(* ------------------------------------------------------------------ *)
(* Valuations                                                           *)
(* ------------------------------------------------------------------ *)

let test_valuation_basics () =
  let a = Relational.Names.intern "a" in
  let b = Relational.Names.intern "b" in
  let v = Valuation.of_list [ (1, a); (2, b); (3, a) ] in
  check bool_t "defined" true (Valuation.defined_on v [ 1; 2; 3 ]);
  check bool_t "missing" false (Valuation.defined_on v [ 4 ]);
  check (Alcotest.list int_t) "domain" [ 1; 2; 3 ] (Valuation.domain v);
  check int_t "range size" 2 (List.length (Valuation.range v));
  check bool_t "not injective" false (Valuation.is_injective v);
  check bool_t "injective" true
    (Valuation.is_injective (Valuation.of_list [ (1, a); (2, b) ]));
  check bool_t "bijective avoids" false
    (Valuation.is_bijective_for ~avoid:[ a ] (Valuation.of_list [ (1, a) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Valuation.of_list: null ~1 assigned twice") (fun () ->
      ignore (Valuation.of_list [ (1, a); (1, b) ]))

let test_valuation_apply () =
  let a = Relational.Names.intern "a" in
  let v = Valuation.of_list [ (1, a) ] in
  check bool_t "value" true
    (Value.equal (Value.const a) (Valuation.value v (Value.null 1)));
  check bool_t "const untouched" true
    (Value.equal (Value.named "z") (Valuation.value v (Value.named "z")));
  let d = intro_db () in
  let n1 = Relational.Names.intern "p1" in
  let v =
    Valuation.of_list [ (1, n1); (2, n1); (3, n1) ]
  in
  let vd = Valuation.instance v d in
  check bool_t "complete" true (Instance.is_complete vd);
  (* ~1 = ~2 = ~3 = p1 collapses R2 to {(c1,p1),(c2,p1),(p1,p1)} *)
  check int_t "R2 size after collapse" 3
    (Relation.cardinal (Instance.relation vd "R2"))

(* ------------------------------------------------------------------ *)
(* Enumeration                                                          *)
(* ------------------------------------------------------------------ *)

let test_enumerate_count () =
  List.iter
    (fun (m, k) ->
      let nulls = Arith.Combinat.range 1 m in
      let vs = Enumerate.all_valuations ~nulls ~k in
      check int_t
        (Printf.sprintf "m=%d k=%d" m k)
        (int_of_float (float_of_int k ** float_of_int m))
        (List.length vs);
      check bigint_t "count agrees" (Enumerate.count ~nulls ~k)
        (B.of_int (List.length vs)))
    [ (0, 5); (1, 4); (2, 3); (3, 3) ]

(* The bool-array implementation of fold_bijective against the
   original List.mem reference, including avoid lists with duplicates
   and codes outside [1, k] (which must simply be ignored). *)
let test_bijective_equals_reference () =
  let reference ~nulls ~avoid ~k f acc =
    let rec go acc used assigned = function
      | [] -> f acc (Valuation.of_list assigned)
      | n :: rest ->
          let acc = ref acc in
          for c = 1 to k do
            if (not (List.mem c avoid)) && not (List.mem c used) then
              acc := go !acc (c :: used) ((n, c) :: assigned) rest
          done;
          !acc
    in
    go acc [] [] nulls
  in
  let visited fold =
    List.rev (fold (fun acc v -> Valuation.bindings v :: acc) [])
  in
  List.iter
    (fun seed ->
      let st = Random.State.make [| 0xb17; seed |] in
      let m = Random.State.int st 4 in
      let k = Random.State.int st 6 in
      let nulls = List.init m (fun i -> i + 1) in
      let avoid =
        List.init (Random.State.int st 5) (fun _ ->
            Random.State.int st 9 - 1 (* may fall outside [1, k], repeat *))
      in
      check bool_t
        (Printf.sprintf "fold_bijective = reference (seed %d)" seed)
        true
        (visited (reference ~nulls ~avoid ~k)
        = visited (Enumerate.fold_bijective ~nulls ~avoid ~k)))
    (List.init 200 Fun.id)

let test_enumerate_bijective () =
  let nulls = [ 1; 2 ] in
  let avoid = [ 1; 2 ] in
  (* k=5: codes {3,4,5} available, injective pairs: 3*2 = 6 *)
  let count = ref 0 in
  let () =
    Enumerate.fold_bijective ~nulls ~avoid ~k:5 (fun () v ->
        check bool_t "is bijective" true (Valuation.is_bijective_for ~avoid v);
        incr count) ()
  in
  check int_t "bijective count" 6 !count;
  check bigint_t "count formula" (B.of_int 6)
    (Enumerate.count_bijective ~nulls ~avoid ~k:5);
  let fresh = Enumerate.fresh_bijective ~nulls ~avoid in
  check bool_t "fresh is bijective" true
    (Valuation.is_bijective_for ~avoid fresh)

(* ------------------------------------------------------------------ *)
(* Naïve evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let test_naive_intro_example () =
  let d = intro_db () in
  let q = intro_query () in
  let naive = Naive.answers d q in
  (* Naïve evaluation returns (c1,⊥1) and (c2,⊥2). *)
  let expected =
    Relation.of_list 2
      [ Tuple.of_list [ Value.named "c1"; Value.null 1 ];
        Tuple.of_list [ Value.named "c2"; Value.null 2 ]
      ]
  in
  check relation_t "naive answers" expected naive

let test_naive_via_bijective_agrees () =
  let d = intro_db () in
  let queries =
    [ intro_query ();
      Parser.query_exn "Q(x, y) := R1(x, y)";
      Parser.query_exn "Q(x) := exists y. R1(x, y) & R2(x, y)";
      Parser.query_exn "Q() := exists x. exists y. R1(x, y) & !R2(x, y)";
      Parser.query_exn "Q(y) := forall x. R2(x, y) -> R1(x, y)"
    ]
  in
  List.iter
    (fun q ->
      check relation_t (Query.to_string q) (Naive.answers d q)
        (Naive.answers_via_bijective d q))
    queries

let test_naive_via_bijective_valuation_choice () =
  (* Proposition 1: the choice of C-bijective valuation is irrelevant. *)
  let d = intro_db () in
  let q = intro_query () in
  let avoid =
    List.sort_uniq Int.compare (Query.constants q @ Instance.constants d)
  in
  let base = 1000 in
  let v1 = Valuation.of_list [ (1, base + 1); (2, base + 2); (3, base + 3) ] in
  let v2 = Valuation.of_list [ (1, base + 7); (2, base + 5); (3, base + 9) ] in
  check bool_t "v1 bijective" true (Valuation.is_bijective_for ~avoid v1);
  check relation_t "same result"
    (Naive.answers_via_bijective ~valuation:v1 d q)
    (Naive.answers_via_bijective ~valuation:v2 d q)

(* ------------------------------------------------------------------ *)
(* Classes                                                              *)
(* ------------------------------------------------------------------ *)

let test_classes_count () =
  (* m nulls, anchor set of size a: #classes = Σ_partitions Σ_injective maps. *)
  let classes = Classes.enumerate ~anchor_set:[ 1; 2 ] ~nulls:[ 7; 8 ] in
  (* partitions of {7,8}: {{7},{8}} and {{7,8}}.
     - 2 blocks: anchor maps: 1 + 2*2 + 2 = 7
     - 1 block: 1 + 2 = 3.  Total 10. *)
  check int_t "class count" 10 (List.length classes)

let test_classes_total_poly () =
  (* Σ_classes |class ∩ V^k| = k^m. *)
  List.iter
    (fun (anchor_set, nulls) ->
      let total = Classes.total_poly ~anchor_set ~nulls in
      let m = List.length nulls in
      List.iter
        (fun k ->
          check rat_t
            (Printf.sprintf "a=%d m=%d k=%d" (List.length anchor_set) m k)
            (R.of_bigint (Arith.Combinat.power k m))
            (P.eval_int total k))
        [ List.length anchor_set; 5; 8; 13 ])
    [ ([], [ 1 ]); ([ 1 ], [ 1; 2 ]); ([ 1; 2 ], [ 1; 2 ]); ([ 1; 2; 3 ], [ 1; 2; 5 ]) ]

let test_classes_partition_valuations () =
  (* Classifying all of V^k(D) and counting per class must agree with
     each class polynomial evaluated at k. *)
  let anchor_set = [ 1; 2 ] in
  let nulls = [ 4; 5 ] in
  let k = 6 in
  let classes = Classes.enumerate ~anchor_set ~nulls in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let c = Classes.classify ~anchor_set ~nulls v in
      let key =
        List.find_opt (fun c' -> Classes.same_class c c') classes
      in
      match key with
      | None -> Alcotest.fail "valuation not covered by any class"
      | Some c' ->
          let s = Format.asprintf "%a" Classes.pp c' in
          Hashtbl.replace counts s
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
    (Enumerate.all_valuations ~nulls ~k);
  List.iter
    (fun c ->
      let s = Format.asprintf "%a" Classes.pp c in
      let expected = P.eval_int (Classes.count_poly ~anchor_set c) k in
      let actual = R.of_int (Option.value ~default:0 (Hashtbl.find_opt counts s)) in
      check rat_t ("class size " ^ s) expected actual)
    classes

let test_classes_representative_roundtrip () =
  let anchor_set = [ 1; 3 ] in
  let nulls = [ 1; 2; 3 ] in
  List.iter
    (fun c ->
      let v = Classes.representative ~anchor_set c in
      let c' = Classes.classify ~anchor_set ~nulls v in
      check bool_t "roundtrip" true (Classes.same_class c c'))
    (Classes.enumerate ~anchor_set ~nulls)

(* ------------------------------------------------------------------ *)
(* Supports and µ^k                                                     *)
(* ------------------------------------------------------------------ *)

let test_mu_k_closed_forms () =
  (* D: R = {(⊥,⊥')}, Q = ∃x R(x,x).  µ^k = 1/k (⊥=⊥' required). *)
  let schema = Schema.make [ ("R", 2) ] in
  let d =
    Instance.of_rows schema [ ("R", [ [ Value.null 1; Value.null 2 ] ]) ]
  in
  let q = Parser.query_exn "exists x. R(x, x)" in
  List.iter
    (fun k ->
      check rat_t
        (Printf.sprintf "1/k at k=%d" k)
        (R.of_ints 1 k)
        (Support.mu_k_boolean d q ~k))
    [ 1; 2; 3; 5; 8 ];
  (* And its negation has µ^k = 1 - 1/k. *)
  let qn = Query.negate q in
  List.iter
    (fun k ->
      check rat_t
        (Printf.sprintf "1-1/k at k=%d" k)
        (R.sub R.one (R.of_ints 1 k))
        (Support.mu_k_boolean d qn ~k))
    [ 1; 2; 3; 5; 8 ]

let test_mu_k_intro_tuples () =
  (* For the intro example and tuple ā = (c1,⊥1): v ∈ Supp iff
     v(⊥1) ≠ v(⊥2) (else R2's (c1,⊥2) kills it) and v(⊥3) ≠ c1 (else
     R2's (⊥3,⊥1) kills it). For k past every database constant this
     gives µ^k = k(k−1)(k−1)/k³ = (k−1)²/k², which increases to 1. *)
  let d = intro_db () in
  let q = intro_query () in
  let a = Tuple.of_list [ Value.named "c1"; Value.null 1 ] in
  let k0 = Instance.max_constant d in
  let ks = List.map (fun i -> k0 + i) [ 1; 2; 3; 4 ] in
  List.iter
    (fun (k, v) ->
      check rat_t
        (Printf.sprintf "(k-1)^2/k^2 at k=%d" k)
        (R.of_ints ((k - 1) * (k - 1)) (k * k))
        v)
    (Support.mu_k_series d q a ~ks)

let test_support_membership () =
  let d = intro_db () in
  let q = intro_query () in
  let a = Tuple.of_list [ Value.named "c1"; Value.null 1 ] in
  let p1 = Relational.Names.intern "pp1" in
  let p2 = Relational.Names.intern "pp2" in
  let p3 = Relational.Names.intern "pp3" in
  (* distinct values: (c1,⊥1) survives *)
  let v_good = Valuation.of_list [ (1, p1); (2, p2); (3, p3) ] in
  check bool_t "in support" true (Support.in_support d q a v_good);
  (* ⊥1 = ⊥2 kills it *)
  let v_bad = Valuation.of_list [ (1, p1); (2, p1); (3, p3) ] in
  check bool_t "not in support" false (Support.in_support d q a v_bad)

(* ------------------------------------------------------------------ *)
(* Certain and possible answers                                         *)
(* ------------------------------------------------------------------ *)

let test_certain_intro () =
  let d = intro_db () in
  let q = intro_query () in
  check relation_t "no certain answers" (Relation.empty 2)
    (Certain.certain_answers d q);
  (* but both naive answers are possible answers *)
  check bool_t "possible (c1,~1)" true
    (Certain.is_possible d q (Tuple.of_list [ Value.named "c1"; Value.null 1 ]));
  check bool_t "possible (c2,~2)" true
    (Certain.is_possible d q (Tuple.of_list [ Value.named "c2"; Value.null 2 ]));
  (* (c2,⊥1) is in R2 outright, so it can never satisfy R1 ∧ ¬R2. *)
  check bool_t "not possible (c2,~1)" false
    (Certain.is_possible d q (Tuple.of_list [ Value.named "c2"; Value.null 1 ]))

let test_certain_identity_query () =
  (* If Q returns R1 then □(Q,D) = R1 (the argument for certain answers
     with nulls, §1). *)
  let d = intro_db () in
  let q = Parser.query_exn "Q(x, y) := R1(x, y)" in
  check relation_t "certain = R1" (Instance.relation d "R1")
    (Certain.certain_answers d q);
  (* The intersection-based variant returns only null-free tuples: none here. *)
  check relation_t "null-free certain empty" (Relation.empty 2)
    (Certain.certain_answers_null_free d q)

let test_certain_sentences () =
  let d = intro_db () in
  check bool_t "R1 nonempty is certain" true
    (Certain.is_certain_sentence d
       (Parser.formula_exn "exists x. exists y. R1(x, y)"));
  check bool_t "Q certain false" false
    (Certain.is_certain_sentence d
       (Parser.formula_exn "exists x. exists y. R1(x, y) & !R2(x, y)"));
  check bool_t "but possible" true
    (Certain.is_possible_sentence d
       (Parser.formula_exn "exists x. exists y. R1(x, y) & !R2(x, y)"));
  check bool_t "contradiction impossible" false
    (Certain.is_possible_sentence d
       (Parser.formula_exn "exists x. R1(x, x) & !R1(x, x)"))

let test_certain_vs_bruteforce () =
  (* Class-based certainty must agree with quantifying over all
     valuations with a sufficiently large range (here: brute force over
     k = |A| + m constants suffices by the small-range property). *)
  let d = intro_db () in
  let queries =
    [ Parser.query_exn "Q() := exists x. exists y. R1(x, y) & !R2(x, y)";
      Parser.query_exn "Q() := exists x. exists y. R1(x, y) & R2(x, y)";
      Parser.query_exn "Q() := forall x. forall y. R1(x, y) -> R2(x, y)";
      Parser.query_exn "Q() := exists x. R2(x, x)"
    ]
  in
  List.iter
    (fun q ->
      let sentence = Query.instantiate q Tuple.empty in
      let anchor = Support.anchor_set d q in
      let k = List.fold_left max 0 anchor + Instance.null_count d in
      let brute =
        Enumerate.fold_valuations ~nulls:(Instance.nulls d) ~k
          (fun acc v -> acc && Support.sentence_in_support d sentence v)
          true
      in
      check bool_t (Query.to_string q) brute
        (Certain.is_certain_sentence d sentence))
    queries

exception Deadline

let test_certain_guard_inside_scan () =
  (* A Boolean query has one candidate, so the pool calls the guard
     once, before its only chunk; the class scan must poll it too.
     4 nulls and 3 constants give 372 classes, and the sentence holds on
     every one, so the scan checks all of them unless cancelled. *)
  let d =
    Instance.of_rows (Schema.make [ ("R", 1) ])
      [ ( "R",
          List.map
            (fun v -> [ v ])
            [ Value.null 1; Value.null 2; Value.null 3; Value.null 4;
              Value.named "ga"; Value.named "gb"; Value.named "gc" ] ) ]
  in
  let q = Parser.query_exn "Q() := exists x. R(x)" in
  check int_t "classes" 372
    (List.length
       (Classes.enumerate ~anchor_set:(Support.anchor_set d q)
          ~nulls:(Instance.nulls d)));
  check relation_t "certain without a guard"
    (Relation.of_list 0 [ Tuple.empty ])
    (Certain.certain_answers_enumerated d q);
  let calls = ref 0 in
  let guard () =
    incr calls;
    if !calls >= 2 then raise Deadline
  in
  Alcotest.check_raises "cancelled mid-scan" Deadline (fun () ->
      ignore (Certain.certain_answers_enumerated ~jobs:1 ~guard d q));
  (* The class-major pass polls too, every 16 of the 372 classes. *)
  calls := 0;
  Alcotest.check_raises "cancelled mid-pass" Deadline (fun () ->
      ignore (Certain.possible_answers ~jobs:1 ~guard d q))

let prop_classes_count =
  QCheck.Test.make ~name:"Classes.count = |Classes.enumerate|" ~count:60
    (QCheck.pair (QCheck.int_range 0 5) (QCheck.int_range 0 4))
    (fun (a, m) ->
      let anchor_set = List.init a (fun i -> i + 1)
      and nulls = List.init m (fun i -> i + 1) in
      B.equal
        (Classes.count ~anchor_set ~nulls)
        (B.of_int (List.length (Classes.enumerate ~anchor_set ~nulls))))

(* Random first-order queries of arity 0–2 over R/2 and S/1: every
   connective and both quantifiers, constants inside and outside
   Const(D) (the instance draws from oq0–oq3, the query from oq0–oq5)
   and nulls the instance may lack. *)
let random_schema = Schema.make [ ("R", 2); ("S", 1) ]

let random_value st ~consts =
  if Random.State.int st 3 = 0 then Value.null (Random.State.int st 3)
  else Value.named ("oq" ^ string_of_int (Random.State.int st consts))

let random_instance st =
  let rows bound arity =
    List.init (Random.State.int st bound) (fun _ ->
        List.init arity (fun _ -> random_value st ~consts:4))
  in
  Instance.of_rows random_schema [ ("R", rows 5 2); ("S", rows 4 1) ]

let rec random_formula st ~vars ~depth =
  let term () =
    if vars = [] || Random.State.int st 3 = 0 then
      F.Val (random_value st ~consts:6)
    else F.Var (List.nth vars (Random.State.int st (List.length vars)))
  in
  let sub ?(vars = vars) () = random_formula st ~vars ~depth:(depth - 1) in
  if depth = 0 then
    match Random.State.int st 4 with
    | 0 -> F.Atom ("R", [ term (); term () ])
    | 1 -> F.Atom ("S", [ term () ])
    | 2 -> F.Eq (term (), term ())
    | _ -> if Random.State.bool st then F.True else F.False
  else
    match Random.State.int st 6 with
    | 0 -> F.Not (sub ())
    | 1 -> F.And (sub (), sub ())
    | 2 -> F.Or (sub (), sub ())
    | 3 -> F.Implies (sub (), sub ())
    | _ ->
        let v = List.nth [ "x"; "y"; "z" ] (Random.State.int st 3) in
        let body = sub ~vars:(v :: vars) () in
        if Random.State.bool st then F.Exists (v, body) else F.Forall (v, body)

let random_case ~depth =
  QCheck.make
    ~print:(fun (d, q) -> Instance.to_string d ^ "\n" ^ Query.to_string q)
    (fun st ->
      let d = random_instance st in
      let free = List.filteri (fun i _ -> i < Random.State.int st 3) [ "x"; "y" ] in
      (d, Query.make free (random_formula st ~vars:free ~depth)))

let prop_open_enumerator_is_eval =
  (* The compiled open enumerator, and naive evaluation on the kernel
     (nulls read as themselves), are Eval's answers. *)
  QCheck.Test.make ~name:"open enumerator ≡ Eval.answers" ~count:300
    (random_case ~depth:3) (fun (d, q) ->
      let expected = Logic.Eval.answers d q in
      Relation.equal (Logic.Compiled.answers d q) expected
      && Relation.equal (Naive.answers d q) expected)

let prop_class_major_is_candidate_major =
  (* Class-major certain, possible and naive answers against the
     candidate-major oracle, at jobs 1 and 4. *)
  QCheck.Test.make ~name:"class-major ≡ candidate-major" ~count:150
    (random_case ~depth:2) (fun (d, q) ->
      let certain = Certain.certain_answers_enumerated ~jobs:1 d q in
      let possible =
        Relation.of_list (Query.arity q)
          (List.filter (Certain.is_possible d q)
             (List.map Tuple.of_list
                (Arith.Combinat.tuples (Instance.adom d) (Query.arity q))))
      in
      let naive = Logic.Eval.answers d q in
      List.for_all
        (fun jobs ->
          let a = Certain.answers ~jobs d q in
          Relation.equal a.Certain.certain certain
          && Relation.equal a.Certain.possible possible
          && Relation.equal a.Certain.naive naive
          && Relation.equal (Certain.certain_answers ~jobs d q) certain
          && Relation.equal (Certain.possible_answers ~jobs d q) possible
          && Relation.equal (Certain.certain_answers_enumerated ~jobs d q) certain)
        [ 1; 4 ])

let prop_naive_superset_certain =
  (* Corollary 1: □(Q,D) ⊆ Q^naive(D) for generic queries. Random small
     instances and a fixed family of queries. *)
  let schema = Schema.make [ ("R", 2); ("S", 2) ] in
  let value_gen =
    QCheck.map
      (fun i ->
        if i >= 0 then Value.null (i mod 3)
        else Value.named ("v" ^ string_of_int (-i mod 3)))
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
    [ Parser.query_exn "Q(x, y) := R(x, y) & !S(x, y)";
      Parser.query_exn "Q(x) := exists y. R(x, y) | S(y, x)";
      Parser.query_exn "Q(x) := forall y. S(x, y) -> R(x, y)"
    ]
  in
  QCheck.Test.make ~name:"certain ⊆ naive (Cor. 1)" ~count:60 inst_gen
    (fun d ->
      List.for_all
        (fun q ->
          Relation.subset (Certain.certain_answers d q) (Naive.answers d q))
        queries)

let prop_ucq_certain_is_naive =
  (* Classical: for UCQs naive evaluation computes certain answers. *)
  let schema = Schema.make [ ("R", 2); ("S", 2) ] in
  let value_gen =
    QCheck.map
      (fun i ->
        if i >= 0 then Value.null (i mod 3)
        else Value.named ("w" ^ string_of_int (-i mod 3)))
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
    [ Parser.query_exn "Q(x) := exists y. R(x, y)";
      Parser.query_exn "Q(x, y) := R(x, y) | S(x, y)";
      Parser.query_exn "Q(x) := exists y. R(x, y) & S(y, x)"
    ]
  in
  (* certain_answers_enumerated, not certain_answers: the dispatching
     entry point would route UCQs through naive evaluation and make the
     equality a tautology. *)
  QCheck.Test.make ~name:"UCQ: certain = naive" ~count:40 inst_gen (fun d ->
      List.for_all
        (fun q ->
          Relation.equal
            (Certain.certain_answers_enumerated d q)
            (Naive.answers d q))
        queries)

(* ------------------------------------------------------------------ *)
(* Edge cases                                                           *)
(* ------------------------------------------------------------------ *)

let test_complete_database_degenerate () =
  (* No nulls: V^k(D) is the single empty valuation, and every notion
     collapses onto ordinary evaluation. *)
  let schema = Schema.make [ ("R", 2) ] in
  let d = Instance.of_rows schema [ ("R", [ [ Value.named "p"; Value.named "q" ] ]) ] in
  let q = Parser.query_exn "Q(x, y) := R(x, y)" in
  let t = Tuple.consts [ "p"; "q" ] in
  check bool_t "certain" true (Certain.is_certain d q t);
  check rat_t "mu_k is 1" R.one (Support.mu_k d q t ~k:3);
  check rat_t "mu_k of non-answer" R.zero
    (Support.mu_k d q (Tuple.consts [ "q"; "p" ]) ~k:3);
  check int_t "single class" 1
    (List.length (Classes.enumerate ~anchor_set:[ 1; 2 ] ~nulls:[]))

(* A complete database has one valuation class, the empty valuation:
   the certain, possible and naive answers coincide and no class is
   checked. *)
let test_null_free_certain_checks_no_class () =
  let schema = Parser.schema_exn "R(a, b); S(a, b)" in
  let row i = Printf.sprintf "('c%d', 'v%d')" i i in
  let d =
    Parser.instance_exn schema
      (Printf.sprintf "R = { %s }; S = { %s }"
         (String.concat ", " (List.init 31 row))
         (row 1))
  in
  let q = Parser.query_exn "Q(x, y) := S(x, y) & !R(x, y)" in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
    (fun () ->
      let a = Certain.answers ~jobs:1 d q in
      check int_t "valuations evaluated" 0
        (Obs.Metrics.value Obs.Metrics.valuations_evaluated);
      check relation_t "certain = naive" a.Certain.naive a.Certain.certain;
      check relation_t "possible = naive" a.Certain.naive a.Certain.possible)

let test_valuation_printing () =
  let a = Relational.Names.intern "pv" in
  let v = Valuation.of_list [ (3, a) ] in
  check Alcotest.string "to_string" "{~3 -> pv}" (Valuation.to_string v);
  check Alcotest.string "empty" "{}" (Valuation.to_string Valuation.empty)

let test_preimage_relation () =
  let a = Relational.Names.intern "qa" in
  let v = Valuation.of_list [ (1, a) ] in
  let candidates =
    Relation.of_list 1
      [ Tuple.of_list [ Value.null 1 ]; Tuple.of_list [ Value.named "other" ] ]
  in
  let answers = Relation.of_list 1 [ Tuple.of_list [ Value.const a ] ] in
  let pre = Valuation.preimage_relation v candidates answers in
  check int_t "one preimage" 1 (Relation.cardinal pre);
  check bool_t "the null tuple" true (Relation.mem (Tuple.of_list [ Value.null 1 ]) pre)

let prop_bijective_count_matches_enumeration =
  QCheck.Test.make ~name:"count_bijective = enumerated count" ~count:100
    (QCheck.triple (QCheck.int_range 0 3) (QCheck.int_range 0 3)
       (QCheck.int_range 0 6)) (fun (m, a, k) ->
      let nulls = Arith.Combinat.range 1 m in
      let avoid = Arith.Combinat.range 1 a in
      let counted =
        Enumerate.fold_bijective ~nulls ~avoid ~k (fun n _ -> n + 1) 0
      in
      B.equal (B.of_int counted) (Enumerate.count_bijective ~nulls ~avoid ~k))

(* Every candidate over adom^m, decided by brute force over the
   valuations into {c1..ck}: certain iff every one puts v(ā) in
   Q(v(D)), possible iff one does. With k = max anchor + |nulls| every
   valuation class has a member in range, so this is the class
   semantics. The query's own nulls are valued too. *)
let brute_force_answers d q =
  let nulls =
    List.sort_uniq Int.compare (Instance.nulls d @ F.nulls q.Query.body)
  in
  let k = List.fold_left max 0 (Support.anchor_set d q) + List.length nulls in
  let m = Query.arity q in
  let cands =
    Relation.of_list m
      (List.map Tuple.of_list (Arith.Combinat.tuples (Instance.adom d) m))
  in
  Enumerate.fold_valuations ~nulls ~k
    (fun (certain, possible) v ->
      let qv =
        Query.make q.Query.free (F.map_values (Valuation.value v) q.Query.body)
      in
      let answers = Naive.answers (Valuation.instance v d) qv in
      let sat =
        Relation.filter (fun t -> Relation.mem (Valuation.tuple v t) answers) cands
      in
      (Relation.inter certain sat, Relation.union possible sat))
    (cands, Relation.empty m)

let prop_possible_iff_some_valuation =
  (* The class pass agrees with a bounded brute-force search, on open
     queries with negation, with constants inside and outside Const(D)
     and with a null that D may lack; its naive component is
     Naive.answers, and the certainty-only and possibility-only
     projections agree with it. Constant-free positive queries take the
     Pos∀G dispatch in certain_answers. *)
  let schema = Schema.make [ ("R", 2) ] in
  let value_gen =
    QCheck.map
      (fun i ->
        if i >= 0 then Value.null (i mod 2)
        else Value.named ("ip" ^ string_of_int (-i mod 2)))
      (QCheck.int_range (-4) 3)
  in
  let inst_gen =
    QCheck.map
      (fun rows ->
        Instance.of_rows schema [ ("R", List.map (fun (a, b) -> [ a; b ]) rows) ])
      (QCheck.list_of_size (QCheck.Gen.int_range 0 3)
         (QCheck.pair value_gen value_gen))
  in
  let queries =
    List.map Parser.query_exn
      [ "Q() := exists x. R(x, x)";
        "Q() := forall x. forall y. R(x, y) -> R(y, x)";
        "Q(x) := exists y. R(x, y)";
        "Q(x) := exists y. R(x, y) & !R(y, x)";
        "Q(x, y) := R(x, y) & !R(y, 'ip0') & x != y";
        "Q(x) := R(x, 'ipz') | R(x, ~1) & !R(~1, x)"
      ]
  in
  QCheck.Test.make ~name:"possible = brute force over small range" ~count:60
    inst_gen (fun d ->
      List.for_all
        (fun q ->
          let a = Certain.answers d q in
          let certain, possible = brute_force_answers d q in
          Relation.equal a.Certain.certain certain
          && Relation.equal a.Certain.possible possible
          && Relation.equal a.Certain.naive (Naive.answers d q)
          && Relation.equal (Certain.certain_answers_enumerated d q) certain
          && Relation.equal (Certain.possible_answers d q) possible
          && (Query.arity q > 0
             || Certain.is_possible_sentence d q.Query.body
                = not (Relation.is_empty possible)))
        queries)

let prop_posforallg_certain_is_naive =
  (* Corollary 3 (via Gheerbrant-Libkin-Sirangelo): for Pos∀G queries,
     certain answers = almost-certainly-true answers = naive answers. *)
  let schema = Schema.make [ ("R", 2); ("S", 2) ] in
  let value_gen =
    QCheck.map
      (fun i ->
        if i >= 0 then Value.null (i mod 3)
        else Value.named ("pg" ^ string_of_int (-i mod 3)))
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
    [ Parser.query_exn "Q(x) := exists y. R(x, y)";
      Parser.query_exn "Q(x) := forall y. forall z. S(y, z) -> R(x, y)";
      Parser.query_exn
        "Q() := forall y. forall z. R(y, z) -> (S(y, z) | (exists w. S(z, w)))"
    ]
  in
  List.iter
    (fun q ->
      assert (Logic.Fragment.is_pos_forall_guard q.Query.body))
    queries;
  QCheck.Test.make ~name:"Pos∀G: certain = naive (Cor 3)" ~count:40 inst_gen
    (fun d ->
      List.for_all
        (fun q ->
          Relation.equal
            (Certain.certain_answers_enumerated d q)
            (Naive.answers d q))
        queries)

let prop_null_free_answers_are_naive =
  (* Without nulls, [answers] returns the naive answers three times;
     the class pass, run unconditionally, must agree. The queries cover
     negation, both quantifiers, a constant of the database, one that
     is not, and a Boolean query. *)
  let schema = Schema.make [ ("R", 2); ("S", 2) ] in
  let value_gen =
    QCheck.map
      (fun i -> Value.named ("nf" ^ string_of_int i))
      (QCheck.int_range 0 3)
  in
  let rows n =
    QCheck.list_of_size (QCheck.Gen.int_range 0 n)
      (QCheck.pair value_gen value_gen)
  in
  let inst_gen =
    QCheck.map
      (fun (r_rows, s_rows) ->
        Instance.of_rows schema
          [ ("R", List.map (fun (a, b) -> [ a; b ]) r_rows);
            ("S", List.map (fun (a, b) -> [ a; b ]) s_rows)
          ])
      (QCheck.pair (rows 4) (rows 3))
  in
  let queries =
    [ Parser.query_exn "Q(x, y) := S(x, y) & !R(x, y)";
      Parser.query_exn "Q(x) := exists y. R(x, y) | S(y, x)";
      Parser.query_exn "Q(x) := forall y. S(x, y) -> R(x, y)";
      Parser.query_exn "Q(x) := R(x, 'nf1') & !S(x, x)";
      Parser.query_exn "Q(x) := exists y. R(x, y) & !R(y, 'nfz')";
      Parser.query_exn "Q() := exists x. exists y. R(x, y) & !S(y, x)"
    ]
  in
  QCheck.Test.make ~name:"null-free: certain = possible = naive = enumerated"
    ~count:60 inst_gen (fun d ->
      List.for_all
        (fun q ->
          let a = Certain.answers ~jobs:1 d q in
          Relation.equal a.Certain.certain a.Certain.naive
          && Relation.equal a.Certain.possible a.Certain.naive
          && Relation.equal a.Certain.naive
               (Certain.certain_answers_enumerated ~jobs:1 d q))
        queries)

let () =
  Alcotest.run "incomplete"
    [ ( "valuation",
        [ Alcotest.test_case "basics" `Quick test_valuation_basics;
          Alcotest.test_case "application" `Quick test_valuation_apply
        ] );
      ( "enumerate",
        [ Alcotest.test_case "counts" `Quick test_enumerate_count;
          Alcotest.test_case "bijective" `Quick test_enumerate_bijective;
          Alcotest.test_case "bijective ≡ List.mem reference" `Quick
            test_bijective_equals_reference
        ] );
      ( "naive",
        [ Alcotest.test_case "intro example" `Quick test_naive_intro_example;
          Alcotest.test_case "direct = bijective (Def. 3)" `Quick
            test_naive_via_bijective_agrees;
          Alcotest.test_case "valuation choice irrelevant (Prop. 1)" `Quick
            test_naive_via_bijective_valuation_choice
        ] );
      ( "classes",
        [ Alcotest.test_case "enumeration count" `Quick test_classes_count;
          Alcotest.test_case "total polynomial = k^m" `Quick
            test_classes_total_poly;
          Alcotest.test_case "class sizes at k" `Quick
            test_classes_partition_valuations;
          Alcotest.test_case "representative roundtrip" `Quick
            test_classes_representative_roundtrip
        ] );
      ( "support",
        [ Alcotest.test_case "closed forms" `Quick test_mu_k_closed_forms;
          Alcotest.test_case "intro series" `Quick test_mu_k_intro_tuples;
          Alcotest.test_case "membership" `Quick test_support_membership
        ] );
      ( "certain",
        [ Alcotest.test_case "intro example" `Quick test_certain_intro;
          Alcotest.test_case "identity query" `Quick test_certain_identity_query;
          Alcotest.test_case "sentences" `Quick test_certain_sentences;
          Alcotest.test_case "class-based = brute force" `Quick
            test_certain_vs_bruteforce;
          Alcotest.test_case "guard polled inside a class scan" `Quick
            test_certain_guard_inside_scan
        ] );
      ( "edge-cases",
        [ Alcotest.test_case "complete database" `Quick
            test_complete_database_degenerate;
          Alcotest.test_case "null-free certain checks no class" `Quick
            test_null_free_certain_checks_no_class;
          Alcotest.test_case "valuation printing" `Quick test_valuation_printing;
          Alcotest.test_case "preimage relation" `Quick test_preimage_relation
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_naive_superset_certain; prop_ucq_certain_is_naive;
            prop_posforallg_certain_is_naive;
            prop_bijective_count_matches_enumeration;
            prop_possible_iff_some_valuation;
            prop_null_free_answers_are_naive; prop_classes_count;
            prop_open_enumerator_is_eval;
            prop_class_major_is_candidate_major ] )
    ]

(* Tests for the compiled evaluation kernel: Relational.Index,
   Logic.Compiled, Incomplete.Split and Incomplete.Kernel, plus the
   queue machinery of the persistent Exec.Pool.

   The load-bearing checks are the randomized equivalences — the
   compiled pipeline must agree with the structural interpreter on
   every instance, formula and valuation:

     Compiled.holds  ≡ Eval.holds
     Split.complete  ≡ Valuation.instance
     Kernel.holds    ≡ Support.sentence_in_support_naive

   The generators are driven by explicit [Random.State] seeds, so every
   failure is reproducible from the printed seed. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Index = Relational.Index
module Schema = Relational.Schema
module Instance = Relational.Instance
module F = Logic.Formula
module Eval = Logic.Eval
module Compiled = Logic.Compiled
module Parser = Logic.Parser
module Valuation = Incomplete.Valuation
module Split = Incomplete.Split
module Kernel = Incomplete.Kernel
module Support = Incomplete.Support
module R = Arith.Rat

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Seeded generators                                                    *)
(* ------------------------------------------------------------------ *)

let schema = Schema.make [ ("R", 2); ("S", 1) ]
let var_pool = [ "x"; "y"; "z" ]

let gen_value st ~with_nulls =
  if with_nulls && Random.State.int st 3 = 0 then
    Value.null (Random.State.int st 3)
  else Value.const (1 + Random.State.int st 4)

let gen_instance st ~with_nulls =
  let rows bound arity =
    List.init (Random.State.int st bound) (fun _ ->
        List.init arity (fun _ -> gen_value st ~with_nulls))
  in
  Instance.of_rows schema [ ("R", rows 5 2); ("S", rows 4 1) ]

let gen_term st ~vars ~with_nulls =
  let value () = F.Val (gen_value st ~with_nulls) in
  if vars = [] || Random.State.int st 3 = 0 then value ()
  else F.Var (List.nth vars (Random.State.int st (List.length vars)))

(* All connectives and both quantifiers, with possible shadowing (the
   bound-variable pool has three names, so nesting reuses them). *)
let rec gen_formula st ~vars ~depth ~with_nulls =
  let term () = gen_term st ~vars ~with_nulls in
  let sub ?(vars = vars) () =
    gen_formula st ~vars ~depth:(depth - 1) ~with_nulls
  in
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
        let v = List.nth var_pool (Random.State.int st 3) in
        let body = sub ~vars:(v :: vars) () in
        if Random.State.int st 6 = 4 then F.Exists (v, body)
        else F.Forall (v, body)

let gen_valuation st nulls =
  Valuation.of_list (List.map (fun n -> (n, 1 + Random.State.int st 5)) nulls)

let seeds = List.init 300 Fun.id
let state seed = Random.State.make [| 0x5eed; seed |]

(* ------------------------------------------------------------------ *)
(* Relational.Index                                                     *)
(* ------------------------------------------------------------------ *)

let rel_of_pairs pairs =
  Relation.of_rows 2
    (List.map (fun (a, b) -> [ Value.const a; Value.const b ]) pairs)

let test_index_mem () =
  let rel = rel_of_pairs [ (1, 2); (1, 3); (2, 3) ] in
  let idx = Index.of_relation rel in
  check int_t "arity" 2 (Index.arity idx);
  check int_t "cardinal" 3 (Index.cardinal idx);
  Relation.iter
    (fun t -> check bool_t "member" true (Index.mem idx t))
    rel;
  check bool_t "non-member" false
    (Index.mem idx (Tuple.of_list [ Value.const 2; Value.const 2 ]));
  check bool_t "wrong arity" false
    (Index.mem idx (Tuple.of_list [ Value.const 1 ]));
  check bool_t "mem_values" true
    (Index.mem_values idx [| Value.const 1; Value.const 3 |])

let test_index_select () =
  let rel = rel_of_pairs [ (1, 2); (1, 3); (2, 3); (3, 1) ] in
  let idx = Index.of_relation rel in
  let tuples bindings =
    List.map Tuple.to_list (Index.select idx bindings)
  in
  check int_t "select col0=1" 2
    (List.length (tuples [ (0, Value.const 1) ]));
  check int_t "select col1=3" 2
    (List.length (tuples [ (1, Value.const 3) ]));
  check int_t "select both" 1
    (List.length (tuples [ (0, Value.const 1); (1, Value.const 3) ]));
  check int_t "select absent" 0
    (List.length (tuples [ (0, Value.const 9) ]));
  check int_t "select all" 4 (List.length (tuples []));
  (* every posting carries the probed value in the probed column *)
  let post = Index.postings idx ~column:0 (Value.const 1) in
  check int_t "postings count" 2 (List.length post);
  List.iter
    (fun t ->
      check bool_t "posting matches" true
        (Value.equal (Tuple.get t 0) (Value.const 1)))
    post;
  check int_t "column_cardinal" 2
    (Index.column_cardinal idx ~column:0 (Value.const 1))

let test_index_randomized () =
  List.iter
    (fun seed ->
      let st = state seed in
      let rel =
        Relation.of_rows 2
          (List.init (Random.State.int st 8) (fun _ ->
               [ gen_value st ~with_nulls:true; gen_value st ~with_nulls:true ]))
      in
      let idx = Index.of_relation rel in
      (* mem agrees with Relation.mem on members and random probes *)
      Relation.iter
        (fun t -> check bool_t "index member" true (Index.mem idx t))
        rel;
      for _ = 1 to 5 do
        let t =
          Tuple.of_list
            [ gen_value st ~with_nulls:true; gen_value st ~with_nulls:true ]
        in
        check bool_t "index probe = Relation.mem" (Relation.mem t rel)
          (Index.mem idx t)
      done)
    (List.filteri (fun i _ -> i < 100) seeds)

(* ------------------------------------------------------------------ *)
(* Logic.Compiled ≡ Eval                                                *)
(* ------------------------------------------------------------------ *)

let test_compiled_equals_eval () =
  List.iter
    (fun seed ->
      let st = state seed in
      let inst = gen_instance st ~with_nulls:true in
      let f =
        gen_formula st ~vars:[ "x"; "y" ] ~depth:3 ~with_nulls:false
      in
      let dom = Eval.domain inst f in
      let pick () =
        match dom with
        | [] -> Value.const 1
        | _ -> List.nth dom (Random.State.int st (List.length dom))
      in
      let t = Compiled.compile inst f in
      (* one compiled formula, several environments: the scratch reset
         between evaluations is part of what is under test *)
      for _ = 1 to 3 do
        let env = [ ("x", pick ()); ("y", pick ()) ] in
        check bool_t
          (Printf.sprintf "compiled = eval (seed %d)" seed)
          (Eval.holds inst env f)
          (Compiled.holds t env)
      done)
    seeds

let test_compiled_sentences () =
  List.iter
    (fun seed ->
      let st = state seed in
      let inst = gen_instance st ~with_nulls:true in
      let f = gen_formula st ~vars:[] ~depth:3 ~with_nulls:false in
      check bool_t
        (Printf.sprintf "compiled sentence = eval (seed %d)" seed)
        (Eval.sentence_holds inst f)
        (Compiled.sentence_holds (Compiled.compile inst f)))
    seeds

let test_compiled_open_formula_rejected () =
  let inst = Instance.of_rows schema [] in
  let f = F.Atom ("S", [ F.Var "x" ]) in
  Alcotest.check_raises "unbound variable"
    (Invalid_argument "Compiled: unbound variable x") (fun () ->
      ignore (Compiled.holds (Compiled.compile inst f) []))

(* ------------------------------------------------------------------ *)
(* Split ≡ Valuation.instance                                           *)
(* ------------------------------------------------------------------ *)

let test_split_equals_valuation_instance () =
  List.iter
    (fun seed ->
      let st = state seed in
      let inst = gen_instance st ~with_nulls:true in
      let split = Split.of_instance inst in
      check bool_t "nulls hoisted" true
        (Split.nulls split = Instance.nulls inst);
      check bool_t "constants hoisted" true
        (Split.constants split = Instance.constants inst);
      for _ = 1 to 3 do
        let v = gen_valuation st (Instance.nulls inst) in
        check bool_t
          (Printf.sprintf "complete = Valuation.instance (seed %d)" seed)
          true
          (Instance.equal (Valuation.instance v inst) (Split.complete split v))
      done)
    seeds

let test_split_ground_shared () =
  let inst =
    Instance.of_rows schema
      [ ("R",
         [ [ Value.const 1; Value.const 2 ]; [ Value.const 1; Value.null 0 ] ]);
        ("S", [ [ Value.const 3 ] ])
      ]
  in
  let split = Split.of_instance inst in
  check int_t "one null tuple" 1 (Split.null_tuple_count split);
  check int_t "ground keeps the rest" 2
    (Instance.total_tuples (Split.ground split));
  check bool_t "ground is complete" true (Instance.is_complete (Split.ground split))

(* ------------------------------------------------------------------ *)
(* Kernel ≡ naive support check                                         *)
(* ------------------------------------------------------------------ *)

let test_kernel_equals_naive () =
  List.iter
    (fun seed ->
      let st = state seed in
      let inst = gen_instance st ~with_nulls:true in
      (* sentences may mention nulls (instantiated Q(ā) does) *)
      let s = gen_formula st ~vars:[] ~depth:3 ~with_nulls:true in
      let nulls =
        List.sort_uniq Int.compare (Instance.nulls inst @ F.nulls s)
      in
      let kern = Kernel.compile (Kernel.db_of_instance inst) s in
      (* one kernel, several valuations: per-valuation scratch refresh
         is the hot path under test *)
      for _ = 1 to 4 do
        let v = gen_valuation st nulls in
        check bool_t
          (Printf.sprintf "kernel = naive (seed %d)" seed)
          (Support.sentence_in_support_naive inst s v)
          (Kernel.holds kern v)
      done)
    seeds

let test_checker_cache_consistent () =
  List.iter
    (fun seed ->
      let st = state seed in
      let inst = gen_instance st ~with_nulls:true in
      let s = gen_formula st ~vars:[] ~depth:2 ~with_nulls:true in
      let nulls =
        List.sort_uniq Int.compare (Instance.nulls inst @ F.nulls s)
      in
      let cache = Support.create_cache () in
      let chk = Support.checker (Support.kernel_db ~cache inst) s in
      for _ = 1 to 3 do
        let v = gen_valuation st nulls in
        let expect = Support.sentence_in_support_naive inst s v in
        check bool_t "checker cold" expect (Support.check chk v);
        check bool_t "checker warm" expect (Support.check chk v);
        check bool_t "one-shot entry point" expect
          (Support.sentence_in_support inst s v)
      done)
    (List.filteri (fun i _ -> i < 100) seeds)

(* ------------------------------------------------------------------ *)
(* Odometer ≡ valuation_of_rank                                         *)
(* ------------------------------------------------------------------ *)

module Enumerate = Incomplete.Enumerate

(* Random small spaces: up to 5 nulls with k ∈ 1..5 capped so k^m stays
   enumerable, then a random [lo, hi) sub-range. The odometer must
   reproduce valuation_of_rank at every rank — including across carry
   cascades — both through [valuation] and through [fold_digits_range]. *)
let test_odometer_equals_rank () =
  List.iter
    (fun seed ->
      let st = state seed in
      let m = Random.State.int st 5 in
      let k = 1 + Random.State.int st 5 in
      let nulls =
        List.sort_uniq Int.compare
          (List.init m (fun _ -> Random.State.int st 10))
      in
      let n =
        match Enumerate.space_size ~nulls ~k with
        | Some n -> n
        | None -> Alcotest.fail "space unexpectedly overflows"
      in
      let lo = Random.State.int st n in
      let hi = lo + Random.State.int st (min (n - lo) 700 + 1) in
      (* stepping odometer vs per-rank decode *)
      let od = Enumerate.odometer ~nulls ~k ~rank:lo in
      for r = lo to hi - 1 do
        let expect = Enumerate.valuation_of_rank ~nulls ~k r in
        check bool_t
          (Printf.sprintf "odometer = rank %d (seed %d)" r seed)
          true
          (Valuation.equal expect (Enumerate.valuation od));
        Enumerate.step od
      done;
      (* fold_digits_range visits the same digit vectors in rank order *)
      let ranks =
        Enumerate.fold_digits_range ~nulls ~k ~lo ~hi
          (fun acc digits -> Array.copy digits :: acc)
          []
      in
      check int_t "fold_digits_range length" (hi - lo) (List.length ranks);
      List.iteri
        (fun i digits ->
          let r = hi - 1 - i in
          let expect = Enumerate.valuation_of_rank ~nulls ~k r in
          let got =
            Valuation.of_list
              (List.mapi (fun j nl -> (nl, digits.(j))) nulls)
          in
          check bool_t
            (Printf.sprintf "digits = rank %d (seed %d)" r seed)
            true
            (Valuation.equal expect got))
        ranks)
    seeds

let test_odometer_wraps_and_rejects () =
  let nulls = [ 1; 2 ] in
  let od = Enumerate.odometer ~nulls ~k:3 ~rank:8 in
  check bool_t "last rank = all 3s" true (Enumerate.digits od = [| 3; 3 |]);
  Enumerate.step od;
  check bool_t "wraps to all 1s" true (Enumerate.digits od = [| 1; 1 |]);
  Alcotest.check_raises "rank out of range"
    (Invalid_argument "Enumerate.odometer: rank out of range") (fun () ->
      ignore (Enumerate.odometer ~nulls ~k:3 ~rank:9));
  Alcotest.check_raises "k < 1"
    (Invalid_argument "Enumerate.odometer: k < 1") (fun () ->
      ignore (Enumerate.odometer ~nulls ~k:0 ~rank:0));
  (* the empty space has exactly one (empty) valuation *)
  let od0 = Enumerate.odometer ~nulls:[] ~k:4 ~rank:0 in
  check int_t "no digits" 0 (Array.length (Enumerate.digits od0));
  Enumerate.step od0 (* must not raise *)

(* ------------------------------------------------------------------ *)
(* Kernel digit fast path ≡ holds                                       *)
(* ------------------------------------------------------------------ *)

(* holds_digits must agree with holds — and with the naive reference —
   at every rank, under sequential stepping, random jumps (chunk
   boundaries) and interleaving with the Valuation path (which
   invalidates the delta state). *)
let digit_path_agrees ~name inst sentence ~k =
  let nulls =
    List.sort_uniq Int.compare (Instance.nulls inst @ F.nulls sentence)
  in
  let kern = Kernel.compile (Kernel.db_of_instance inst) sentence in
  let refkern = Kernel.compile (Kernel.db_of_instance inst) sentence in
  Kernel.prepare_digits kern ~nulls;
  let n =
    match Incomplete.Enumerate.space_size ~nulls ~k with
    | Some n -> n
    | None -> Alcotest.fail "space too large for the test"
  in
  (* sequential sweep via fold_digits_range *)
  let () =
    Enumerate.fold_digits_range ~nulls ~k ~lo:0 ~hi:n
      (fun r digits ->
        let v = Enumerate.valuation_of_rank ~nulls ~k r in
        check bool_t
          (Printf.sprintf "%s: digits = holds at rank %d" name r)
          (Kernel.holds refkern v)
          (Kernel.holds_digits kern digits);
        r + 1)
      0
    |> fun final -> check int_t (name ^ ": swept all") n final
  in
  (* random jumps: seed a fresh odometer at scattered ranks, stressing
     the prev-digits comparison with non-adjacent changes *)
  let st = state 77 in
  for _ = 1 to 50 do
    let r = Random.State.int st n in
    let od = Enumerate.odometer ~nulls ~k ~rank:r in
    check bool_t
      (Printf.sprintf "%s: digits = holds at jump rank %d" name r)
      (Kernel.holds refkern (Enumerate.valuation_of_rank ~nulls ~k r))
      (Kernel.holds_digits kern (Enumerate.digits od))
  done;
  (* interleaving with the Valuation path invalidates and recovers *)
  let st = state 78 in
  for _ = 1 to 20 do
    let r = Random.State.int st n in
    let v = Enumerate.valuation_of_rank ~nulls ~k r in
    let expect = Kernel.holds refkern v in
    check bool_t (name ^ ": holds interleaved") expect (Kernel.holds kern v);
    let od = Enumerate.odometer ~nulls ~k ~rank:r in
    check bool_t (name ^ ": digits after holds") expect
      (Kernel.holds_digits kern (Enumerate.digits od))
  done

let test_digits_section4 () =
  let e = Zeroone.Constructions.section4_example () in
  let d = e.Zeroone.Constructions.s4_instance in
  let sigma = e.Zeroone.Constructions.s4_sigma in
  let q = e.Zeroone.Constructions.s4_query in
  let answer =
    Logic.Query.instantiate q e.Zeroone.Constructions.s4_tuple_third
  in
  digit_path_agrees ~name:"§4 Σ" d sigma ~k:4;
  digit_path_agrees ~name:"§4 Q(ā)" d answer ~k:4

let test_digits_two_block () =
  let sch =
    Parser.schema_exn "R1(a, b); R2(a, b); S1(a, b); S2(a, b)"
  in
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
  digit_path_agrees ~name:"two-block"
    d (Logic.Query.instantiate q Tuple.empty) ~k:3

let test_digits_randomized () =
  List.iter
    (fun seed ->
      let st = state seed in
      let inst = gen_instance st ~with_nulls:true in
      let s = gen_formula st ~vars:[] ~depth:2 ~with_nulls:true in
      let nulls =
        List.sort_uniq Int.compare (Instance.nulls inst @ F.nulls s)
      in
      let k = 2 in
      match Enumerate.space_size ~nulls ~k with
      | Some n when n <= 256 ->
          let kern = Kernel.compile (Kernel.db_of_instance inst) s in
          Kernel.prepare_digits kern ~nulls;
          ignore
            (Enumerate.fold_digits_range ~nulls ~k ~lo:0 ~hi:n
               (fun r digits ->
                 check bool_t
                   (Printf.sprintf "digits = naive (seed %d, rank %d)" seed r)
                   (Support.sentence_in_support_naive inst s
                      (Enumerate.valuation_of_rank ~nulls ~k r))
                   (Kernel.holds_digits kern digits);
                 r + 1)
               0)
      | _ -> ())
    (List.filteri (fun i _ -> i < 100) seeds)

let test_digits_guards () =
  let inst = gen_instance (state 3) ~with_nulls:true in
  let s = F.Atom ("S", [ F.Val (Value.null 7) ]) in
  let kern = Kernel.compile (Kernel.db_of_instance inst) s in
  let nulls =
    List.sort_uniq Int.compare (Instance.nulls inst @ F.nulls s)
  in
  (* unprepared / mismatched sweeps are rejected *)
  Alcotest.check_raises "unprepared"
    (Invalid_argument
       "Kernel.holds_digits: prepare_digits with the sweep's nulls first")
    (fun () -> ignore (Kernel.holds_digits kern (Array.make 1 1)));
  (match nulls with
  | _ :: rest when rest <> [] ->
      Alcotest.check_raises "missing null"
        (Invalid_argument
           (Printf.sprintf
              "Kernel.prepare_digits: sweep misses null ~%d of the instance \
               or sentence"
              (List.hd nulls)))
        (fun () -> Kernel.prepare_digits kern ~nulls:rest)
  | _ -> ());
  Kernel.prepare_digits kern ~nulls;
  Alcotest.check_raises "code < 1"
    (Invalid_argument "Kernel.holds_digits: code < 1") (fun () ->
      ignore
        (Kernel.holds_digits kern (Array.make (List.length nulls) 0)))

(* ------------------------------------------------------------------ *)
(* Guarded quantifier blocks: fixed cases                               *)
(* ------------------------------------------------------------------ *)

(* Quantified variables are bound from matching rows, so these cases
   target what a join plan can get wrong: repeated variables, bound
   guard positions, equations that bind, empty and unknown relations,
   and scans over an updated index. Each sentence is checked against
   the naive reference under every valuation into four constants, and
   through [Compiled.compile] against [Eval]. *)

let guard_schema = Schema.make [ ("R", 2); ("S", 1); ("E", 1); ("P", 1) ]
let x = F.Var "x" and y = F.Var "y" and z = F.Var "z"
let gc n = F.Val (Value.const n)
let gr a b = F.Atom ("R", [ a; b ])
let gs a = F.Atom ("S", [ a ])
let ge a = F.Atom ("E", [ a ])

let guard_instance =
  let c = Value.const and n = Value.null in
  Instance.of_rows guard_schema
    [ ("R",
       [ [ c 1; c 1 ]; [ c 1; c 2 ]; [ c 2; c 3 ]; [ n 1; n 1 ]; [ n 2; c 2 ];
         [ c 3; n 1 ]
       ]);
      ("S", [ [ c 2 ]; [ n 2 ] ])
    ]

(* A guard without a bound position scans only when the relation has
   no more rows than the domain has values for its variables, so the
   cases also run with four extra constants in the domain (relation P):
   R(x,x) then scans where on [guard_instance] it loops. *)
let widened inst =
  List.fold_left
    (fun inst c ->
      Instance.add_tuple "P" (Tuple.of_list [ Value.const c ]) inst)
    inst
    (List.init 4 (fun i -> 10 + i))

let agree_on db name s =
  let inst = Kernel.instance db in
  let nulls = List.sort_uniq Int.compare (Instance.nulls inst @ F.nulls s) in
  let kern = Kernel.compile db s in
  Incomplete.Enumerate.fold_valuations ~nulls ~k:4
    (fun () v ->
      check bool_t
        (Printf.sprintf "%s: kernel = naive under %s" name
           (Valuation.to_string v))
        (Support.sentence_in_support_naive inst s v)
        (Kernel.holds kern v))
    ();
  check bool_t (name ^ ": compiled = eval")
    (Eval.sentence_holds inst s)
    (Compiled.sentence_holds (Compiled.compile inst s))

let all_valuations_agree cases =
  List.iter
    (fun (name, s) ->
      agree_on (Kernel.db_of_instance guard_instance) name s;
      agree_on (Kernel.db_of_instance (widened guard_instance))
        (name ^ ", wide domain") s)
    cases

let test_guard_repeated_variable () =
  all_valuations_agree
    [ ("R(x,x)", F.exists [ "x" ] (gr x x));
      ("R(x,x) & S(x)", F.exists [ "x" ] (F.And (gr x x, gs x)));
      ( "R(x,y) & R(y,x) & x != y",
        F.exists [ "x"; "y" ] (F.conj [ gr x y; gr y x; F.neq x y ]) );
      ( "forall x. R(x,x) -> S(x)",
        F.forall [ "x" ] (F.Implies (gr x x, gs x)) );
      (* the repeated binder also binds a later atom *)
      ( "R(x,x) & R(x,y) & !S(y)",
        F.exists [ "x"; "y" ] (F.conj [ gr x x; gr x y; F.Not (gs y) ]) )
    ]

let test_guard_bound_positions () =
  all_valuations_agree
    [ ("R(1,y)", F.exists [ "y" ] (gr (gc 1) y));
      ("R(y,~2)", F.exists [ "y" ] (gr y (F.Val (Value.null 2))));
      ( "S(x) & exists y. R(x,y) & R(y,3)",
        F.exists [ "x" ]
          (F.And (gs x, F.exists [ "y" ] (F.And (gr x y, gr y (gc 3))))) );
      ( "forall x. S(x) -> exists y. R(y,x)",
        F.forall [ "x" ] (F.Implies (gs x, F.exists [ "y" ] (gr y x))) );
      (* an equation binds y from x, or from a constant *)
      ( "R(x,z) & y = x & R(y,y)",
        F.exists [ "x"; "y"; "z" ] (F.conj [ gr x z; F.Eq (y, x); gr y y ]) );
      ( "y = 4 & !S(y)",
        F.exists [ "y" ] (F.And (F.Eq (gc 4, y), F.Not (gs y))) );
      (* a binder no conjunct mentions: only a nonempty domain *)
      ("exists x. exists y. S(y)", F.exists [ "x"; "y" ] (gs y));
      (* shadowing inside one block *)
      ("exists x. exists x. R(x,1)", F.exists [ "x"; "x" ] (gr x (gc 1)))
    ]

let test_guard_dependencies () =
  let module D = Constraints.Dependency in
  let sch = Schema.make [ ("R", 2); ("U", 1); ("T", 3) ] in
  let c = Value.const and n = Value.null in
  let inst =
    Instance.of_rows sch
      [ ("R", [ [ c 1; n 1 ]; [ c 1; c 2 ]; [ n 2; c 3 ]; [ c 4; c 3 ] ]);
        ("U", [ [ c 1 ]; [ n 3 ]; [ c 2 ] ]);
        ("T", [ [ c 1; c 2; n 1 ]; [ c 1; n 2; c 3 ]; [ n 3; c 2; c 2 ] ])
      ]
  in
  let fd r lhs rhs = D.Fd { fd_relation = r; fd_lhs = lhs; fd_rhs = rhs } in
  let ind src sc dst dc =
    D.Ind
      { ind_src = src; ind_src_cols = sc; ind_dst = dst; ind_dst_cols = dc }
  in
  (* Every relation has fewer rows than the domain has pairs, so the
     first atom of each dependency is scanned without widening (which
     would make the naive reference slow on the six-variable key). *)
  List.iter
    (fun (name, deps) ->
      agree_on (Kernel.db_of_instance inst) name (D.set_to_formula sch deps))
    [ ("fd R: a -> b", [ fd "R" [ 0 ] 1 ]);
      ("fd R: b -> a", [ fd "R" [ 1 ] 0 ]);
      ("key T[a,b]", [ D.Key { key_relation = "T"; key_cols = [ 0; 1 ] } ]);
      ("ind R[a] <= U[u]", [ ind "R" [ 0 ] "U" [ 0 ] ]);
      ("fd + ind", [ fd "T" [ 0 ] 2; ind "T" [ 1 ] "R" [ 1 ] ])
    ]

let test_guard_empty_relation () =
  all_valuations_agree
    [ ("E(x)", F.exists [ "x" ] (ge x));
      ("E(x) & R(x,x)", F.exists [ "x" ] (F.And (ge x, gr x x)));
      ("forall x. E(x) -> False", F.forall [ "x" ] (F.Implies (ge x, F.False)));
      ("forall x. !E(x) | S(x)", F.forall [ "x" ] (F.Or (F.Not (ge x), gs x)))
    ]

let test_guard_unknown_relation () =
  let nope = F.Atom ("Nope", [ x ]) in
  let v = Valuation.of_list [ (1, 1); (2, 2) ] in
  let s = F.exists [ "x" ] (F.And (ge x, nope)) in
  (* behind an empty guard the unknown atom is never reached *)
  all_valuations_agree [ ("E(x) & Nope(x)", s) ];
  let kern = Kernel.compile (Kernel.db_of_instance guard_instance) s in
  check bool_t "unreached: false" false (Kernel.holds kern v);
  (* behind a nonempty one it is reached, and raises like Eval *)
  let s' = F.exists [ "x" ] (F.And (gs x, nope)) in
  Alcotest.check_raises "eval raises" Not_found (fun () ->
      ignore (Eval.sentence_holds guard_instance s'));
  Alcotest.check_raises "compiled raises" Not_found (fun () ->
      ignore (Compiled.sentence_holds (Compiled.compile guard_instance s')));
  let kern' = Kernel.compile (Kernel.db_of_instance guard_instance) s' in
  Alcotest.check_raises "kernel raises" Not_found (fun () ->
      ignore (Kernel.holds kern' v))

let test_guard_updated_index () =
  let tup l = Tuple.of_list (List.map Value.const l) in
  let updated inst =
    List.fold_left
      (fun db (op, name, t) ->
        match op with
        | `Ins -> Kernel.db_insert db ~name ~tuple:(tup t)
        | `Del -> Kernel.db_delete db ~name ~tuple:(tup t))
      (Kernel.db_of_instance inst)
      [ (`Ins, "R", [ 4; 4 ]); (`Del, "R", [ 1; 1 ]); (`Ins, "R", [ 2; 1 ]);
        (`Del, "R", [ 2; 3 ]); (`Ins, "S", [ 3 ]); (`Ins, "E", [ 4 ])
      ]
  in
  List.iter
    (fun (name, s) ->
      agree_on (updated guard_instance) name s;
      agree_on (updated (widened guard_instance)) (name ^ ", wide domain") s)
    [ ("R(x,x)", F.exists [ "x" ] (gr x x));
      ("R(2,y)", F.exists [ "y" ] (gr (gc 2) y));
      ("R(x,3)", F.exists [ "x" ] (gr x (gc 3)));
      ( "S(x) & R(x,y) & E(y)",
        F.exists [ "x"; "y" ] (F.conj [ gs x; gr x y; ge y ]) );
      ( "forall x y. R(x,y) -> S(x) | R(y,x)",
        F.forall [ "x"; "y" ] (F.Implies (gr x y, F.Or (gs x, gr y x))) )
    ]

(* An equation binds a quantified variable only from a value known to
   lie in the domain: a free variable's value or a null of the formula
   may lie outside it, and then no domain element equals it. *)
let test_guard_equation_outside_domain () =
  let s = F.exists [ "y" ] (F.And (F.Eq (y, x), F.Not (gs y))) in
  let t = Compiled.compile guard_instance s in
  List.iter
    (fun v ->
      check bool_t
        ("y = x, x := " ^ Value.to_string v)
        (Eval.holds guard_instance [ ("x", v) ] s)
        (Compiled.holds t [ ("x", v) ]))
    [ Value.const 1; Value.const 2; Value.const 99; Value.null 9 ];
  let s' = F.exists [ "y" ] (F.Eq (y, F.Val (Value.null 9))) in
  check bool_t "y = ~9 with ~9 outside the domain"
    (Eval.sentence_holds guard_instance s')
    (Compiled.sentence_holds (Compiled.compile guard_instance s'))

let test_guard_uses_domain () =
  let uses s = Compiled.uses_domain (Compiled.compile guard_instance s) in
  check bool_t "posting-list guard only" false
    (uses (F.exists [ "y" ] (gr (gc 1) y)));
  check bool_t "equation then posting-list guard" false
    (uses (F.exists [ "x"; "y" ] (F.And (F.Eq (x, gc 1), gr x y))));
  check bool_t "guard without a bound position" true
    (uses (F.exists [ "x" ] (gr x x)));
  check bool_t "unguarded variable" true
    (uses (F.exists [ "x" ] (F.Not (gs x))))

(* ------------------------------------------------------------------ *)
(* Worked examples                                                      *)
(* ------------------------------------------------------------------ *)

let test_intro_example () =
  (* The introduction's customer/product database: certain answers via
     the kernelized class sweep, and µ^k via the kernelized count, must
     reproduce the numbers the seed computed with the naive engine. *)
  let sch = Parser.schema_exn "R1(customer, product); R2(customer, product)" in
  let d =
    Parser.instance_exn sch
      "R1 = { ('c1', ~1), ('c2', ~1), ('c2', ~2) };
       R2 = { ('c1', ~2), ('c2', ~1), (~3, ~1) }"
  in
  let q = Parser.query_exn "Q(x, y) := R1(x, y) & !R2(x, y)" in
  let t = Parser.tuple_exn "('c1', ~1)" in
  check bool_t "('c1',~1) not certain" false (Incomplete.Certain.is_certain d q t);
  let mu = Support.mu_k d q t ~k:8 in
  (* independently recount with the naive reference *)
  let sentence = Logic.Query.instantiate q t in
  let nulls =
    List.sort_uniq Int.compare (Instance.nulls d @ Tuple.nulls t)
  in
  let count = ref 0 and total = ref 0 in
  Incomplete.Enumerate.fold_valuations ~nulls ~k:8
    (fun () v ->
      incr total;
      if Support.sentence_in_support_naive d sentence v then incr count)
    ();
  check bool_t "µ^8 = naive recount" true
    (R.equal mu (R.of_ints !count !total))

let test_section4_example () =
  let e = Zeroone.Constructions.section4_example () in
  let sigma = e.Zeroone.Constructions.s4_sigma in
  let d = e.Zeroone.Constructions.s4_instance in
  let q = e.Zeroone.Constructions.s4_query in
  check bool_t "§4 µ = 1/3" true
    (R.equal (R.of_ints 1 3)
       (Zeroone.Conditional.mu_cond ~sigma d q
          e.Zeroone.Constructions.s4_tuple_third));
  check bool_t "§4 µ = 2/3" true
    (R.equal (R.of_ints 2 3)
       (Zeroone.Conditional.mu_cond ~sigma d q
          e.Zeroone.Constructions.s4_tuple_two_thirds))

(* ------------------------------------------------------------------ *)
(* Persistent pool machinery                                            *)
(* ------------------------------------------------------------------ *)

(* The shared pool on a single-core box has zero workers, so these
   tests build explicit two-worker pools to exercise the queue. *)

let with_pool f = Exec.Pool.with_pool ~workers:2 f

let test_pool_queue_fold () =
  with_pool (fun pool ->
      check int_t "worker count" 2 (Exec.Pool.worker_count pool);
      (* many folds reuse the same workers — no spawn per fold *)
      for round = 1 to 20 do
        List.iter
          (fun jobs ->
            let n = 64 * round in
            let got =
              Exec.Pool.fold_range ~pool ~jobs ~min_work:1 ~n
                ~chunk:(fun lo hi ->
                  let s = ref 0 in
                  for i = lo to hi - 1 do s := !s + i done;
                  !s)
                ~combine:( + ) 0
            in
            check int_t
              (Printf.sprintf "pool sum n=%d jobs=%d" n jobs)
              (n * (n - 1) / 2)
              got)
          [ 2; 3; 8 ]
      done)

let test_pool_queue_exception () =
  with_pool (fun pool ->
      Alcotest.check_raises "first error in chunk order" (Failure "chunk1")
        (fun () ->
          ignore
            (Exec.Pool.fold_range ~pool ~jobs:4 ~min_work:1 ~n:16
               ~chunk:(fun lo _ ->
                 if lo > 0 then failwith (Printf.sprintf "chunk%d" (lo / 4))
                 else 0)
               ~combine:( + ) 0));
      (* the pool survives the failed fold *)
      check int_t "pool alive after exception" 10
        (Exec.Pool.fold_range ~pool ~jobs:4 ~min_work:1 ~n:5
           ~chunk:(fun lo hi ->
             let s = ref 0 in
             for i = lo to hi - 1 do s := !s + i done;
             !s)
           ~combine:( + ) 0))

let test_pool_shutdown_idempotent () =
  let pool = Exec.Pool.create ~workers:1 () in
  Exec.Pool.shutdown pool;
  Exec.Pool.shutdown pool;
  check bool_t "shutdown twice" true true

let test_pool_nested_folds () =
  (* a chunk of an outer fold issues its own pool fold: the caller
     drains the queue while waiting, so this must not deadlock even
     with every chunk nested *)
  with_pool (fun pool ->
      let got =
        Exec.Pool.fold_range ~pool ~jobs:3 ~min_work:1 ~n:30
          ~chunk:(fun lo hi ->
            Exec.Pool.fold_range ~pool ~jobs:2 ~min_work:1 ~n:(hi - lo)
              ~chunk:(fun l h ->
                let s = ref 0 in
                for i = l to h - 1 do s := !s + (lo + i) done;
                !s)
              ~combine:( + ) 0)
          ~combine:( + ) 0
      in
      check int_t "nested folds" (30 * 29 / 2) got)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kernel"
    [ ( "index",
        [ Alcotest.test_case "mem" `Quick test_index_mem;
          Alcotest.test_case "select/postings" `Quick test_index_select;
          Alcotest.test_case "randomized vs Relation.mem" `Quick
            test_index_randomized
        ] );
      ( "compiled",
        [ Alcotest.test_case "≡ Eval.holds (randomized)" `Quick
            test_compiled_equals_eval;
          Alcotest.test_case "≡ Eval.sentence_holds (randomized)" `Quick
            test_compiled_sentences;
          Alcotest.test_case "open formula rejected" `Quick
            test_compiled_open_formula_rejected
        ] );
      ( "guards",
        [ Alcotest.test_case "repeated variable" `Quick
            test_guard_repeated_variable;
          Alcotest.test_case "constants and outer variables" `Quick
            test_guard_bound_positions;
          Alcotest.test_case "FD, key and ID sentences" `Quick
            test_guard_dependencies;
          Alcotest.test_case "empty relation" `Quick test_guard_empty_relation;
          Alcotest.test_case "unknown relation" `Quick
            test_guard_unknown_relation;
          Alcotest.test_case "updated index" `Quick test_guard_updated_index;
          Alcotest.test_case "equation outside the domain" `Quick
            test_guard_equation_outside_domain;
          Alcotest.test_case "domain reads" `Quick test_guard_uses_domain
        ] );
      ( "split",
        [ Alcotest.test_case "≡ Valuation.instance (randomized)" `Quick
            test_split_equals_valuation_instance;
          Alcotest.test_case "ground fragment" `Quick test_split_ground_shared
        ] );
      ( "kernel",
        [ Alcotest.test_case "≡ naive support check (randomized)" `Quick
            test_kernel_equals_naive;
          Alcotest.test_case "checker + cache consistent" `Quick
            test_checker_cache_consistent;
          Alcotest.test_case "intro example" `Quick test_intro_example;
          Alcotest.test_case "§4 example" `Quick test_section4_example
        ] );
      ( "odometer",
        [ Alcotest.test_case "≡ valuation_of_rank (randomized)" `Quick
            test_odometer_equals_rank;
          Alcotest.test_case "wrap & range checks" `Quick
            test_odometer_wraps_and_rejects
        ] );
      ( "digits",
        [ Alcotest.test_case "≡ holds on §4 example" `Quick
            test_digits_section4;
          Alcotest.test_case "≡ holds on two-block workload" `Quick
            test_digits_two_block;
          Alcotest.test_case "≡ naive (randomized)" `Quick
            test_digits_randomized;
          Alcotest.test_case "guards" `Quick test_digits_guards
        ] );
      ( "pool-queue",
        [ Alcotest.test_case "folds reuse workers" `Quick test_pool_queue_fold;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_queue_exception;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "nested folds" `Quick test_pool_nested_folds
        ] )
    ]

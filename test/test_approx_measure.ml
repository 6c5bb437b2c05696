(* The (ε,δ)-approximate measure engine (lib/approx_measure): the
   Hoeffding sample-size bound, the splitmix64 sample streams, the
   seeded estimator against the exact µ^k / µ^k(Q|Σ) engines, the
   beyond-overflow per-digit sampling path, cross-jobs bit-identity,
   the class-table sampler against a per-sample oracle, the serve
   `approx` op (including a deadline trip mid-sampling), and the
   well-formedness of the new counters and trace span. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Instance = Relational.Instance
module Tuple = Relational.Tuple
module F = Logic.Formula
module Query = Logic.Query
module Parser = Logic.Parser
module Enumerate = Incomplete.Enumerate
module Valuation = Incomplete.Valuation
module Support = Incomplete.Support
module Classes = Incomplete.Classes
module AE = Approx_measure.Estimator
module Srng = Approx_measure.Srng
module R = Arith.Rat
module W = Server.Wire
module Session = Server.Session
module Service = Server.Service

let check = Alcotest.check
let rat_t = Alcotest.testable R.pp R.equal
let c = Value.named
let n = Value.null
let rabs r = if R.compare r R.zero < 0 then R.sub R.zero r else r

(* The intro example, 2 nulls: exact µ^4 = 15/16, µ^6 = 35/36. *)
let schema = Schema.make [ ("R1", 2); ("R2", 2) ]

let db =
  Instance.of_rows schema
    [ ("R1", [ [ c "c1"; n 1 ] ]); ("R2", [ [ n 2; c "x" ] ]) ]

let q = Parser.query_exn "Q(x, y) := R1(x, y) & !R2(x, y)"
let t = Parser.tuple_exn "('c1', ~1)"

(* --- parameters --------------------------------------------------- *)

let test_rat_of_string () =
  let ok s = match AE.rat_of_string s with
    | Ok r -> r
    | Error e -> Alcotest.failf "%S rejected: %s" s e
  in
  check rat_t "0.05" (R.of_ints 1 20) (ok "0.05");
  check rat_t ".5" (R.of_ints 1 2) (ok ".5");
  check rat_t "1/20" (R.of_ints 1 20) (ok "1/20");
  check rat_t "3" (R.of_ints 3 1) (ok "3");
  check rat_t "0.250 normalizes" (R.of_ints 1 4) (ok "0.250");
  List.iter
    (fun s ->
      match AE.rat_of_string s with
      | Ok r -> Alcotest.failf "%S accepted as %s" s (R.to_string r)
      | Error _ -> ())
    [ ""; "abc"; "1/0"; "0.0.5"; "-1"; "1e-3"; "1/"; "/2" ]

let test_sample_size () =
  let size e d = AE.sample_size ~eps:(R.of_ints 1 e) ~delta:(R.of_ints 1 d) in
  (* ⌈ln(2/δ)/(2ε²)⌉ at the gate's three working points *)
  check Alcotest.int "(1/20, 1/100)" 1060 (size 20 100);
  check Alcotest.int "(1/10, 1/20)" 185 (size 10 20);
  check Alcotest.int "(1/4, 1/4)" 17 (size 4 4);
  List.iter
    (fun (e, d) ->
      try
        ignore (AE.sample_size ~eps:e ~delta:d);
        Alcotest.failf "eps=%s delta=%s accepted" (R.to_string e)
          (R.to_string d)
      with Invalid_argument _ -> ())
    [ (R.zero, R.of_ints 1 2); (R.one, R.of_ints 1 2);
      (R.of_ints 1 2, R.zero); (R.of_ints 3 2, R.of_ints 1 2)
    ]

(* --- the sample streams ------------------------------------------- *)

let test_srng () =
  let a = Srng.of_seed 42 and b = Srng.of_seed 42 in
  for i = 1 to 100 do
    check Alcotest.int (Printf.sprintf "draw %d reproducible" i)
      (Srng.uniform a 1000) (Srng.uniform b 1000)
  done;
  let g = Srng.of_seed 7 in
  for _ = 1 to 10_000 do
    let v = Srng.uniform g 13 in
    if v < 0 || v >= 13 then Alcotest.failf "uniform out of range: %d" v
  done;
  check Alcotest.int "uniform _ 1 is 0" 0 (Srng.uniform (Srng.of_seed 1) 1);
  (* streams are keyed by (seed, index): same key, same tape *)
  let s1 = Srng.stream ~seed:3 ~index:9 and s2 = Srng.stream ~seed:3 ~index:9 in
  check Alcotest.int "stream reproducible" (Srng.uniform s1 1_000_000)
    (Srng.uniform s2 1_000_000);
  let s3 = Srng.stream ~seed:3 ~index:10 in
  (* adjacent streams diverge (splitmix64's whole point) *)
  let different = ref false in
  for _ = 1 to 20 do
    if Srng.uniform s1 1_000_000 <> Srng.uniform s3 1_000_000 then
      different := true
  done;
  check Alcotest.bool "adjacent streams diverge" true !different

(* The draws themselves are part of the contract: every pinned
   estimate depends on them, so the generator's outputs are pinned
   here, as splitmix64 computed them with a boxed int64 state. *)
let test_srng_pinned () =
  List.iter
    (fun (seed, index, raw, mod1000, full) ->
      let name what = Printf.sprintf "(%d, %d) %s" seed index what in
      let t = Srng.stream ~seed ~index in
      check (Alcotest.list Alcotest.int) (name "next62") raw
        (List.init 3 (fun _ -> Srng.next62 t));
      let t = Srng.stream ~seed ~index in
      check (Alcotest.list Alcotest.int) (name "uniform 1000") mod1000
        (List.init 3 (fun _ -> Srng.uniform t 1000));
      check Alcotest.int (name "uniform max_int") full
        (Srng.uniform t max_int))
    [ ( 0, 0,
        [ 4073552104164651883; 1990071630548588925; 121904254867886419 ],
        [ 883; 925; 419 ], 4477402844195135611 );
      ( 7, 3,
        [ 2607331705829540900; 473199049810058003; 2478627352405005348 ],
        [ 900; 3; 348 ], 446678361881745289 );
      ( 42, 41_499,
        [ 3925563717193200075; 286206014489266048; 4010094353339526835 ],
        [ 75; 48; 835 ], 2055796932670156585 );
      ( -1, 1 lsl 40,
        [ 4057517655224300172; 2182694744679035522; 1781150343957175594 ],
        [ 172; 522; 594 ], 3266200671902231682 )
    ];
  let t = Srng.of_seed 42 in
  check Alcotest.int "of_seed 42 next62" 2749113066540076570 (Srng.next62 t);
  check Alcotest.int "of_seed 42 then uniform 13" 6 (Srng.uniform t 13)

(* --- estimator vs exact ------------------------------------------- *)

let eps10 = R.of_ints 1 10
let delta20 = R.of_ints 1 20

let test_accuracy () =
  (* Deterministic frequentist check of the Hoeffding promise: with
     (ε, δ) = (1/10, 1/20), at least (1−δ) of 100 fixed seeds must
     land within ε of the exact value — and, being seeded, the count
     never changes between runs. *)
  let k = 6 in
  let exact = Incomplete.Support.mu_k db q t ~k in
  check rat_t "exact µ^6 is 35/36" (R.of_ints 35 36) exact;
  let cache = Incomplete.Support.create_cache () in
  let trials = 100 in
  let within = ref 0 in
  for seed = 1 to trials do
    let e = AE.mu_k ~cache db q t ~k ~eps:eps10 ~delta:delta20 ~seed in
    check Alcotest.int "Hoeffding-sized" 185 e.AE.samples;
    if R.compare (rabs (R.sub e.AE.estimate exact)) eps10 <= 0 then
      incr within
  done;
  if !within < 95 then
    Alcotest.failf "only %d/%d trials within ε (need 95)" !within trials

let test_stratified_accuracy () =
  let k = 6 in
  let exact = Incomplete.Support.mu_k db q t ~k in
  let cache = Incomplete.Support.create_cache () in
  let trials = 30 in
  let within = ref 0 in
  for seed = 1 to trials do
    let e =
      AE.mu_k ~cache ~stratify:true db q t ~k ~eps:eps10 ~delta:delta20 ~seed
    in
    match e.AE.stratified with
    | None -> Alcotest.fail "stratify:true returned no stratified pass"
    | Some s ->
        (* 2 nulls, anchors present in [1..6]: null-support strata
           j = 0, 1, 2 all have positive weight *)
        check Alcotest.int "strata" 3 s.AE.s_strata;
        check Alcotest.bool "second pass spends at least as many samples"
          true
          (s.AE.s_samples >= e.AE.samples);
        if R.compare (rabs (R.sub s.AE.s_estimate exact)) eps10 <= 0 then
          incr within
  done;
  (* same (ε, δ) guarantee as the uniform pass: ≥ (1−δ)·30 ≈ 28.5 *)
  if !within < 28 then
    Alcotest.failf "only %d/%d stratified trials within ε (need 28)" !within
      trials

let digest (e : AE.t) =
  Printf.sprintf "%s|%s|%s|%d|%d|%s" (R.to_string e.AE.estimate)
    (R.to_string e.AE.ci_lo) (R.to_string e.AE.ci_hi) e.AE.samples e.AE.hits
    (match e.AE.stratified with
    | None -> "-"
    | Some s ->
        Printf.sprintf "%s|%s|%s|%d|%d"
          (R.to_string s.AE.s_estimate)
          (R.to_string s.AE.s_ci_lo)
          (R.to_string s.AE.s_ci_hi)
          s.AE.s_samples s.AE.s_strata)

let test_overflow_frontier () =
  (* k = 3·10^7 over 3 nulls ≈ 2.7·10^22 valuations — far past the
     2^62 rank frontier, so the sampler must draw per-null digits. *)
  let schema3 = Schema.make [ ("U", 3) ] in
  let db3 = Instance.of_rows schema3 [ ("U", [ [ n 1; n 2; n 3 ] ]) ] in
  let q3 = Parser.query_exn "Q() := exists x. U(x, x, x)" in
  let k = 30_000_000 in
  check Alcotest.(option int) "space size overflows" None
    (Incomplete.Enumerate.space_size ~nulls:[ 1; 2; 3 ] ~k);
  let eps = R.of_ints 1 4 and delta = R.of_ints 1 4 in
  let run jobs =
    AE.mu_k ~jobs ~stratify:true db3 q3 Tuple.empty ~k ~eps ~delta ~seed:42
  in
  let e = run 1 in
  check Alcotest.int "17 samples suffice at (1/4, 1/4)" 17 e.AE.samples;
  check Alcotest.bool "estimate in [0,1]" true
    (R.compare R.zero e.AE.estimate <= 0 && R.compare e.AE.estimate R.one <= 0);
  check Alcotest.string "bit-identical at jobs=4" (digest e) (digest (run 4))

let test_conditional () =
  let e4 = Zeroone.Constructions.section4_example () in
  let d = e4.Zeroone.Constructions.s4_instance
  and cq = e4.Zeroone.Constructions.s4_query
  and ct = e4.Zeroone.Constructions.s4_tuple_third
  and sigma = e4.Zeroone.Constructions.s4_sigma in
  let k = 9 in
  let exact = Zeroone.Conditional.mu_cond_k ~sigma d cq ct ~k in
  check rat_t "exact µ^9(Q|Σ) is 1/3" (R.of_ints 1 3) exact;
  (* sized with δ/2 for the union bound over both frequencies *)
  let expected_n =
    AE.sample_size ~eps:eps10 ~delta:(R.div_int delta20 2)
  in
  let cache = Incomplete.Support.create_cache () in
  List.iter
    (fun seed ->
      let c =
        AE.mu_cond_k ~cache ~sigma d cq ct ~k ~eps:eps10 ~delta:delta20 ~seed
      in
      check Alcotest.int "δ/2-sized" expected_n c.AE.c_samples;
      check Alcotest.bool
        (Printf.sprintf "seed %d: CI [%s, %s] contains 1/3" seed
           (R.to_string c.AE.c_ci_lo)
           (R.to_string c.AE.c_ci_hi))
        true
        (R.compare c.AE.c_ci_lo exact <= 0
        && R.compare exact c.AE.c_ci_hi <= 0))
    [ 1; 2; 3; 5; 8; 13; 21; 34 ]

(* --- the per-sample oracle ------------------------------------------ *)

(* The sampler without its class table: every sample is built as a
   Valuation.t and checked by the compiled kernel. It draws from the
   same (seed, index) streams in the same order as the estimator, so
   the two must agree on every sample's hit. *)

let uniform_samples ~nulls ~k ~seed ~base n =
  let space = Enumerate.space_size ~nulls ~k in
  List.init n (fun i ->
      let rng = Srng.stream ~seed ~index:(base + i) in
      match space with
      | Some size -> Enumerate.valuation_of_rank ~nulls ~k (Srng.uniform rng size)
      | None ->
          Valuation.of_list
            (List.map (fun nl -> (nl, 1 + Srng.uniform rng k)) nulls))

(* The idx-th code of [1..k] minus the (sorted, ≤ k) anchors. *)
let nth_non_anchor anchors idx =
  let c = ref (idx + 1) in
  Array.iter (fun a -> if a <= !c then incr c) anchors;
  !c

let stratum_sample ~rng ~nulls ~anchors ~k ~j =
  let a = Array.length anchors in
  let picked = ref j and left = ref (List.length nulls) in
  let bindings =
    List.map
      (fun nl ->
        let anchored = Srng.uniform rng !left < !picked in
        let code =
          if anchored then begin
            decr picked;
            anchors.(Srng.uniform rng a)
          end
          else nth_non_anchor anchors (Srng.uniform rng (k - a))
        in
        decr left;
        (nl, code))
      nulls
  in
  Valuation.of_list bindings

(* The stratified pass's samples: (weight, members) per stratum. *)
let stratified_samples ~anchor_set ~nulls ~k ~seed ~base n =
  let anchors =
    Array.of_list (List.filter (fun c -> c >= 1 && c <= k) anchor_set)
  in
  let plan =
    AE.strata ~m:(List.length nulls) ~anchors:(Array.length anchors) ~k ~n
  in
  let _, rev =
    List.fold_left
      (fun (offset, acc) (j, weight, alloc) ->
        let members =
          List.init alloc (fun i ->
              stratum_sample
                ~rng:(Srng.stream ~seed ~index:(base + offset + i))
                ~nulls ~anchors ~k ~j)
        in
        (offset + alloc, (weight, members) :: acc))
      (0, []) plan
  in
  List.rev rev

let oracle_hits chk vs = List.length (List.filter (Support.check chk) vs)

let oracle_stratified chk strata =
  List.fold_left
    (fun acc (weight, members) ->
      R.add acc
        (R.mul weight (R.of_ints (oracle_hits chk members) (List.length members))))
    R.zero strata

(* Random FO sentences over R/2 and S/1 with =, ¬, ∀ and ∃. Constants
   are codes 1..6; the instances only use 1..4, so 5 and 6 are anchors
   of the query alone. Nulls are ~1..~3. *)
let gen_value st =
  if Random.State.int st 3 = 0 then Value.null (1 + Random.State.int st 3)
  else Value.const (1 + Random.State.int st 4)

let gen_instance st =
  let rows bound arity =
    List.init (1 + Random.State.int st bound) (fun _ ->
        List.init arity (fun _ -> gen_value st))
  in
  Instance.of_rows (Schema.make [ ("R", 2); ("S", 1) ])
    [ ("R", rows 4 2); ("S", rows 3 1) ]

let rec gen_formula st ~vars ~depth =
  let term () =
    if vars = [] || Random.State.int st 3 = 0 then
      F.Val (Value.const (1 + Random.State.int st 6))
    else F.Var (List.nth vars (Random.State.int st (List.length vars)))
  in
  let sub ?(vars = vars) () = gen_formula st ~vars ~depth:(depth - 1) in
  if depth = 0 then
    match Random.State.int st 3 with
    | 0 -> F.Atom ("R", [ term (); term () ])
    | 1 -> F.Atom ("S", [ term () ])
    | _ -> F.Eq (term (), term ())
  else
    match Random.State.int st 5 with
    | 0 -> F.Not (sub ())
    | 1 -> F.And (sub (), sub ())
    | 2 -> F.Or (sub (), sub ())
    | _ ->
        let v = List.nth [ "y"; "z" ] (Random.State.int st 2) in
        let body = sub ~vars:(v :: vars) () in
        if Random.State.bool st then F.Exists (v, body) else F.Forall (v, body)

let eps20 = R.of_ints 1 20

let test_class_table_oracle () =
  (* 600 samples per uniform pass (738 for the conditional) split
     across chunks at jobs 2 and 4; k = 3 lies below the largest anchor
     code, 9 above it, and 3·10^9 puts two or more nulls past the rank
     frontier onto the per-digit draw path. *)
  let wide = ref 0 in
  for case = 0 to 29 do
    let st = Random.State.make [| 0xc1a55; case |] in
    let inst = gen_instance st in
    let q = Query.make [ "x" ] (gen_formula st ~vars:[ "x" ] ~depth:3) in
    let tuple = Tuple.of_list [ Value.null (1 + Random.State.int st 3) ] in
    let sigma = gen_formula st ~vars:[] ~depth:2 in
    let seed = Random.State.int st 1_000_000 in
    let db = Incomplete.Kernel.db_of_instance inst in
    let answer = Query.instantiate q tuple in
    let nulls =
      List.sort_uniq Int.compare (Instance.nulls inst @ Tuple.nulls tuple)
    in
    let cnulls = List.sort_uniq Int.compare (nulls @ F.nulls sigma) in
    let chk = Support.checker db answer
    and chk_sig = Support.checker db sigma
    and chk_both = Support.checker db (F.And (sigma, answer)) in
    List.iter
      (fun k ->
        if Enumerate.space_size ~nulls ~k = None then incr wide;
        let n = AE.sample_size ~eps:eps20 ~delta:eps10 in
        let uniform = uniform_samples ~nulls ~k ~seed ~base:0 n in
        let strata =
          stratified_samples
            ~anchor_set:(Support.anchor_set_sentences inst [ answer ])
            ~nulls ~k ~seed ~base:n n
        in
        let cn = AE.sample_size ~eps:eps20 ~delta:eps20 in
        let cond = uniform_samples ~nulls:cnulls ~k ~seed ~base:0 cn in
        List.iter
          (fun jobs ->
            let what =
              Printf.sprintf "case %d, k = %d, jobs %d (%s)" case k jobs
                (F.to_string answer)
            in
            let e =
              AE.mu_k ~jobs ~stratify:true inst q tuple ~k ~eps:eps20
                ~delta:eps10 ~seed
            in
            check Alcotest.int (what ^ ": hits") (oracle_hits chk uniform)
              e.AE.hits;
            let s = Option.get e.AE.stratified in
            check rat_t (what ^ ": stratified") (oracle_stratified chk strata)
              s.AE.s_estimate;
            check Alcotest.int (what ^ ": stratified samples")
              (List.fold_left (fun acc (_, m) -> acc + List.length m) 0 strata)
              s.AE.s_samples;
            let c =
              AE.mu_cond_k ~jobs ~sigma inst q tuple ~k ~eps:eps20
                ~delta:eps10 ~seed
            in
            check Alcotest.int (what ^ ": Σ ∧ Q hits") (oracle_hits chk_both cond)
              c.AE.c_hits_num;
            check Alcotest.int (what ^ ": Σ hits") (oracle_hits chk_sig cond)
              c.AE.c_hits_den)
          [ 1; 2; 4 ])
      [ 3; 9; 3_000_000_000 ]
  done;
  check Alcotest.bool "some cases took the per-digit path" true (!wide > 0)

(* --- randomized properties ---------------------------------------- *)

let eps4 = R.of_ints 1 4

let prop_well_formed =
  QCheck.Test.make ~name:"CI well-ordered and Hoeffding-sized, any seed"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let e = AE.mu_k db q t ~k:5 ~eps:eps4 ~delta:eps4 ~seed in
      R.compare R.zero e.AE.ci_lo <= 0
      && R.compare e.AE.ci_lo e.AE.estimate <= 0
      && R.compare e.AE.estimate e.AE.ci_hi <= 0
      && R.compare e.AE.ci_hi R.one <= 0
      && e.AE.samples = AE.sample_size ~eps:eps4 ~delta:eps4
      && e.AE.estimate = R.of_ints e.AE.hits e.AE.samples)

let prop_jobs_invariant =
  QCheck.Test.make ~name:"fixed seed is bit-identical across jobs" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let run jobs =
        AE.mu_k ~jobs ~stratify:true db q t ~k:6 ~eps:eps4 ~delta:eps4 ~seed
      in
      let d1 = digest (run 1) in
      String.equal d1 (digest (run 2)) && String.equal d1 (digest (run 4)))

(* --- the serve `approx` op ---------------------------------------- *)

let schema_s = "R1(c,p); R2(c,p)"
let db_s = "R1 = { ('c1', ~1) }; R2 = { (~2, 'x') }"
let query_s = "Q(x,y) := R1(x,y) & !R2(x,y)"

let parse_ok line =
  match W.parse_request line with
  | Ok r -> r
  | Error msg -> Alcotest.failf "expected %s to parse, got: %s" line msg

let run_service ?guard line =
  let sessions = Session.create () in
  Service.handle ~sessions ~jobs:1 ?guard (parse_ok line)

let expect_ok = function
  | Ok payload -> payload
  | Error (err, msg) ->
      Alcotest.failf "expected success, got %s: %s" (W.error_code err) msg

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected %s" (W.error_code expected)
  | Error (err, msg) ->
      check Alcotest.string "typed error" (W.error_code expected)
        (W.error_code err);
      msg

let payload_str payload key =
  match List.assoc_opt key payload with
  | Some (W.S s) -> s
  | Some (W.I i) -> string_of_int i
  | _ -> Alcotest.failf "payload field %s missing" key

let payload_int payload key =
  match List.assoc_opt key payload with
  | Some (W.I i) -> i
  | _ -> Alcotest.failf "payload field %s missing or not an int" key

let approx_line ?(eps = "0.1") ?(delta = "0.05") ?(extra = []) () =
  W.obj
    ([ ("op", W.S "approx"); ("schema", W.S schema_s); ("db", W.S db_s);
       ("query", W.S query_s); ("tuple", W.S "('c1', ~1)"); ("k", W.I 6);
       ("eps", W.S eps); ("delta", W.S delta); ("seed", W.I 42)
     ]
    @ extra)

let test_serve_approx () =
  let payload = expect_ok (run_service (approx_line ())) in
  (* the wire answer IS the library answer for the same (seed, ε, δ) *)
  let e = AE.mu_k db q t ~k:6 ~eps:eps10 ~delta:delta20 ~seed:42 in
  check Alcotest.string "estimate" (R.to_string e.AE.estimate)
    (payload_str payload "estimate");
  check Alcotest.string "ci_lo" (R.to_string e.AE.ci_lo)
    (payload_str payload "ci_lo");
  check Alcotest.string "ci_hi" (R.to_string e.AE.ci_hi)
    (payload_str payload "ci_hi");
  check Alcotest.int "samples" e.AE.samples (payload_int payload "samples");
  check Alcotest.int "seed" 42 (payload_int payload "seed");
  check Alcotest.int "hits" e.AE.hits (payload_int payload "hits");
  (* stratify=1 adds the second pass's figures *)
  let payload =
    expect_ok (run_service (approx_line ~extra:[ ("stratify", W.I 1) ] ()))
  in
  let e =
    AE.mu_k ~stratify:true db q t ~k:6 ~eps:eps10 ~delta:delta20 ~seed:42
  in
  let s = Option.get e.AE.stratified in
  check Alcotest.string "stratified" (R.to_string s.AE.s_estimate)
    (payload_str payload "stratified");
  check Alcotest.int "strata" s.AE.s_strata (payload_int payload "strata");
  check Alcotest.int "stratified_samples" s.AE.s_samples
    (payload_int payload "stratified_samples")

let test_serve_approx_conditional () =
  let payload =
    expect_ok
      (run_service
         (W.obj
            [ ("op", W.S "approx"); ("schema", W.S "R(k,v); U(u)");
              ("db", W.S "R = { (~1, 'a') }; U = { ('c1') }");
              ("query", W.S "Q(x) := U(x)"); ("tuple", W.S "('c1')");
              ("k", W.I 5); ("eps", W.S "0.1"); ("delta", W.S "0.05");
              ("seed", W.I 42); ("constraints", W.S "ind R[1] <= U[1]")
            ]))
  in
  let num = payload_int payload "hits_num"
  and den = payload_int payload "hits_den" in
  check Alcotest.bool "numerator within denominator" true (num <= den);
  ignore (payload_str payload "estimate");
  ignore (payload_str payload "ci_lo");
  ignore (payload_str payload "ci_hi")

let test_serve_approx_bad_request () =
  (* missing k *)
  let msg =
    expect_err W.Bad_request
      (run_service
         (W.obj
            [ ("op", W.S "approx"); ("schema", W.S schema_s);
              ("db", W.S db_s); ("query", W.S query_s);
              ("tuple", W.S "('c1', ~1)"); ("eps", W.S "0.1");
              ("delta", W.S "0.05")
            ]))
  in
  check Alcotest.bool "names the missing field" true
    (String.length msg > 0);
  (* out-of-range eps *)
  ignore
    (expect_err W.Bad_request
       (run_service
          (W.obj
             [ ("op", W.S "approx"); ("schema", W.S schema_s);
               ("db", W.S db_s); ("query", W.S query_s);
               ("tuple", W.S "('c1', ~1)"); ("k", W.I 6);
               ("eps", W.S "1.5"); ("delta", W.S "0.05")
             ])));
  (* malformed delta *)
  ignore
    (expect_err W.Bad_request
       (run_service
          (W.obj
             [ ("op", W.S "approx"); ("schema", W.S schema_s);
               ("db", W.S db_s); ("query", W.S query_s);
               ("tuple", W.S "('c1', ~1)"); ("k", W.I 6);
               ("eps", W.S "0.1"); ("delta", W.S "zero")
             ])))

let test_serve_approx_deadline () =
  (* (ε, δ) = (0.001, 0.001) wants ~3.8M samples; a guard that trips
     after two pool chunks (the guard refines chunks to ≤ 2^16
     samples) aborts mid-sampling with the typed error. *)
  let calls = ref 0 in
  let guard () =
    incr calls;
    if !calls > 2 then raise Service.Deadline
  in
  let msg =
    expect_err W.Deadline_exceeded
      (run_service ~guard (approx_line ~eps:"0.001" ~delta:"0.001" ()))
  in
  check Alcotest.string "fixed message" "deadline exceeded" msg;
  check Alcotest.bool "the guard actually fired mid-run" true (!calls > 2)

(* --- observability ------------------------------------------------ *)

let test_metrics_counters () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
    (fun () ->
      let k = 6 and seed = 42 in
      let e =
        AE.mu_k ~jobs:1 ~stratify:true db q t ~k ~eps:eps10 ~delta:delta20
          ~seed
      in
      let evaluated = Obs.Metrics.value Obs.Metrics.valuations_evaluated in
      let s = Option.get e.AE.stratified in
      check Alcotest.int "approx_samples counts both passes"
        (e.AE.samples + s.AE.s_samples)
        (Obs.Metrics.value Obs.Metrics.approx_samples);
      check Alcotest.int "approx_strata counts sampled strata"
        s.AE.s_strata
        (Obs.Metrics.value Obs.Metrics.approx_strata);
      (* With jobs 1 the uniform pass is one chunk and each stratum is
         one chunk, so the kernel runs once per class each table met. *)
      let sentence = Query.instantiate q t in
      let anchor_set = Support.anchor_set_sentences db [ sentence ] in
      let nulls =
        List.sort_uniq Int.compare (Instance.nulls db @ Tuple.nulls t)
      in
      let classes vs =
        List.fold_left
          (fun seen v ->
            let c = Classes.classify ~anchor_set ~nulls v in
            if List.exists (Classes.same_class c) seen then seen else c :: seen)
          [] vs
        |> List.length
      in
      let expected =
        classes (uniform_samples ~nulls ~k ~seed ~base:0 e.AE.samples)
        + List.fold_left
            (fun acc (_, members) -> acc + classes members)
            0
            (stratified_samples ~anchor_set ~nulls ~k ~seed ~base:e.AE.samples
               e.AE.samples)
      in
      check Alcotest.int "one evaluation per class met" expected evaluated;
      check Alcotest.int "every evaluation runs the kernel" evaluated
        (Obs.Metrics.value Obs.Metrics.kernel_refreshes))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_trace_span () =
  let path = Filename.temp_file "approx-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.enable_file path;
      ignore
        (AE.mu_k ~stratify:true db q t ~k:6 ~eps:eps10 ~delta:delta20 ~seed:1);
      Obs.Trace.close ();
      (match Obs.Trace.validate_file path with
      | Ok spans ->
          check Alcotest.bool "at least the approx.run span" true (spans >= 1)
      | Error e -> Alcotest.failf "trace does not validate: %s" e);
      check Alcotest.bool "approx.run span present" true
        (contains (read_file path) "approx.run"))

let () =
  Alcotest.run "approx_measure"
    [ ( "parameters",
        [ Alcotest.test_case "rat_of_string" `Quick test_rat_of_string;
          Alcotest.test_case "Hoeffding sample size" `Quick test_sample_size
        ] );
      ( "srng",
        [ Alcotest.test_case "splitmix64 streams" `Quick test_srng;
          Alcotest.test_case "pinned draws" `Quick test_srng_pinned
        ] );
      ( "estimator",
        [ Alcotest.test_case "accuracy vs exact µ^k" `Quick test_accuracy;
          Alcotest.test_case "stratified accuracy" `Quick
            test_stratified_accuracy;
          Alcotest.test_case "beyond the overflow frontier" `Quick
            test_overflow_frontier;
          Alcotest.test_case "conditional CI vs exact" `Quick test_conditional;
          Alcotest.test_case "class table ≡ per-sample oracle" `Quick
            test_class_table_oracle
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_well_formed; prop_jobs_invariant ] );
      ( "serve",
        [ Alcotest.test_case "approx round-trip" `Quick test_serve_approx;
          Alcotest.test_case "conditional approx" `Quick
            test_serve_approx_conditional;
          Alcotest.test_case "bad requests" `Quick
            test_serve_approx_bad_request;
          Alcotest.test_case "deadline mid-sampling" `Quick
            test_serve_approx_deadline
        ] );
      ( "observability",
        [ Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "trace span" `Quick test_trace_span
        ] )
    ]

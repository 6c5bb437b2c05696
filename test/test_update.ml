(* Incremental evaluation under mutation: every layer of the update
   path — Index overlays, Split deltas, the incremental chase, and the
   server's Session.update — is held to one oracle: after any sequence
   of single-tuple updates, every answer must be bit-identical to what
   a session rebuilt from scratch on the updated database computes,
   for any --jobs. A stale cache entry anywhere (kernel dbs, chase
   memos) shows up as a divergence here. *)

module Instance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value
module Names = Relational.Names
module Index = Relational.Index
module Split = Incomplete.Split
module Support = Incomplete.Support
module Chase = Constraints.Chase
module Dependency = Constraints.Dependency
module Session = Server.Session
module Parser = Logic.Parser
module Rat = Arith.Rat
module AE = Approx_measure.Estimator

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let seeds = List.init 220 Fun.id
let state seed = Random.State.make [| 0x0bda7e; seed |]

(* Constants must be named: 'g0'..'g3' round-trip through the parser,
   bare ints would not. *)
let const_pool = Array.map (fun s -> Value.const (Names.intern s))
    [| "g0"; "g1"; "g2"; "g3" |]

let gen_value st ~with_nulls =
  if with_nulls && Random.State.int st 3 = 0 then
    Value.null (1 + Random.State.int st 3)
  else const_pool.(Random.State.int st (Array.length const_pool))

let gen_tuple st arity ~with_nulls =
  Tuple.of_list (List.init arity (fun _ -> gen_value st ~with_nulls))

(* --- Relational.Index deltas -------------------------------------- *)

(* Random adds and removes, well past the overlay compaction cap, must
   leave the index observably equal to one rebuilt from the surviving
   tuples. *)
let test_index_incremental () =
  List.iter
    (fun seed ->
      let st = state seed in
      let live = ref [] in
      let idx = ref (Index.of_relation (Relation.of_rows 2 [])) in
      for _ = 1 to 40 do
        if !live <> [] && Random.State.int st 3 = 0 then begin
          let victim = List.nth !live (Random.State.int st (List.length !live)) in
          live := List.filter (fun t -> not (Tuple.equal t victim)) !live;
          idx := Index.remove !idx victim
        end
        else begin
          let t = gen_tuple st 2 ~with_nulls:true in
          if not (List.exists (Tuple.equal t) !live) then begin
            live := t :: !live;
            idx := Index.add !idx t
          end
        end
      done;
      let rebuilt =
        Index.of_relation (Relation.of_rows 2 (List.map Tuple.to_list !live))
      in
      check int_t "cardinal" (Index.cardinal rebuilt) (Index.cardinal !idx);
      List.iter
        (fun t -> check bool_t "member after deltas" true (Index.mem !idx t))
        !live;
      for _ = 1 to 10 do
        let t = gen_tuple st 2 ~with_nulls:true in
        check bool_t "probe agrees with rebuilt" (Index.mem rebuilt t)
          (Index.mem !idx t);
        let v = gen_value st ~with_nulls:true in
        let col = Random.State.int st 2 in
        let sorted l = List.sort Tuple.compare l in
        check bool_t "postings agree with rebuilt" true
          (List.equal Tuple.equal
             (sorted (Index.postings rebuilt ~column:col v))
             (sorted (Index.postings !idx ~column:col v)))
      done)
    (List.filteri (fun i _ -> i < 60) seeds)

let test_index_delta_errors () =
  let idx = Index.of_relation (Relation.of_rows 2 [ Tuple.to_list (gen_tuple (state 0) 2 ~with_nulls:false) ]) in
  (match Index.add idx (Tuple.of_list [ const_pool.(0) ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity-mismatched add accepted")

(* --- Incomplete.Split deltas --------------------------------------- *)

let schema = Relational.Schema.make [ ("R", 2); ("S", 1) ]
let schema_text = "R(a,b); S(a)"

let gen_rows st bound arity =
  let rec go n acc =
    if n = 0 then acc
    else
      let t = gen_tuple st arity ~with_nulls:true in
      if List.exists (Tuple.equal t) acc then go (n - 1) acc
      else go (n - 1) (t :: acc)
  in
  go (Random.State.int st bound) []

let instance_of_model model =
  Instance.of_rows schema
    (List.map (fun (n, ts) -> (n, List.map Tuple.to_list ts)) model)

let split_agrees label s expected_inst =
  let fresh = Split.of_instance expected_inst in
  check bool_t (label ^ ": base") true
    (Instance.equal (Split.base s) expected_inst);
  check bool_t (label ^ ": ground") true
    (Instance.equal (Split.ground s) (Split.ground fresh));
  check bool_t (label ^ ": null tuples") true
    (List.equal
       (fun (n1, a1) (n2, a2) ->
         String.equal n1 n2
         && Array.length a1 = Array.length a2
         && Array.for_all2 Tuple.equal a1 a2)
       (Split.null_tuples s) (Split.null_tuples fresh));
  check bool_t (label ^ ": nulls") true
    (List.equal Int.equal (Split.nulls s) (Split.nulls fresh));
  check bool_t (label ^ ": constants") true
    (List.equal Int.equal (Split.constants s) (Split.constants fresh))

let test_split_incremental () =
  List.iter
    (fun seed ->
      let st = state seed in
      let model =
        ref [ ("R", gen_rows st 6 2); ("S", gen_rows st 4 1) ]
      in
      let s = ref (Split.of_instance (instance_of_model !model)) in
      for _ = 1 to 8 do
        let name, arity = if Random.State.bool st then ("R", 2) else ("S", 1) in
        let existing = List.assoc name !model in
        if existing <> [] && Random.State.bool st then begin
          let t = List.nth existing (Random.State.int st (List.length existing)) in
          model :=
            List.map
              (fun (n, ts) ->
                if String.equal n name then
                  (n, List.filter (fun u -> not (Tuple.equal u t)) ts)
                else (n, ts))
              !model;
          s := Split.remove !s ~name ~tuple:t
        end
        else begin
          let t = gen_tuple st arity ~with_nulls:true in
          if not (List.exists (Tuple.equal t) existing) then begin
            model :=
              List.map
                (fun (n, ts) ->
                  if String.equal n name then (n, t :: ts) else (n, ts))
                !model;
            s := Split.insert !s ~name ~tuple:t
          end
        end;
        split_agrees "after delta" !s (instance_of_model !model)
      done)
    (List.filteri (fun i _ -> i < 60) seeds)

let test_split_delta_errors () =
  let s = Split.of_instance (Instance.of_rows schema [ ("R", [ [ const_pool.(0); const_pool.(1) ] ]) ]) in
  let t01 = Tuple.of_list [ const_pool.(0); const_pool.(1) ] in
  (match Split.insert s ~name:"R" ~tuple:t01 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate insert accepted");
  (match Split.remove s ~name:"R" ~tuple:(Tuple.of_list [ const_pool.(2); const_pool.(2) ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "absent remove accepted");
  (match Split.insert s ~name:"T" ~tuple:t01 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown relation accepted")

(* --- incremental chase --------------------------------------------- *)

let gen_fds st =
  let fd lhs rhs = { Dependency.fd_relation = "R"; fd_lhs = lhs; fd_rhs = rhs } in
  match Random.State.int st 3 with
  | 0 -> [ fd [ 0 ] 1 ]
  | 1 -> [ fd [ 1 ] 0 ]
  | _ -> [ fd [ 0 ] 1; fd [ 1 ] 0 ]

let outcome_kind = function
  | Chase.Success _ -> "success"
  | Chase.Failure _ -> "failure"

let test_chase_inc_agrees () =
  let q = Parser.query_exn "Q() := exists x. exists y. R(x,y)" in
  List.iter
    (fun seed ->
      let st = state seed in
      let fds = gen_fds st in
      let inst = instance_of_model [ ("R", gen_rows st 6 2); ("S", []) ] in
      let prev = Chase.trace fds inst in
      (* grow by up to 3 tuples, resuming the memo each time *)
      let rec grow n inst prev =
        if n = 0 then ()
        else
          let tuple = gen_tuple st 2 ~with_nulls:true in
          if Instance.mem inst "R" tuple then grow n inst prev
          else begin
            let inst' = Instance.add_tuple "R" tuple inst in
            let prev' = Chase.chase_inc fds ~prev ~name:"R" ~tuple in
            let scratch = Chase.chase fds inst' in
            (* identical success/failure, and an identical measure —
               the chased instances may differ by a null renaming,
               which the measure is invariant under *)
            check string_t "outcome kind" (outcome_kind scratch)
              (outcome_kind (snd prev'));
            check string_t "µ(Q|Σ) identical"
              (Rat.to_string
                 (Zeroone.Conditional.mu_cond_chased scratch q Tuple.empty))
              (Rat.to_string
                 (Zeroone.Conditional.mu_cond_chased (snd prev') q Tuple.empty));
            grow (n - 1) inst' prev'
          end
      in
      grow 3 inst prev)
    seeds

(* --- the session-level oracle -------------------------------------- *)

(* Parser-facing rendering: quoted named constants and [~n] nulls
   round-trip ([Tuple.to_string]'s [_|_n] display form does not). *)
let render_value = function
  | Value.Const c -> "'" ^ Names.to_string c ^ "'"
  | Value.Null n -> Printf.sprintf "~%d" n

let render_tuple t =
  "(" ^ String.concat ", " (List.map render_value (Tuple.to_list t)) ^ ")"

let render_db model =
  String.concat "; "
    (List.map
       (fun (n, ts) ->
         Printf.sprintf "%s = { %s }" n
           (String.concat ", " (List.map render_tuple ts)))
       model)

let q_bool = "Q() := exists x. exists y. R(x,y) & S(x)"
let q_diff = "Q(x,y) := R(x,y) & !R(y,x)"
let fds_r = [ { Dependency.fd_relation = "R"; fd_lhs = [ 0 ]; fd_rhs = 1 } ]

let rel_string rel =
  String.concat "; " (List.map Tuple.to_string (Relation.to_list rel))

let series_string series =
  String.concat ";"
    (List.map (fun (k, v) -> Printf.sprintf "%d=%s" k (Rat.to_string v)) series)

(* One update step chosen against the model; returns the action the
   session must accept. *)
let gen_update st model =
  let name, arity = if Random.State.bool st then ("R", 2) else ("S", 1) in
  let existing = List.assoc name model in
  if existing <> [] && Random.State.bool st then
    let t = List.nth existing (Random.State.int st (List.length existing)) in
    (Session.Delete, name, t)
  else
    let rec fresh tries =
      let t = gen_tuple st arity ~with_nulls:true in
      if List.exists (Tuple.equal t) existing && tries > 0 then fresh (tries - 1)
      else t
    in
    let t = fresh 8 in
    if List.exists (Tuple.equal t) existing then (Session.Delete, name, t)
    else (Session.Insert, name, t)

let apply_model model action name tuple =
  List.map
    (fun (n, ts) ->
      if not (String.equal n name) then (n, ts)
      else
        match action with
        | Session.Insert -> (n, ts @ [ tuple ])
        | Session.Delete -> (n, List.filter (fun u -> not (Tuple.equal u tuple)) ts))
    model

(* After every update: the live session (delta-maintained kernel db,
   resumed chase memo) must answer certain / µ^k-series / seeded
   approx / conditional byte-identically to a session freshly rebuilt
   from the updated database text, at every jobs. *)
let oracle_one_seed ~jobs seed =
  let st = state seed in
  let model = ref [ ("R", gen_rows st 5 2); ("S", gen_rows st 3 1) ] in
  let db0 = render_db !model in
  let store = Session.create () in
  let q1 = Parser.query_exn q_bool and q2 = Parser.query_exn q_diff in
  (match Session.get store ~schema:schema_text ~db:db0 with
  | Error msg -> Alcotest.failf "seed %d: load: %s" seed msg
  | Ok _ -> ());
  let folded = ref (Result.get_ok (Session.get store ~schema:schema_text ~db:db0)).Session.inst in
  for step = 1 to 4 do
    let action, name, tuple = gen_update st !model in
    (match
       Session.update store ~schema:schema_text ~db:db0 ~action
         ~relation:name ~tuple
     with
    | Error msg -> Alcotest.failf "seed %d: update: %s" seed msg
    | Ok (_, generation) ->
        check int_t "generation counts acknowledged updates" step generation);
    model := apply_model !model action name tuple;
    folded :=
      (match action with
      | Session.Insert -> Instance.add_tuple name tuple !folded
      | Session.Delete -> Instance.remove_tuple name tuple !folded);
    let entry = Result.get_ok (Session.get store ~schema:schema_text ~db:db0) in
    let live = entry.Session.inst in
    check bool_t "live instance = folded instance" true
      (Instance.equal live !folded);
    (* the rebuilt session: fresh store keyed by the updated text *)
    let fresh_store = Session.create () in
    let fresh =
      Result.get_ok
        (Session.get fresh_store ~schema:schema_text ~db:(render_db !model))
    in
    check bool_t "live instance = reparsed instance" true
      (Instance.equal live fresh.Session.inst);
    (* certain answers (class sweep on the session's kernel db) *)
    check string_t "certain answers identical"
      (rel_string
         (Incomplete.Certain.certain_answers ~jobs ~cache:fresh.Session.cache
            fresh.Session.inst q2))
      (rel_string
         (Incomplete.Certain.certain_answers ~jobs ~cache:entry.Session.cache
            live q2));
    (* µ^k series (odometer sweep on the delta-maintained kernel db) *)
    check string_t "mu_k series identical"
      (series_string
         (Support.mu_k_series ~jobs ~cache:fresh.Session.cache
            fresh.Session.inst q1 Tuple.empty ~ks:[ 2; 3 ]))
      (series_string
         (Support.mu_k_series ~jobs ~cache:entry.Session.cache live q1
            Tuple.empty ~ks:[ 2; 3 ]));
    (* seeded approx, plain and stratified samplers *)
    let approx_string (e : AE.t) =
      Printf.sprintf "%s %s %s %s" (Rat.to_string e.AE.estimate)
        (Rat.to_string e.AE.ci_lo) (Rat.to_string e.AE.ci_hi)
        (match e.AE.stratified with
        | None -> "-"
        | Some s -> Rat.to_string s.AE.s_estimate)
    in
    let approx (e : Session.entry) inst =
      approx_string
        (AE.mu_k ~jobs ~cache:e.Session.cache ~stratify:true inst q1
           Tuple.empty ~k:5 ~eps:(Rat.of_ints 1 4) ~delta:(Rat.of_ints 1 4)
           ~seed)
    in
    check string_t "seeded approx identical" (approx fresh fresh.Session.inst)
      (approx entry live);
    (* conditional, chase path: resumed memo vs from-scratch chase *)
    check string_t "conditional chase identical"
      (Rat.to_string (Zeroone.Conditional.mu_cond_fds fds_r fresh.Session.inst q1 Tuple.empty))
      (Rat.to_string
         (Zeroone.Conditional.mu_cond_chased
            (Session.chase_outcome entry ~inst:live fds_r)
            q1 Tuple.empty))
  done

let test_oracle_jobs_1 () = List.iter (oracle_one_seed ~jobs:1) seeds

let test_oracle_jobs_2_4 () =
  (* the parallel sweeps share the persistent pool; a shorter seed run
     per jobs keeps the suite quick while still crossing domains *)
  List.iter
    (fun jobs ->
      List.iter (oracle_one_seed ~jobs) (List.filteri (fun i _ -> i < 60) seeds))
    [ 2; 4 ]

(* --- session update validation ------------------------------------- *)

let test_session_update_errors () =
  let store = Session.create () in
  let db = "R = { ('g0', 'g1') }; S = { }" in
  let expect_err label action relation tuple needle =
    match
      Session.update store ~schema:schema_text ~db ~action ~relation ~tuple
    with
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error msg ->
        check bool_t (label ^ " diagnostic") true (contains msg needle)
  in
  let t01 = Tuple.of_list [ const_pool.(0); const_pool.(1) ] in
  expect_err "unknown relation" Session.Insert "T" t01 "unknown relation";
  expect_err "arity mismatch" Session.Insert "S" t01 "arity";
  expect_err "delete absent" Session.Delete "S"
    (Tuple.of_list [ const_pool.(2) ])
    "not in";
  expect_err "duplicate insert" Session.Insert "R" t01 "already";
  (* and none of those left the session corrupted *)
  let entry = Result.get_ok (Session.get store ~schema:schema_text ~db) in
  check int_t "R untouched" 1
    (Relation.cardinal (Instance.relation entry.Session.inst "R"));
  (* a refused update is not counted: the first accepted one is 1 *)
  match
    Session.update store ~schema:schema_text ~db ~action:Session.Delete
      ~relation:"R" ~tuple:t01
  with
  | Ok (_, generation) -> check int_t "first accepted generation" 1 generation
  | Error msg -> Alcotest.failf "valid delete refused: %s" msg

(* --- store behaviour: LRU + load counting -------------------------- *)

let test_session_lru_touch () =
  let s = Session.create ~max_sessions:2 () in
  let db_b = "R = { }; S = { ('g0') }" in
  let db_c = "R = { }; S = { ('g1') }" in
  let e_a = Result.get_ok (Session.get s ~schema:schema_text ~db:"R = { }; S = { }") in
  ignore (Result.get_ok (Session.get s ~schema:schema_text ~db:db_b));
  (* touch A: under FIFO it would still be evicted next; under LRU the
     untouched B goes instead *)
  ignore (Result.get_ok (Session.get s ~schema:schema_text ~db:"R = { }; S = { }"));
  ignore (Result.get_ok (Session.get s ~schema:schema_text ~db:db_c));
  check int_t "capped" 2 (Session.count s);
  let e_a' = Result.get_ok (Session.get s ~schema:schema_text ~db:"R = { }; S = { }") in
  check bool_t "recently-used session survived" true (e_a == e_a');
  let e_b' = Result.get_ok (Session.get s ~schema:schema_text ~db:db_b) in
  check bool_t "least-recently-used session was evicted" false
    (e_b' == e_a')

let test_session_load_race_counts_once () =
  Obs.Metrics.enable ();
  let s = Session.create () in
  let before = Obs.Metrics.value Obs.Metrics.serve_session_loads in
  let barrier = Atomic.make 0 in
  let worker () =
    Atomic.incr barrier;
    while Atomic.get barrier < 4 do Domain.cpu_relax () done;
    Result.get_ok (Session.get s ~schema:schema_text ~db:"R = { ('g0', ~1) }; S = { }")
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let entries = List.map Domain.join domains in
  (match entries with
  | e :: rest ->
      List.iter
        (fun e' -> check bool_t "all racers share one entry" true (e == e'))
        rest
  | [] -> assert false);
  check int_t "exactly one load counted"
    (before + 1)
    (Obs.Metrics.value Obs.Metrics.serve_session_loads)

let () =
  Alcotest.run "update"
    [ ( "index",
        [ Alcotest.test_case "random deltas = rebuilt index" `Quick
            test_index_incremental;
          Alcotest.test_case "delta validation" `Quick test_index_delta_errors
        ] );
      ( "split",
        [ Alcotest.test_case "random deltas = of_instance" `Quick
            test_split_incremental;
          Alcotest.test_case "delta validation" `Quick test_split_delta_errors
        ] );
      ( "chase",
        [ Alcotest.test_case "resumed chase = from-scratch chase" `Quick
            test_chase_inc_agrees
        ] );
      ( "oracle",
        [ Alcotest.test_case "update path = rebuild, jobs 1 (220 seeds)"
            `Quick test_oracle_jobs_1;
          Alcotest.test_case "update path = rebuild, jobs 2 and 4" `Quick
            test_oracle_jobs_2_4
        ] );
      ( "session",
        [ Alcotest.test_case "update validation" `Quick
            test_session_update_errors;
          Alcotest.test_case "LRU keeps the touched session" `Quick
            test_session_lru_touch;
          Alcotest.test_case "racing loads count once" `Quick
            test_session_load_race_counts_once
        ] )
    ]

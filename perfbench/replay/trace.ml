(* The traced per-layer replay of one workload's request stream.

   Usage: trace.exe --warmup F --stream F --period N --budget S
                    --spans F --responses F --summary F

   WARMUP holds the workload's distinct request lines in warm-up order;
   STREAM holds indices into it, one per line, in replay order. After
   one untimed warm-up pass through Service.handle, the same session
   store replays the stream three times:

   A. Service.handle on each request, timed one by one, tracing and
      metrics off. Its responses go to RESPONSES so that run.py can
      check them against the references, and its per-request times give
      the in-process latency the daemon overhead is measured against.
      A stops at the first multiple of PERIOD requests after BUDGET
      seconds: a whole number of periods returns every stateful
      (update) session to the state it started in, so B and C see the
      same store A saw.
   B. The mirror below over the same requests, with an Obs.Trace sink
      on SPANS and Obs.Metrics enabled; the counter deltas across B go
      to SUMMARY.
   C. The mirror again with both off. B minus C is the tracing
      overhead.

   The mirror restates Service's dispatch (lib/server/service.ml) so
   that each call into a layer's public function can be wrapped in a
   span from this file; nothing in lib/ is instrumented. Every mirrored
   response is compared with A's bytes (generation stamps blanked), so
   a mirror that drifts from Service is reported as mirror_mismatches
   rather than silently timing something else. *)

module W = Server.Wire
module Session = Server.Session
module Instance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Query = Logic.Query
module Parser = Logic.Parser
module F = Logic.Formula
module R = Arith.Rat
module P = Arith.Poly
module AE = Approx_measure.Estimator
module Decomp = Analysis.Decomp
module Metrics = Obs.Metrics

(* Benchmark spans carry a "layer." prefix: the library emits spans of
   its own (e.g. "analysis.decomp"), which nest inside these. *)
let layer name f = Obs.Trace.span ("layer." ^ name) f
let ( let* ) = Result.bind

(* Valuations checked inside the timed sweeps, for ns per valuation. *)
let sweep_valuations = ref 0
let cond_sweep_valuations = ref 0

let counting acc f =
  let v0 = Metrics.value Metrics.valuations_evaluated in
  let r = f () in
  acc := !acc + (Metrics.value Metrics.valuations_evaluated - v0);
  r

(* ------------------------------------------------------------------ *)
(* The mirror of Service.run                                           *)
(* ------------------------------------------------------------------ *)

let require req name =
  match W.str_field req name with
  | Some s -> Ok s
  | None -> Error (W.Bad_request, Printf.sprintf "missing field %S" name)

let parse_query schema req =
  let* s = require req "query" in
  layer "logic.parser.query" @@ fun () ->
  match Parser.query s with
  | Error msg -> Error (W.Bad_request, "query: " ^ msg)
  | Ok q -> (
      match Query.well_formed schema q with
      | Ok () -> Ok q
      | Error msg -> Error (W.Bad_request, "ill-formed query: " ^ msg))

let get_session sessions req =
  let* schema = require req "schema" in
  let* db = require req "db" in
  layer "server.session.get" @@ fun () ->
  match Session.get sessions ~schema ~db with
  | Ok entry -> Ok entry
  | Error msg -> Error (W.Bad_request, msg)

let parse_tuple s =
  layer "logic.parser.tuple" @@ fun () ->
  match Parser.tuple s with
  | Ok t -> Ok t
  | Error msg -> Error (W.Bad_request, "tuple: " ^ msg)

let get_tuple req q =
  match W.str_field req "tuple" with
  | Some s -> parse_tuple s
  | None ->
      if Query.arity q = 0 then Ok Tuple.empty
      else Error (W.Bad_request, "non-Boolean query needs a \"tuple\" field")

let get_deps schema req =
  let* s = require req "constraints" in
  layer "constraints.dep_parser" @@ fun () ->
  match Constraints.Dep_parser.parse schema s with
  | Ok deps -> Ok deps
  | Error msg -> Error (W.Bad_request, "constraints: " ^ msg)

let get_ks req =
  match W.str_field req "ks" with
  | None -> Ok None
  | Some s -> (
      let parts =
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      in
      match List.map int_of_string parts with
      | [] -> Error (W.Bad_request, "empty \"ks\" field")
      | ks -> Ok (Some ks)
      | exception _ ->
          Error (W.Bad_request, Printf.sprintf "invalid \"ks\" field %S" s))

let space_error ~nulls k size =
  Error
    ( W.Bad_request,
      Printf.sprintf
        "k = %d over %d nulls gives a valuation space of %s valuations; too \
         large to enumerate"
        k (List.length nulls)
        (Arith.Bigint.to_string size) )

let check_space ~nulls ks =
  List.fold_left
    (fun acc k ->
      let* () = acc in
      match Incomplete.Enumerate.space_size_exn ~nulls ~k with
      | _ -> Ok ()
      | exception Arith.Bigint.Overflow size -> space_error ~nulls k size)
    (Ok ()) ks

let check_space_plan ~plan ks =
  List.fold_left
    (fun acc k ->
      let* () = acc in
      let rec comps i = function
        | [] -> Ok ()
        | c :: cs -> (
            let cn = c.Incomplete.Factor.c_nulls in
            match Incomplete.Enumerate.space_size_exn ~nulls:cn ~k with
            | _ -> comps (i + 1) cs
            | exception Arith.Bigint.Overflow size ->
                Error
                  ( W.Bad_request,
                    Printf.sprintf
                      "k = %d gives component %d (%d nulls) a space of %s \
                       valuations; too large to enumerate even factorized"
                      k (i + 1) (List.length cn)
                      (Arith.Bigint.to_string size) ))
      in
      comps 1 plan.Incomplete.Factor.components)
    (Ok ()) ks

let precheck ?deps ?tuple schema inst q =
  layer "analysis.report.precheck" @@ fun () ->
  let report = Analysis.Report.analyze ~inst ?deps ?tuple schema q in
  if not (Analysis.Report.has_errors report) then Ok ()
  else
    let codes =
      Analysis.Report.all_diags report
      |> List.filter (fun d -> d.Analysis.Diag.severity = Analysis.Diag.Error)
      |> List.map (fun d -> d.Analysis.Diag.code)
      |> List.sort_uniq String.compare
    in
    Error (W.Analysis_error, "static analysis failed: " ^ String.concat " " codes)

let rel_string rel =
  String.concat "; "
    (List.sort String.compare (List.map Tuple.to_string (Relation.to_list rel)))

let series_string series =
  String.concat ";"
    (List.map (fun (k, v) -> Printf.sprintf "%d=%s" k (R.to_string v)) series)

let run_certain ~sessions req =
  let* entry = get_session sessions req in
  let inst = entry.Session.inst and cache = entry.Session.cache in
  let* q = parse_query entry.Session.schema req in
  let* () = precheck entry.Session.schema inst q in
  let certain =
    layer "incomplete.certain.certain" @@ fun () ->
    Incomplete.Certain.certain_answers ~cache inst q
  in
  let possible =
    layer "incomplete.certain.possible" @@ fun () ->
    Incomplete.Certain.possible_answers ~cache inst q
  in
  let naive = layer "incomplete.naive" @@ fun () -> Incomplete.Naive.answers inst q in
  Ok
    [ ("certain", W.S (rel_string certain));
      ("certain_count", W.I (Relation.cardinal certain));
      ("possible", W.S (rel_string possible));
      ("possible_count", W.I (Relation.cardinal possible));
      ("naive", W.S (rel_string naive));
      ("naive_count", W.I (Relation.cardinal naive))
    ]

let run_measure ~sessions req =
  let* entry = get_session sessions req in
  let inst = entry.Session.inst and cache = entry.Session.cache in
  let* q = parse_query entry.Session.schema req in
  let* tuple = get_tuple req q in
  let* () = precheck ~tuple entry.Session.schema inst q in
  let sp =
    layer "zeroone.support_poly" @@ fun () ->
    Zeroone.Support_poly.of_query inst q tuple
  in
  let mu, verdict =
    layer "zeroone.measure" @@ fun () ->
    ( Zeroone.Measure.mu_symbolic inst q tuple,
      Format.asprintf "%a" Zeroone.Measure.pp_verdict
        (Zeroone.Measure.mu inst q tuple) )
  in
  let* ks = get_ks req in
  let* series =
    match ks with
    | None -> Ok []
    | Some ks -> (
        let nulls =
          List.sort_uniq Int.compare (Instance.nulls inst @ Tuple.nulls tuple)
        in
        let cert =
          layer "analysis.decomp" @@ fun () ->
          let kc = List.fold_left max 1 ks in
          let d =
            Decomp.analyze ~k:kc ~extra_nulls:(Tuple.nulls tuple) inst
              (Query.instantiate q tuple)
          in
          match (d.Decomp.verdict, Decomp.plan d) with
          | Decomp.Decomposable, Some p -> Some (d, p)
          | _ -> None
        in
        match cert with
        | Some (d, plan) ->
            let* () = check_space_plan ~plan ks in
            let series =
              layer "incomplete.support.sweep" @@ fun () ->
              counting sweep_valuations @@ fun () ->
              Incomplete.Support.mu_k_series_plan ~cache inst plan ~ks
            in
            Ok
              [ ("series", W.S (series_string series));
                ("decomp_parts", W.I (Decomp.parts d));
                ("decomp_sizes", W.S (Decomp.sizes_string d))
              ]
        | None ->
            let* () = check_space ~nulls ks in
            let series =
              layer "incomplete.support.sweep" @@ fun () ->
              counting sweep_valuations @@ fun () ->
              Incomplete.Support.mu_k_series ~cache inst q tuple ~ks
            in
            Ok [ ("series", W.S (series_string series)) ])
  in
  Ok
    ([ ("supp_poly", W.S (P.to_string sp));
       ("nulls", W.I (Instance.null_count inst));
       ("mu", W.S (R.to_string mu));
       ("verdict", W.S verdict)
     ]
    @ series)

let run_conditional ~sessions req =
  let* entry = get_session sessions req in
  let inst = entry.Session.inst and cache = entry.Session.cache in
  let sch = entry.Session.schema in
  let* q = parse_query sch req in
  let* deps = get_deps sch req in
  let* tuple = get_tuple req q in
  let* () = precheck ~deps ~tuple sch inst q in
  let sigma = Constraints.Dependency.set_to_formula sch deps in
  let report =
    layer "zeroone.conditional.report" @@ fun () ->
    Zeroone.Conditional.mu_cond_report ~cache ~sigma inst q tuple
  in
  let strategy = Zeroone.Conditional.strategy deps tuple in
  let chase =
    match strategy with
    | Zeroone.Conditional.Chase_fds ->
        let fds = Constraints.Dependency.fds_of_schema sch deps in
        let outcome =
          layer "constraints.chase" @@ fun () ->
          Session.chase_outcome entry ~inst fds
        in
        let v =
          layer "zeroone.conditional.chased" @@ fun () ->
          Zeroone.Conditional.mu_cond_chased outcome q tuple
        in
        [ ("chase", W.S (R.to_string v)) ]
    | Zeroone.Conditional.Symbolic -> []
  in
  let* ks = get_ks req in
  let* series =
    match ks with
    | None -> Ok []
    | Some ks -> (
        let nulls =
          List.sort_uniq Int.compare
            (Instance.nulls inst @ Tuple.nulls tuple @ F.nulls sigma)
        in
        let plans, parts =
          layer "analysis.decomp" @@ fun () ->
          let kc = List.fold_left max 1 ks in
          let dnum, dden =
            Zeroone.Conditional.cond_decomp ~k:kc ~sigma inst q tuple
          in
          let decomposable d =
            match d.Decomp.verdict with
            | Decomp.Decomposable -> true
            | _ -> false
          in
          let plans =
            if decomposable dnum || decomposable dden then
              match (Decomp.plan dnum, Decomp.plan dden) with
              | Some np, Some dp -> Some (np, dp)
              | _ -> None
            else None
          in
          (plans, Decomp.parts dnum + Decomp.parts dden)
        in
        match plans with
        | Some (num_plan, den_plan) ->
            let* () = check_space_plan ~plan:num_plan ks in
            let* () = check_space_plan ~plan:den_plan ks in
            let series =
              layer "zeroone.conditional.sweep" @@ fun () ->
              counting cond_sweep_valuations @@ fun () ->
              List.map
                (fun k ->
                  ( k,
                    Zeroone.Conditional.mu_cond_k_plans ~cache ~num_plan
                      ~den_plan inst ~k ))
                ks
            in
            Ok
              [ ("series", W.S (series_string series));
                ("decomp_parts", W.I parts)
              ]
        | None ->
            let* () = check_space ~nulls ks in
            let series =
              layer "zeroone.conditional.sweep" @@ fun () ->
              counting cond_sweep_valuations @@ fun () ->
              List.map
                (fun k ->
                  (k, Zeroone.Conditional.mu_cond_k ~cache ~sigma inst q tuple ~k))
                ks
            in
            Ok [ ("series", W.S (series_string series)) ])
  in
  Ok
    ([ ("numerator", W.S (P.to_string report.Zeroone.Conditional.numerator));
       ("denominator", W.S (P.to_string report.Zeroone.Conditional.denominator));
       ("value", W.S (R.to_string report.Zeroone.Conditional.value));
       ( "strategy",
         W.S
           (match strategy with
           | Zeroone.Conditional.Chase_fds -> "chase_fds"
           | Zeroone.Conditional.Symbolic -> "symbolic") )
     ]
    @ chase @ series)

let get_prob req name =
  let* s = require req name in
  match AE.rat_of_string s with
  | Ok v ->
      if R.compare v R.zero > 0 && R.compare v R.one < 0 then Ok v
      else
        Error
          (W.Bad_request, Printf.sprintf "%s must lie strictly between 0 and 1" name)
  | Error msg -> Error (W.Bad_request, Printf.sprintf "%s: %s" name msg)

let run_approx ~sessions req =
  let* entry = get_session sessions req in
  let* q = parse_query entry.Session.schema req in
  let* tuple = get_tuple req q in
  let* k =
    match W.int_field req "k" with
    | Some k when k >= 1 -> Ok k
    | Some _ -> Error (W.Bad_request, "k must be >= 1")
    | None -> Error (W.Bad_request, "missing field \"k\"")
  in
  let* eps = get_prob req "eps" in
  let* delta = get_prob req "delta" in
  let seed = Option.value ~default:0 (W.int_field req "seed") in
  let stratify =
    match W.int_field req "stratify" with Some n -> n > 0 | None -> false
  in
  let inst = entry.Session.inst and cache = entry.Session.cache in
  match W.str_field req "constraints" with
  | Some _ ->
      let* deps = get_deps entry.Session.schema req in
      let* () = precheck ~deps ~tuple entry.Session.schema inst q in
      let sigma = Constraints.Dependency.set_to_formula entry.Session.schema deps in
      let r =
        layer "approx_measure.estimator" @@ fun () ->
        AE.mu_cond_k ~cache ~sigma inst q tuple ~k ~eps ~delta ~seed
      in
      Ok
        [ ("estimate", W.S (R.to_string r.AE.c_estimate));
          ("ci_lo", W.S (R.to_string r.AE.c_ci_lo));
          ("ci_hi", W.S (R.to_string r.AE.c_ci_hi));
          ("samples", W.I r.AE.c_samples);
          ("seed", W.I r.AE.c_seed);
          ("hits_num", W.I r.AE.c_hits_num);
          ("hits_den", W.I r.AE.c_hits_den)
        ]
  | None ->
      let* () = precheck ~tuple entry.Session.schema inst q in
      let r =
        layer "approx_measure.estimator" @@ fun () ->
        AE.mu_k ~cache ~stratify inst q tuple ~k ~eps ~delta ~seed
      in
      let stratified =
        match r.AE.stratified with
        | None -> []
        | Some s ->
            [ ("stratified", W.S (R.to_string s.AE.s_estimate));
              ("stratified_ci_lo", W.S (R.to_string s.AE.s_ci_lo));
              ("stratified_ci_hi", W.S (R.to_string s.AE.s_ci_hi));
              ("stratified_samples", W.I s.AE.s_samples);
              ("strata", W.I s.AE.s_strata)
            ]
      in
      Ok
        ([ ("estimate", W.S (R.to_string r.AE.estimate));
           ("ci_lo", W.S (R.to_string r.AE.ci_lo));
           ("ci_hi", W.S (R.to_string r.AE.ci_hi));
           ("samples", W.I r.AE.samples);
           ("seed", W.I r.AE.seed);
           ("hits", W.I r.AE.hits)
         ]
        @ stratified)

let run_update ~sessions req =
  let* schema = require req "schema" in
  let* db = require req "db" in
  let* action =
    let* s = require req "action" in
    match s with
    | "insert" -> Ok Session.Insert
    | "delete" -> Ok Session.Delete
    | other ->
        Error
          ( W.Bad_request,
            Printf.sprintf "unknown action %S (want insert or delete)" other )
  in
  let* relation = require req "relation" in
  let* tuple =
    let* s = require req "tuple" in
    parse_tuple s
  in
  match
    layer "server.session.update" @@ fun () ->
    Session.update sessions ~schema ~db ~action ~relation ~tuple
  with
  | Error msg -> Error (W.Bad_request, msg)
  | Ok (entry, generation) ->
      let inst = entry.Session.inst in
      Ok
        [ ( "applied",
            W.S
              (match action with
              | Session.Insert -> "insert"
              | Session.Delete -> "delete") );
          ("relation", W.S relation);
          ("generation", W.I generation);
          ("cardinality", W.I (Relation.cardinal (Instance.relation inst relation)));
          ("nulls", W.I (Instance.null_count inst))
        ]

let scheme_of_name = function
  | "sql" -> Ok Zeroone.Approx.sql_scheme
  | "naive" -> Ok (fun d q -> Incomplete.Naive.answers d q)
  | "naive-null-free" -> Ok Zeroone.Approx.naive_null_free_scheme
  | other -> Error (W.Bad_request, Printf.sprintf "unknown scheme %S" other)

let run_analyze ~sessions req =
  let* sch, inst =
    if W.str_field req "db" <> None then
      let* entry = get_session sessions req in
      Ok (entry.Session.schema, Some entry.Session.inst)
    else
      let* s = require req "schema" in
      match Parser.schema s with
      | Ok sch -> Ok (sch, None)
      | Error msg -> Error (W.Bad_request, "schema: " ^ msg)
  in
  let* qs = require req "query" in
  let* q =
    layer "logic.parser.query" @@ fun () ->
    match Parser.query qs with
    | Ok q -> Ok q
    | Error msg -> Error (W.Bad_request, "query: " ^ msg)
  in
  let* deps =
    match W.str_field req "constraints" with
    | None -> Ok None
    | Some _ ->
        let* deps = get_deps sch req in
        Ok (Some deps)
  in
  let* tuple =
    match W.str_field req "tuple" with
    | None -> Ok None
    | Some s ->
        let* t = parse_tuple s in
        Ok (Some t)
  in
  let k = W.int_field req "domain_size" in
  let errors, report_json =
    layer "analysis.report.analyze" @@ fun () ->
    let report = Analysis.Report.analyze ?inst ?deps ?tuple ?k sch q in
    ( Analysis.Diag.count Analysis.Diag.Error (Analysis.Report.all_diags report),
      Analysis.Report.to_json report )
  in
  let* approx =
    match W.str_field req "scheme" with
    | None -> Ok []
    | Some name -> (
        let* scheme = scheme_of_name name in
        match inst with
        | None -> Error (W.Bad_request, "grading a scheme needs a \"db\" field")
        | Some inst ->
            layer "zeroone.approx.grade" @@ fun () ->
            let r = Zeroone.Approx.evaluate scheme inst q in
            Ok
              [ ("scheme", W.S name);
                ("returned", W.S (rel_string r.Zeroone.Approx.returned));
                ("missed", W.S (rel_string r.Zeroone.Approx.missed));
                ("spurious_benign", W.S (rel_string r.Zeroone.Approx.spurious_benign));
                ( "spurious_harmful",
                  W.S (rel_string r.Zeroone.Approx.spurious_harmful) );
                ("recall", W.S (R.to_string (Zeroone.Approx.recall r)));
                ("precision", W.S (R.to_string (Zeroone.Approx.precision r)));
                ("sound", W.B (Zeroone.Approx.sound r));
                ("complete", W.B (Zeroone.Approx.complete r))
              ])
  in
  Ok ([ ("errors", W.I errors); ("report", W.Raw report_json) ] @ approx)

let run ~sessions req =
  match req.W.op with
  | "certain" -> run_certain ~sessions req
  | "measure" -> run_measure ~sessions req
  | "conditional" -> run_conditional ~sessions req
  | "approx" -> run_approx ~sessions req
  | "analyze" -> run_analyze ~sessions req
  | "update" -> run_update ~sessions req
  | op -> Error (W.Unsupported_op, Printf.sprintf "unsupported op %S" op)

(* Service.handle's exception mapping, around the mirror. *)
let mirror ~sessions seq line =
  Obs.Trace.span "replay.request" ~attrs:[ ("seq", string_of_int seq) ]
  @@ fun () ->
  match layer "server.wire.parse" (fun () -> W.parse_request line) with
  | Error msg ->
      layer "server.wire.render" @@ fun () ->
      W.error_line ~id:None W.Parse_error msg
  | Ok req ->
      let outcome =
        match run ~sessions req with
        | outcome -> outcome
        | exception Arith.Bigint.Overflow size ->
            Error
              ( W.Bad_request,
                Printf.sprintf "valuation space of %s valuations; too large"
                  (Arith.Bigint.to_string size) )
        | exception e -> Error (W.Internal_error, Printexc.to_string e)
      in
      layer "server.wire.render" @@ fun () -> Respond.line_of_outcome req outcome

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

(* Update responses carry a process-global generation stamp. *)
let blank_generation line =
  let pat = "\"generation\":" in
  let n = String.length line and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = pat then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some j ->
      let k = ref j in
      while !k < n && line.[!k] >= '0' && line.[!k] <= '9' do incr k done;
      String.sub line 0 j ^ "_" ^ String.sub line !k (n - !k)

let now () = Int64.to_int (Obs.Clock.now_ns ())

let counter_json (snap : Metrics.snapshot) (before : Metrics.snapshot) =
  String.concat ","
    (List.map
       (fun (name, v) ->
         let v0 = Option.value ~default:0 (List.assoc_opt name before.counters) in
         Printf.sprintf "\"%s\":%d" (Obs.Json.escape name) (v - v0))
       snap.Metrics.counters)

let () =
  let warmup = ref "" and stream = ref "" and spans = ref "" in
  let responses = ref "" and summary = ref "" in
  let period = ref 1 and budget = ref 1.0 in
  Arg.parse
    [ ("--warmup", Arg.Set_string warmup, "FILE distinct request lines");
      ("--stream", Arg.Set_string stream, "FILE indices into the warm-up lines");
      ("--period", Arg.Set_int period, "N pass A stops at a multiple of N");
      ("--budget", Arg.Set_float budget, "S seconds pass A runs for");
      ("--spans", Arg.Set_string spans, "FILE span output of pass B");
      ("--responses", Arg.Set_string responses, "FILE pass A responses");
      ("--summary", Arg.Set_string summary, "FILE JSON summary")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "trace.exe: traced per-layer replay";
  let lines = Respond.read_lines !warmup in
  let order =
    Array.map (fun s -> lines.(int_of_string s)) (Respond.read_lines !stream)
  in
  let sessions = Server.Session.create () in
  Array.iter (fun l -> ignore (Respond.handle ~sessions l)) lines;
  (* A *)
  let oc = open_out_bin !responses in
  let handle_ns = Buffer.create 4096 in
  let deadline = now () + int_of_float (!budget *. 1e9) in
  let n = ref 0 in
  let last = Array.length order in
  while !n < last && not (now () >= deadline && !n mod !period = 0) do
    let t0 = now () in
    let resp = Respond.handle ~sessions order.(!n) in
    let dt = now () - t0 in
    if !n > 0 then Buffer.add_char handle_ns ',';
    Buffer.add_string handle_ns (string_of_int dt);
    output_string oc resp;
    output_char oc '\n';
    incr n
  done;
  close_out oc;
  let n = !n in
  let expected = Respond.read_lines !responses in
  let mismatches = ref 0 and first_mismatch = ref "" in
  let pass ~check =
    let t0 = now () in
    for i = 0 to n - 1 do
      let got = mirror ~sessions i order.(i) in
      if check
         && not
              (String.equal (blank_generation got) (blank_generation expected.(i)))
      then begin
        if !mismatches = 0 then first_mismatch := got;
        incr mismatches
      end
    done;
    now () - t0
  in
  (* B *)
  let before = Metrics.snapshot () in
  Metrics.enable ();
  Obs.Trace.enable_file !spans;
  let traced_ns = pass ~check:true in
  Obs.Trace.close ();
  Metrics.disable ();
  let after = Metrics.snapshot () in
  (* C *)
  let untraced_ns = pass ~check:false in
  let span_check =
    match Obs.Trace.validate_file !spans with
    | Ok k -> Printf.sprintf "\"span_count\":%d,\"span_error\":null" k
    | Error msg ->
        Printf.sprintf "\"span_count\":0,\"span_error\":\"%s\"" (Obs.Json.escape msg)
  in
  let oc = open_out_bin !summary in
  Printf.fprintf oc
    "{\"requests\":%d,\"handle_ns\":[%s],\"traced_ns\":%d,\"untraced_ns\":%d,\
     \"mirror_mismatches\":%d,\"first_mismatch\":\"%s\",%s,\
     \"sweep_valuations\":%d,\"cond_sweep_valuations\":%d,\"counters\":{%s}}\n"
    n (Buffer.contents handle_ns) traced_ns untraced_ns !mismatches
    (Obs.Json.escape !first_mismatch)
    span_check !sweep_valuations !cond_sweep_valuations
    (counter_json after before);
  close_out oc

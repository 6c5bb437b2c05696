module Instance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Query = Logic.Query
module Parser = Logic.Parser
module R = Arith.Rat
module P = Arith.Poly
module AE = Approx_measure.Estimator
module Pipeline = Zeroone.Pipeline

exception Deadline

let ( let* ) = Result.bind

let require req name =
  match Wire.str_field req name with
  | Some s -> Ok s
  | None -> Error (Wire.Bad_request, Printf.sprintf "missing field %S" name)

let parse_query s =
  match Parser.query s with
  | Ok q -> Ok q
  | Error msg -> Error (Wire.Bad_request, "query: " ^ msg)

let well_formed schema q =
  match Query.well_formed schema q with
  | Ok () -> Ok ()
  | Error msg -> Error (Wire.Bad_request, "ill-formed query: " ^ msg)

(* A request names its session by the (schema, db) texts or by their
   digest in a [session] field, never both. The name is checked apart
   from the lookup so that [update] reports a missing field of its own
   before a parse error in the texts. *)
type session_name = Text of string * string | Digest of string

let session_name req =
  match Wire.str_field req "session" with
  | Some d ->
      if Wire.str_field req "schema" <> None || Wire.str_field req "db" <> None
      then
        Error
          ( Wire.Bad_request,
            "name the session by \"session\" or by \"schema\" and \"db\", \
             not both" )
      else Ok (Digest d)
  | None ->
      let* schema = require req "schema" in
      let* db = require req "db" in
      Ok (Text (schema, db))

let lookup sessions = function
  | Text (schema, db) ->
      Result.map_error
        (fun msg -> (Wire.Bad_request, msg))
        (Session.get sessions ~schema ~db)
  | Digest d -> (
      match Session.find sessions d with
      | Some entry -> Ok entry
      | None ->
          Error
            ( Wire.Unknown_session,
              Printf.sprintf
                "unknown session %S: resend \"schema\" and \"db\"" d ))

let get_session sessions req = Result.bind (session_name req) (lookup sessions)

(* The candidate tuple: required exactly when the query is
   non-Boolean, like the CLI's --tuple. *)
let get_tuple req q =
  match Wire.str_field req "tuple" with
  | Some s -> (
      match Parser.tuple s with
      | Ok t -> Ok t
      | Error msg -> Error (Wire.Bad_request, "tuple: " ^ msg))
  | None ->
      if Query.arity q = 0 then Ok Tuple.empty
      else Error (Wire.Bad_request, "non-Boolean query needs a \"tuple\" field")

let get_deps schema req =
  let* s = require req "constraints" in
  match Constraints.Dep_parser.parse schema s with
  | Ok deps -> Ok deps
  | Error msg -> Error (Wire.Bad_request, "constraints: " ^ msg)

let get_ks req =
  match Wire.str_field req "ks" with
  | None -> Ok None
  | Some s -> (
      let parts =
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      in
      match List.map int_of_string parts with
      | [] -> Error (Wire.Bad_request, "empty \"ks\" field")
      | ks -> Ok (Some ks)
      | exception _ ->
          Error (Wire.Bad_request, Printf.sprintf "invalid \"ks\" field %S" s))

let series_string series =
  String.concat ";"
    (List.map (fun (k, v) -> Printf.sprintf "%d=%s" k (R.to_string v)) series)

(* The exact pipeline's typed refusals, as wire errors. *)
let pipeline_error = function
  | Pipeline.Negative_k k ->
      (Wire.Bad_request, Printf.sprintf "\"ks\" entries must be >= 0, got %d" k)
  | Pipeline.Unknown_null n ->
      ( Wire.Bad_request,
        Printf.sprintf
          "query mentions null ~%d, which occurs in neither the db nor the \
           tuple"
          n )

let pipeline r = Result.map_error pipeline_error r

(* The exact µ^k series of [target] when the request names ks, read off
   the census of the request's class pass, with the decomposition
   fields when the target factorizes. *)
let series_fields ~census inst target req =
  let* ks = get_ks req in
  match ks with
  | None -> Ok []
  | Some ks ->
      let* series = pipeline (Pipeline.series ~census inst target ~ks) in
      let decomp =
        match Pipeline.route inst target ~ks with
        | Pipeline.Monolithic -> []
        | Pipeline.Factorized [ d ] ->
            [ ("decomp_parts", Wire.I (Analysis.Decomp.parts d));
              ("decomp_sizes", Wire.S (Analysis.Decomp.sizes_string d))
            ]
        | Pipeline.Factorized ds ->
            [ ( "decomp_parts",
                Wire.I
                  (List.fold_left (fun n d -> n + Analysis.Decomp.parts d) 0 ds)
              )
            ]
      in
      Ok (("series", Wire.S (series_string series)) :: decomp)

(* The static-analysis gate. Unlike the CLI (which prints warnings and
   only aborts under --strict), the server always refuses queries with
   analysis errors: there is no terminal to warn on, and a typed
   response with the stable codes is more useful to a remote caller
   than a half-run evaluation. Only the query checks (ANL001–003) are
   errors, so the gate runs those alone: the decomposition and dispatch
   hints of a full report could only warn. *)
let precheck schema q =
  match
    Analysis.Safety.check_query schema q
    |> List.filter (fun d -> d.Analysis.Diag.severity = Analysis.Diag.Error)
    |> List.map (fun d -> d.Analysis.Diag.code)
    |> List.sort_uniq String.compare
  with
  | [] -> Ok ()
  | codes ->
      Error
        ( Wire.Analysis_error,
          "static analysis failed: " ^ String.concat " " codes )

(* Render in name order, not code order: relation sets iterate in
   constant-code order, and codes are process-global intern state —
   two shards that interned the same constants in a different order
   would list the same answers differently. Sorting the rendered
   strings makes the wire bytes a function of content alone, which the
   router tier's byte-identity gate depends on. *)
let rel_string rel =
  String.concat "; "
    (List.sort String.compare
       (List.map Tuple.to_string (Relation.to_list rel)))

(* ------------------------------------------------------------------ *)
(* Endpoints                                                           *)
(* ------------------------------------------------------------------ *)

let run_certain ~sessions ?jobs ?guard req =
  let* entry = get_session sessions req in
  (* One snapshot of the session state per request: a concurrent
     update swaps [entry.inst], and every derived structure is keyed
     by the snapshot's generation — so the whole response is computed
     against one consistent instance. Same in every handler below. *)
  let inst = entry.Session.inst and cache = entry.Session.cache in
  let* qs = require req "query" in
  let* q = parse_query qs in
  let* () = well_formed entry.Session.schema q in
  let* () = precheck entry.Session.schema q in
  let { Incomplete.Certain.certain; possible; naive } =
    Incomplete.Certain.answers ?jobs ?guard ~cache inst q
  in
  Ok
    [ ("certain", Wire.S (rel_string certain));
      ("certain_count", Wire.I (Relation.cardinal certain));
      ("possible", Wire.S (rel_string possible));
      ("possible_count", Wire.I (Relation.cardinal possible));
      ("naive", Wire.S (rel_string naive));
      ("naive_count", Wire.I (Relation.cardinal naive))
    ]

let run_measure ~sessions ?jobs ?guard req =
  let* entry = get_session sessions req in
  let inst = entry.Session.inst and cache = entry.Session.cache in
  let* qs = require req "query" in
  let* q = parse_query qs in
  let* () = well_formed entry.Session.schema q in
  let* tuple = get_tuple req q in
  let* () = precheck entry.Session.schema q in
  let* m = pipeline (Pipeline.measure ?jobs ?guard ~cache inst q tuple) in
  let* series =
    series_fields ~census:m.Pipeline.census inst
      (Pipeline.Answer (q, tuple))
      req
  in
  Ok
    ([ ("supp_poly", Wire.S (P.to_string m.Pipeline.supp_poly));
       ("nulls", Wire.I (Instance.null_count inst));
       ("mu", Wire.S (R.to_string m.Pipeline.mu));
       ( "verdict",
         Wire.S
           (Format.asprintf "%a" Zeroone.Measure.pp_verdict
              m.Pipeline.verdict) )
     ]
    @ series)

let run_conditional ~sessions ?jobs ?guard req =
  let* entry = get_session sessions req in
  let inst = entry.Session.inst and cache = entry.Session.cache in
  let* qs = require req "query" in
  let* q = parse_query qs in
  let* () = well_formed entry.Session.schema q in
  let* deps = get_deps entry.Session.schema req in
  let* tuple = get_tuple req q in
  let* () = precheck entry.Session.schema q in
  let sch = entry.Session.schema in
  let sigma = Constraints.Dependency.set_to_formula sch deps in
  let* report =
    pipeline (Pipeline.conditional ?jobs ?guard ~cache ~sigma inst q tuple)
  in
  let strategy = Zeroone.Conditional.strategy deps tuple in
  let chase =
    match strategy with
    | Zeroone.Conditional.Chase_fds ->
        (* The session memoizes the finished chase per FD set and
           advances it across inserts, so repeated conditional queries
           (and queries after updates) skip the fixpoint. *)
        let fds = Constraints.Dependency.fds_of_schema sch deps in
        let outcome = Session.chase_outcome entry ~inst fds in
        [ ( "chase",
            Wire.S
              (R.to_string (Zeroone.Conditional.mu_cond_chased outcome q tuple))
          )
        ]
    | Zeroone.Conditional.Symbolic -> []
  in
  let* series =
    series_fields ~census:report.Zeroone.Conditional.census inst
      (Pipeline.Given (sigma, q, tuple))
      req
  in
  Ok
    ([ ("numerator", Wire.S (P.to_string report.Zeroone.Conditional.numerator));
       ( "denominator",
         Wire.S (P.to_string report.Zeroone.Conditional.denominator) );
       ("value", Wire.S (R.to_string report.Zeroone.Conditional.value));
       ( "strategy",
         Wire.S
           (match strategy with
           | Zeroone.Conditional.Chase_fds -> "chase_fds"
           | Zeroone.Conditional.Symbolic -> "symbolic") )
     ]
    @ chase @ series)

(* The approx op: a seeded Monte-Carlo (ε,δ)-estimate of µ^k — or of
   µ^k(Q|Σ) when a "constraints" field rides along. The response is
   deterministic for a fixed seed, whatever the server's --jobs. *)

let get_prob req name =
  let* s = require req name in
  match AE.rat_of_string s with
  | Ok v ->
      if R.compare v R.zero > 0 && R.compare v R.one < 0 then Ok v
      else
        Error
          ( Wire.Bad_request,
            Printf.sprintf "%s must lie strictly between 0 and 1" name )
  | Error msg -> Error (Wire.Bad_request, Printf.sprintf "%s: %s" name msg)

let run_approx ~sessions ?jobs ?guard req =
  let* entry = get_session sessions req in
  let* qs = require req "query" in
  let* q = parse_query qs in
  let* () = well_formed entry.Session.schema q in
  let* tuple = get_tuple req q in
  let* k =
    match Wire.int_field req "k" with
    | Some k when k >= 1 -> Ok k
    | Some _ -> Error (Wire.Bad_request, "k must be >= 1")
    | None -> Error (Wire.Bad_request, "missing field \"k\"")
  in
  let* eps = get_prob req "eps" in
  let* delta = get_prob req "delta" in
  let seed = Option.value ~default:0 (Wire.int_field req "seed") in
  let stratify =
    match Wire.int_field req "stratify" with Some n -> n > 0 | None -> false
  in
  let inst = entry.Session.inst and cache = entry.Session.cache in
  match Wire.str_field req "constraints" with
  | Some _ ->
      let* deps = get_deps entry.Session.schema req in
      let* () = precheck entry.Session.schema q in
      let sigma =
        Constraints.Dependency.set_to_formula entry.Session.schema deps
      in
      let r =
        AE.mu_cond_k ?jobs ?guard ~cache ~sigma inst q tuple ~k ~eps ~delta
          ~seed
      in
      Ok
        [ ("estimate", Wire.S (R.to_string r.AE.c_estimate));
          ("ci_lo", Wire.S (R.to_string r.AE.c_ci_lo));
          ("ci_hi", Wire.S (R.to_string r.AE.c_ci_hi));
          ("samples", Wire.I r.AE.c_samples);
          ("seed", Wire.I r.AE.c_seed);
          ("hits_num", Wire.I r.AE.c_hits_num);
          ("hits_den", Wire.I r.AE.c_hits_den)
        ]
  | None ->
      let* () = precheck entry.Session.schema q in
      let r =
        AE.mu_k ?jobs ?guard ~cache ~stratify inst q tuple ~k ~eps ~delta
          ~seed
      in
      let stratified =
        match r.AE.stratified with
        | None -> []
        | Some s ->
            [ ("stratified", Wire.S (R.to_string s.AE.s_estimate));
              ("stratified_ci_lo", Wire.S (R.to_string s.AE.s_ci_lo));
              ("stratified_ci_hi", Wire.S (R.to_string s.AE.s_ci_hi));
              ("stratified_samples", Wire.I s.AE.s_samples);
              ("strata", Wire.I s.AE.s_strata)
            ]
      in
      Ok
        ([ ("estimate", Wire.S (R.to_string r.AE.estimate));
           ("ci_lo", Wire.S (R.to_string r.AE.ci_lo));
           ("ci_hi", Wire.S (R.to_string r.AE.ci_hi));
           ("samples", Wire.I r.AE.samples);
           ("seed", Wire.I r.AE.seed);
           ("hits", Wire.I r.AE.hits)
         ]
        @ stratified)

(* The update op: mutate a live session by one tuple. The session is
   addressed — like every other op — by the original (schema, db)
   texts or their digest; its state drifts away from the db text with
   each update, which is the point: later queries against the same
   pair see the updated instance without re-parsing or re-indexing
   anything. *)
let run_update ~sessions req =
  let* name = session_name req in
  let* action =
    let* s = require req "action" in
    match s with
    | "insert" -> Ok Session.Insert
    | "delete" -> Ok Session.Delete
    | other ->
        Error
          ( Wire.Bad_request,
            Printf.sprintf "unknown action %S (want insert or delete)" other )
  in
  let* relation = require req "relation" in
  let* tuple =
    let* s = require req "tuple" in
    match Parser.tuple s with
    | Ok t -> Ok t
    | Error msg -> Error (Wire.Bad_request, "tuple: " ^ msg)
  in
  let* entry = lookup sessions name in
  match Session.apply entry ~action ~relation ~tuple with
  | Error msg -> Error (Wire.Bad_request, msg)
  | Ok generation ->
      let inst = entry.Session.inst in
      Ok
        [ ("applied", Wire.S (match action with
             | Session.Insert -> "insert"
             | Session.Delete -> "delete"));
          ("relation", Wire.S relation);
          ("generation", Wire.I generation);
          ( "cardinality",
            Wire.I (Relation.cardinal (Instance.relation inst relation)) );
          ("nulls", Wire.I (Instance.null_count inst))
        ]

let scheme_of_name = function
  | "sql" -> Ok Zeroone.Approx.sql_scheme
  | "naive" -> Ok (fun d q -> Incomplete.Naive.answers d q)
  | "naive-null-free" -> Ok Zeroone.Approx.naive_null_free_scheme
  | other ->
      Error (Wire.Bad_request, Printf.sprintf "unknown scheme %S" other)

let parse_schema s =
  match Parser.schema s with
  | Ok sch -> Ok sch
  | Error msg -> Error (Wire.Bad_request, "schema: " ^ msg)

let run_analyze ~sessions req =
  let has_db =
    Wire.str_field req "db" <> None || Wire.str_field req "session" <> None
  in
  let* sch, inst =
    if has_db then
      let* entry = get_session sessions req in
      Ok (entry.Session.schema, Some entry.Session.inst)
    else
      let* s = require req "schema" in
      let* sch = parse_schema s in
      Ok (sch, None)
  in
  let* qs = require req "query" in
  let* q = parse_query qs in
  let* deps =
    match Wire.str_field req "constraints" with
    | None -> Ok None
    | Some _ ->
        let* deps = get_deps sch req in
        Ok (Some deps)
  in
  let* tuple =
    match Wire.str_field req "tuple" with
    | None -> Ok None
    | Some s -> (
        match Parser.tuple s with
        | Ok t -> Ok (Some t)
        | Error msg -> Error (Wire.Bad_request, "tuple: " ^ msg))
  in
  let k = Wire.int_field req "domain_size" in
  let report = Analysis.Report.analyze ?inst ?deps ?tuple ?k sch q in
  let errors =
    Analysis.Diag.count Analysis.Diag.Error (Analysis.Report.all_diags report)
  in
  (* Satellite: the analyze endpoint doubles as the approximation
     grader — with a scheme (and a db to run it on) it reuses the same
     Zeroone.Approx evaluation as 'certainty approx'. *)
  let* approx =
    match Wire.str_field req "scheme" with
    | None -> Ok []
    | Some name -> (
        let* scheme = scheme_of_name name in
        match inst with
        | None ->
            Error (Wire.Bad_request, "grading a scheme needs a \"db\" field")
        | Some inst ->
            let r = Zeroone.Approx.evaluate scheme inst q in
            Ok
              [ ("scheme", Wire.S name);
                ("returned", Wire.S (rel_string r.Zeroone.Approx.returned));
                ("missed", Wire.S (rel_string r.Zeroone.Approx.missed));
                ( "spurious_benign",
                  Wire.S (rel_string r.Zeroone.Approx.spurious_benign) );
                ( "spurious_harmful",
                  Wire.S (rel_string r.Zeroone.Approx.spurious_harmful) );
                ("recall", Wire.S (R.to_string (Zeroone.Approx.recall r)));
                ("precision", Wire.S (R.to_string (Zeroone.Approx.precision r)));
                ("sound", Wire.B (Zeroone.Approx.sound r));
                ("complete", Wire.B (Zeroone.Approx.complete r))
              ])
  in
  Ok
    ([ ("errors", Wire.I errors);
       ("report", Wire.Raw (Analysis.Report.to_json report))
     ]
    @ approx)

let run ~sessions ?jobs ?guard req =
  match req.Wire.op with
  | "certain" -> run_certain ~sessions ?jobs ?guard req
  | "measure" -> run_measure ~sessions ?jobs ?guard req
  | "conditional" -> run_conditional ~sessions ?jobs ?guard req
  | "approx" -> run_approx ~sessions ?jobs ?guard req
  | "analyze" -> run_analyze ~sessions req
  | "update" -> run_update ~sessions req
  | op -> Error (Wire.Unsupported_op, Printf.sprintf "unsupported op %S" op)

let handle ~sessions ?jobs ?guard req =
  match run ~sessions ?jobs ?guard req with
  | outcome -> outcome
  | exception Deadline -> Error (Wire.Deadline_exceeded, "deadline exceeded")
  | exception Arith.Bigint.Overflow size ->
      Error
        ( Wire.Bad_request,
          Printf.sprintf "valuation space of %s valuations; too large"
            (Arith.Bigint.to_string size) )
  | exception e -> Error (Wire.Internal_error, Printexc.to_string e)

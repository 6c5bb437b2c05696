module Fragment = Logic.Fragment
module Query = Logic.Query

type t = {
  query : Query.t;
  fragment : Fragment.fragment;
  safe : bool;
  generic : bool;
  cclass : Classify.constraint_class option;
  decomp : Decomp.t option;
  wacyclic : Constraints.Wacyclic.t option;
  diags : Diag.t list;
  hints : Diag.t list;
}

let has_tgds deps =
  List.exists
    (function
      | Constraints.Dependency.Ind _ | Constraints.Dependency.ForeignKey _ ->
          true
      | Constraints.Dependency.Fd _ | Constraints.Dependency.Key _ -> false)
    deps

let analyze ?inst ?deps ?tuple ?k schema q =
  (* The decomposition certificate needs a concrete support sentence:
     the query instantiated on the candidate tuple (or closed already
     for Boolean queries). *)
  let decomp =
    match (inst, tuple) with
    | Some inst, Some tuple when Relational.Tuple.arity tuple = Query.arity q
      ->
        Some
          (Decomp.analyze ?k
             ~extra_nulls:(Relational.Tuple.nulls tuple)
             inst
             (Query.instantiate q tuple))
    | Some inst, None when Query.arity q = 0 ->
        Some (Decomp.analyze ?k inst (Query.instantiate q Relational.Tuple.empty))
    | _ -> None
  in
  let wacyclic =
    match deps with
    | Some deps when has_tgds deps -> Some (Constraints.Wacyclic.check schema deps)
    | _ -> None
  in
  { query = q;
    fragment = Classify.fragment q;
    safe = Safety.is_safe q;
    generic = Query.constants q = [];
    cclass = Option.map Classify.constraint_class deps;
    decomp;
    wacyclic;
    diags = Safety.check_query schema q;
    hints =
      Classify.dispatch_hints ?deps ~schema q
      @ (match decomp with None -> [] | Some d -> Decomp.diagnostics d)
  }

let has_errors r = Diag.has_errors r.diags

let all_diags r = Diag.sort (r.diags @ r.hints)

let yesno b = if b then "yes" else "no"

let to_text r =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "query:       %s" (Query.to_string r.query);
  line "fragment:    %s   (CQ ⊆ UCQ ⊆ Pos∀G ⊆ FO)"
    (Fragment.fragment_name r.fragment);
  line "safe:        %s" (yesno r.safe);
  line "generic:     %s" (yesno r.generic);
  (match r.cclass with
  | None -> ()
  | Some c ->
      line "constraints: %d dependenc%s; FD-only: %s; unary keys+FKs: %s"
        c.Classify.n_constraints
        (if c.Classify.n_constraints = 1 then "y" else "ies")
        (yesno c.Classify.fd_only)
        (yesno c.Classify.unary_keys_fks));
  (match r.decomp with
  | None -> ()
  | Some d ->
      line "decomp:      %s%s"
        (Decomp.verdict_string d.Decomp.verdict)
        (match d.Decomp.verdict with
        | Decomp.Indecomposable reason -> Printf.sprintf " (%s)" reason
        | Decomp.Decomposable | Decomp.Trivial ->
            Printf.sprintf ": %d part%s, %s" (Decomp.parts d)
              (if Decomp.parts d = 1 then "" else "s")
              (Decomp.sizes_string d)));
  (match r.wacyclic with
  | None -> ()
  | Some w ->
      line "chase:       %s (%d regular, %d special edge%s)%s"
        (Constraints.Wacyclic.verdict_string w)
        w.Constraints.Wacyclic.n_regular w.Constraints.Wacyclic.n_special
        (if w.Constraints.Wacyclic.n_special = 1 then "" else "s")
        (match w.Constraints.Wacyclic.verdict with
        | Constraints.Wacyclic.Weakly_acyclic -> ""
        | Constraints.Wacyclic.Special_cycle _ ->
            ": " ^ Constraints.Wacyclic.cycle_string w));
  let errors = Diag.count Diag.Error r.diags
  and warnings = Diag.count Diag.Warning r.diags in
  line "verdict:     %s (%d error%s, %d warning%s)"
    (if errors > 0 then "issues found" else "ok")
    errors
    (if errors = 1 then "" else "s")
    warnings
    (if warnings = 1 then "" else "s");
  (match Diag.sort r.diags with
  | [] -> line "diagnostics: none"
  | ds ->
      line "diagnostics:";
      List.iter (fun d -> line "  %s" (String.concat "\n  " (String.split_on_char '\n' (Diag.to_string d)))) ds);
  (match Diag.sort r.hints with
  | [] -> ()
  | ds ->
      line "dispatch:";
      List.iter (fun d -> line "  %s" (String.concat "\n  " (String.split_on_char '\n' (Diag.to_string d)))) ds);
  Buffer.contents buf

let to_json r =
  let fields =
    [ ("query", Diag.json_string (Query.to_string r.query));
      ("fragment", Diag.json_string (Fragment.fragment_name r.fragment));
      ("safe", string_of_bool r.safe);
      ("generic", string_of_bool r.generic)
    ]
    @ (match r.cclass with
      | None -> []
      | Some c ->
          [ ( "constraints",
              Printf.sprintf
                "{\"count\": %d, \"fd_only\": %b, \"unary_keys_fks\": %b}"
                c.Classify.n_constraints c.Classify.fd_only
                c.Classify.unary_keys_fks )
          ])
    @ (match r.decomp with
      | None -> []
      | Some d -> [ ("decomp", Decomp.to_json d) ])
    @ (match r.wacyclic with
      | None -> []
      | Some w -> [ ("wacyclic", Constraints.Wacyclic.to_json w) ])
    @ [ ("errors", string_of_int (Diag.count Diag.Error r.diags));
        ("warnings", string_of_int (Diag.count Diag.Warning r.diags));
        ("hints", string_of_int (List.length r.hints));
        ("diagnostics", Diag.render_json (all_diags r))
      ]
  in
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Diag.json_string k ^ ": " ^ v) fields)
  ^ "}"

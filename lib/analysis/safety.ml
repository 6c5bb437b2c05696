module F = Logic.Formula
module Query = Logic.Query
module Names = Relational.Names
module SS = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Range restriction (safe-range analysis)                              *)
(* ------------------------------------------------------------------ *)

let rec conjuncts = function
  | F.And (g, h) -> conjuncts g @ conjuncts h
  | f -> [ f ]

let term_vars ts =
  List.fold_left
    (fun s t -> match t with F.Var x -> SS.add x s | F.Val _ -> s)
    SS.empty ts

let rec rr = function
  | F.True | F.False -> SS.empty
  | F.Atom (_, ts) -> term_vars ts
  | F.Eq (F.Var x, F.Val _) | F.Eq (F.Val _, F.Var x) -> SS.singleton x
  | F.Eq _ -> SS.empty
  | F.Not _ -> SS.empty
  (* Implication and universal quantification are negations in
     disguise: they restrict nothing. *)
  | F.Implies _ | F.Forall _ -> SS.empty
  | F.Or (g, h) -> SS.inter (rr g) (rr h)
  | F.Exists (x, g) -> SS.remove x (rr g)
  | F.And _ as f ->
      (* Union over the conjuncts, then close under the equality
         conjuncts: x = y propagates restriction either way. *)
      let cs = conjuncts f in
      let base =
        List.fold_left (fun s g -> SS.union s (rr g)) SS.empty cs
      in
      let eqs =
        List.filter_map
          (function F.Eq (F.Var x, F.Var y) -> Some (x, y) | _ -> None)
          cs
      in
      let step s =
        List.fold_left
          (fun s (x, y) ->
            if SS.mem x s then SS.add y s
            else if SS.mem y s then SS.add x s
            else s)
          s eqs
      in
      let rec fix s =
        let s' = step s in
        if SS.equal s s' then s else fix s'
      in
      fix base

let restricted f = SS.elements (rr f)

let unsafe_answer_vars (q : Query.t) =
  let r = rr q.Query.body in
  List.sort String.compare
    (List.filter (fun x -> not (SS.mem x r)) q.Query.free)

let is_safe q = unsafe_answer_vars q = []

(* ------------------------------------------------------------------ *)
(* Individual checks                                                    *)
(* ------------------------------------------------------------------ *)

let loc_query = "query"

let check_safety q =
  match unsafe_answer_vars q with
  | [] -> []
  | vars ->
      [ Diag.error ~code:"ANL001" ~loc:loc_query
          ~hint:
            "bind every answer variable by a relational atom (or equate it \
             with one that is); unsafe answers are domain-dependent"
          (Printf.sprintf
             "unsafe query: answer variable%s %s not range-restricted"
             (if List.length vars = 1 then "" else "s")
             (String.concat ", " vars))
      ]

let genericity_diag ~loc constants =
  match constants with
  | [] -> []
  | cs ->
      [ Diag.error ~code:"ANL002" ~loc
          ~hint:
            "Theorem 1's 0-1 law needs generic queries; with constants the \
             measures are relative to the genericity set C (anchored \
             valuation classes)"
          (Printf.sprintf "not generic: mentions constant%s %s"
             (if List.length cs = 1 then "" else "s")
             (String.concat ", "
                (List.map (fun c -> "'" ^ Names.to_string c ^ "'") cs)))
      ]

let check_genericity q = genericity_diag ~loc:loc_query (Query.constants q)

let check_schema schema q =
  match Query.well_formed schema q with
  | Ok () -> []
  | Error msg ->
      [ Diag.error ~code:"ANL003" ~loc:loc_query
          ~hint:"declare the relation in --schema or fix the atom's arity"
          msg
      ]

let check_unused q =
  let rec go acc = function
    | F.True | F.False | F.Atom _ | F.Eq _ -> acc
    | F.Not g -> go acc g
    | F.And (g, h) | F.Or (g, h) | F.Implies (g, h) -> go (go acc g) h
    | (F.Exists (x, g) | F.Forall (x, g)) as f ->
        let acc =
          if List.mem x (F.free_vars g) then acc
          else
            Diag.warning ~code:"ANL101" ~loc:loc_query
              ~hint:"drop the binder or use the variable"
              (Printf.sprintf "quantified variable %s is unused in %s" x
                 (F.to_string f))
            :: acc
        in
        go acc g
  in
  List.rev (go [] q.Query.body)

let check_trivial q =
  let warn what sub acc =
    Diag.warning ~code:"ANL102" ~loc:loc_query
      ~hint:"simplify the formula; the subformula does not constrain answers"
      (Printf.sprintf "%s: %s" what (F.to_string sub))
    :: acc
  in
  let rec go acc f =
    let acc =
      match f with
      | F.And (F.False, _) | F.And (_, F.False) ->
          warn "trivially false conjunction" f acc
      | F.Or (F.True, _) | F.Or (_, F.True) ->
          warn "trivially true disjunction" f acc
      | F.Implies (_, F.True) | F.Implies (F.False, _) ->
          warn "trivially true implication" f acc
      | F.Not F.True -> warn "trivially false subformula" f acc
      | F.Not F.False -> warn "trivially true subformula" f acc
      | F.Eq (F.Var x, F.Var y) when x = y ->
          warn "trivially true equality" f acc
      | F.Eq (F.Val a, F.Val b)
        when Relational.Value.is_const a && Relational.Value.is_const b ->
          if Relational.Value.equal a b then
            warn "trivially true equality" f acc
          else warn "trivially false equality" f acc
      | _ -> acc
    in
    match f with
    | F.True | F.False | F.Atom _ | F.Eq _ -> acc
    | F.Not g | F.Exists (_, g) | F.Forall (_, g) -> go acc g
    | F.And (g, h) | F.Or (g, h) | F.Implies (g, h) -> go (go acc g) h
  in
  List.rev (go [] q.Query.body)

let check_implication q =
  match q.Query.body with
  | F.Implies _ ->
      [ Diag.warning ~code:"ANL103" ~loc:loc_query
          ~hint:
            "µ(Σ → Q) is 1 whenever µ(Σ) = 0 (Prop 3); if the antecedent is \
             a constraint, use the conditional measure µ(Q|Σ) instead"
          "top-level implication: the measure of Σ → Q degenerates"
      ]
  | _ -> []

let check_query schema q =
  check_schema schema q
  @ check_safety q
  @ check_genericity q
  @ check_unused q
  @ check_trivial q
  @ check_implication q

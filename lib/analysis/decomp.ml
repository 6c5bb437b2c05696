module Formula = Logic.Formula
module Instance = Relational.Instance
module Relation = Relational.Relation
module Factor = Incomplete.Factor
module Split = Incomplete.Split

type verdict =
  | Decomposable
  | Trivial
  | Indecomposable of string

type t = {
  verdict : verdict;
  components : Factor.component list;
  free_nulls : int list;
  all_nulls : int list;
  k : int;
}

(* Content-determined, like every field of the certificate: intern
   codes follow process arrival order, so a max-code default would let
   the same request report a different k after other sessions. *)
let default_k inst = Instance.constant_count inst + 16

(* A quantified component must evaluate over a provably nonempty
   domain: its restricted base constants, its formula constants, or a
   null whose image lands in the domain. The fresh-extension lemma
   behind [Factor.dsafe] silently assumes nonemptiness (∀ over the
   empty domain is true, falsified-for-all is not false there), so an
   empty-domain candidate is not factored. *)
let component_domain_nonempty inst (c : Factor.component) =
  c.Factor.c_nulls <> []
  || Formula.constants c.Factor.c_sentence <> []
  || List.exists
       (fun r -> Relation.constants (Instance.relation inst r) <> [])
       c.Factor.c_relations

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let analyze ?k ?(extra_nulls = []) inst sentence =
  Obs.Trace.span "analysis.decomp" @@ fun () ->
  Obs.Metrics.incr Obs.Metrics.decomp_plans;
  let k = match k with Some k -> max 1 k | None -> default_k inst in
  let split = Split.of_instance inst in
  let all_nulls =
    List.sort_uniq Int.compare (Split.nulls split @ extra_nulls)
  in
  let graph = Depgraph.build ~all_nulls split sentence in
  let finish verdict components free_nulls =
    (match verdict with
    | Indecomposable _ -> Obs.Metrics.incr Obs.Metrics.decomp_indecomposable
    | Decomposable | Trivial ->
        Obs.Metrics.add Obs.Metrics.decomp_components (List.length components));
    { verdict; components; free_nulls; all_nulls; k }
  in
  if not (Formula.is_sentence sentence) then
    finish (Indecomposable "open formula: free variables left") [] []
  else if not (subset (Formula.nulls sentence) all_nulls) then
    finish
      (Indecomposable "sentence mentions nulls outside the valuation space")
      [] []
  else
    match Depgraph.first_unsafe graph with
    | Some node ->
        finish
          (Indecomposable
             (Printf.sprintf
                "conjunct %s has an unguarded quantifier (domain-dependent)"
                (Formula.to_string node.Depgraph.n_sentence)))
          [] []
    | None ->
        let components = Depgraph.components graph in
        if
          List.exists
            (fun c ->
              Factor.has_quantifier c.Factor.c_sentence
              && not (component_domain_nonempty inst c))
            components
        then
          finish
            (Indecomposable
               "a quantified component has an empty evaluation domain")
            [] []
        else
          let free = Depgraph.free_nulls graph components in
          let verdict =
            if List.length components + (if free = [] then 0 else 1) >= 2
            then Decomposable
            else Trivial
          in
          finish verdict components free

let plan cert =
  match cert.verdict with
  | Indecomposable _ -> None
  | Decomposable | Trivial ->
      Some
        { Factor.components = cert.components;
          free_nulls = cert.free_nulls;
          all_nulls = cert.all_nulls
        }

let parts cert =
  List.length cert.components + if cert.free_nulls = [] then 0 else 1

let verdict_string = function
  | Decomposable -> "decomposable"
  | Trivial -> "trivial"
  | Indecomposable _ -> "indecomposable"

let sizes_string cert =
  String.concat " + "
    (List.map
       (fun (c : Factor.component) ->
         Printf.sprintf "%d^%d" cert.k (List.length c.Factor.c_nulls))
       cert.components
    @ if cert.free_nulls = [] then []
      else [ Printf.sprintf "%d^%d free" cert.k (List.length cert.free_nulls) ])

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let diagnostics cert =
  let m = List.length cert.all_nulls in
  match cert.verdict with
  | Indecomposable reason ->
      [ Diag.hint ~code:"ANL402" ~loc:"decomp"
          (Printf.sprintf
             "support sentence does not decompose: %s — one part spans all \
              %d nulls"
             reason m)
      ]
  | Trivial ->
      [ Diag.hint ~code:"ANL402" ~loc:"decomp"
          (Printf.sprintf
             "no decomposition win: a single interaction component spans all \
              %d nulls"
             m)
      ]
  | Decomposable ->
      [ Diag.hint ~code:"ANL401" ~loc:"decomp"
          ~hint:
            "µ^k is the product of the parts' exact measures, since \
             valuations assign the nulls of different parts independently"
          (Printf.sprintf
             "support sentence decomposes into %d independent part%s over \
              its %d nulls: %s"
             (parts cert)
             (if parts cert = 1 then "" else "s")
             m (sizes_string cert))
      ]

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let to_json cert =
  let component_json (c : Factor.component) =
    Printf.sprintf "{\"nulls\": %d, \"relations\": [%s], \"conjuncts\": %d}"
      (List.length c.Factor.c_nulls)
      (String.concat ", " (List.map Diag.json_string c.Factor.c_relations))
      c.Factor.c_conjuncts
  in
  let fields =
    [ ("verdict", Diag.json_string (verdict_string cert.verdict)) ]
    @ (match cert.verdict with
      | Indecomposable reason -> [ ("reason", Diag.json_string reason) ]
      | _ -> [])
    @ [ ("k", string_of_int cert.k);
        ("nulls", string_of_int (List.length cert.all_nulls));
        ("parts", string_of_int (parts cert));
        ("free_nulls", string_of_int (List.length cert.free_nulls));
        ( "components",
          "[" ^ String.concat ", " (List.map component_json cert.components)
          ^ "]" )
      ]
  in
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Diag.json_string k ^ ": " ^ v) fields)
  ^ "}"

module Instance = Relational.Instance
module Relation = Relational.Relation
module Schema = Relational.Schema
module Formula = Logic.Formula

type component = {
  c_nulls : int list;
  c_sentence : Formula.t;
  c_relations : string list;
  c_conjuncts : int;
}

type plan = {
  components : component list;
  free_nulls : int list;
  all_nulls : int list;
}

let parts plan =
  List.length plan.components + if plan.free_nulls = [] then 0 else 1

let whole inst sentence ~nulls =
  { components =
      [ { c_nulls = nulls;
          c_sentence = sentence;
          c_relations = Schema.relations (Instance.schema inst);
          c_conjuncts = 1
        } ];
    free_nulls = [];
    all_nulls = nulls
  }

(* The component keeps only the relations its conjuncts mention; the
   other relations are emptied (schema preserved) so the component's
   kernel sees exactly the tuples — and therefore exactly the nulls and
   base constants — its verdict may depend on. *)
let restricted_instance inst relations =
  let schema = Instance.schema inst in
  List.fold_left
    (fun acc name ->
      if List.mem name relations then
        Instance.set_relation name (Instance.relation inst name) acc
      else acc)
    (Instance.empty schema) (Schema.relations schema)

(* ------------------------------------------------------------------ *)
(* Normalization and conjunct extraction                               *)
(* ------------------------------------------------------------------ *)

(* ∀x.(g ∧ h) ⟺ (∀x.g) ∧ (∀x.h) holds over every domain (including
   the empty one), so universal quantifiers are pushed through
   conjunctions before splitting. Binders are kept even when their
   variable is unused in a branch: dropping one would change the
   verdict on an empty evaluation domain. *)
let rec normalize (f : Formula.t) : Formula.t =
  match f with
  | Formula.And (g, h) -> Formula.And (normalize g, normalize h)
  | Formula.Forall (x, g) -> (
      match normalize g with
      | Formula.And (a, b) ->
          Formula.And
            (normalize (Formula.Forall (x, a)), normalize (Formula.Forall (x, b)))
      | g' -> Formula.Forall (x, g'))
  | other -> other

let conjuncts f =
  let rec flatten f acc =
    match f with Formula.And (g, h) -> flatten g (flatten h acc) | g -> g :: acc
  in
  flatten (normalize f) []

(* ------------------------------------------------------------------ *)
(* Domain-safety                                                       *)
(* ------------------------------------------------------------------ *)

(* The kernel evaluates quantifiers over the active domain of v(D)
   plus the constants of φ[v] — a set that grows with every null image
   and every constant of the *whole* sentence. Factoring a conjunct
   out is sound only if its verdict cannot change when that domain is
   extended with elements fresh to the conjunct: elements occurring in
   none of its relations (after valuation) and none of its constants.

   [falsified_fresh x f]: f is definitely false whenever x is bound to
   such a fresh element (whatever the other variables hold).
   [satisfied_fresh x f]: f is definitely true under the same regime.
   Both assume a nonempty evaluation domain (the planner refuses to
   factor a quantified conjunct whose restricted domain could be
   empty). [dsafe f]: every quantifier of f is guarded — ∃x only ever
   witnessed by non-fresh elements, ∀x never refuted by fresh ones —
   so extending the domain never flips a verdict. *)

let term_is_var x = function Formula.Var y -> String.equal x y | _ -> false

let is_val = function Formula.Val _ -> true | Formula.Var _ -> false

let rec falsified_fresh x (f : Formula.t) =
  match f with
  | Formula.False -> true
  | Formula.True -> false
  | Formula.Atom (_, ts) ->
      (* A fresh element occurs in no tuple of any relation. *)
      List.exists (term_is_var x) ts
  | Formula.Eq (a, b) ->
      (* fresh = constant/null-image is false; fresh = other-variable is
         unknown (the other variable may hold the same fresh element). *)
      (term_is_var x a && is_val b) || (term_is_var x b && is_val a)
  | Formula.Not g -> satisfied_fresh x g
  | Formula.And (g, h) -> falsified_fresh x g || falsified_fresh x h
  | Formula.Or (g, h) -> falsified_fresh x g && falsified_fresh x h
  | Formula.Implies (g, h) -> satisfied_fresh x g && falsified_fresh x h
  | Formula.Exists (y, g) | Formula.Forall (y, g) ->
      (* Either quantifier: false for every binding of y (nonempty
         domain makes both collapse). Shadowing stops the analysis. *)
      (not (String.equal y x)) && falsified_fresh x g

and satisfied_fresh x (f : Formula.t) =
  match f with
  | Formula.True -> true
  | Formula.False -> false
  | Formula.Atom _ -> false
  | Formula.Eq _ -> false
  | Formula.Not g -> falsified_fresh x g
  | Formula.And (g, h) -> satisfied_fresh x g && satisfied_fresh x h
  | Formula.Or (g, h) -> satisfied_fresh x g || satisfied_fresh x h
  | Formula.Implies (g, h) -> falsified_fresh x g || satisfied_fresh x h
  | Formula.Exists (y, g) | Formula.Forall (y, g) ->
      (not (String.equal y x)) && satisfied_fresh x g

let rec dsafe (f : Formula.t) =
  match f with
  | Formula.True | Formula.False | Formula.Atom _ | Formula.Eq _ -> true
  | Formula.Not g -> dsafe g
  | Formula.And (g, h) | Formula.Or (g, h) | Formula.Implies (g, h) ->
      dsafe g && dsafe h
  | Formula.Exists (x, g) -> dsafe g && falsified_fresh x g
  | Formula.Forall (x, g) -> dsafe g && satisfied_fresh x g

let rec has_quantifier (f : Formula.t) =
  match f with
  | Formula.Exists _ | Formula.Forall _ -> true
  | Formula.Not g -> has_quantifier g
  | Formula.And (g, h) | Formula.Or (g, h) | Formula.Implies (g, h) ->
      has_quantifier g || has_quantifier h
  | Formula.True | Formula.False | Formula.Atom _ | Formula.Eq _ -> false

let rec relations_of (f : Formula.t) acc =
  match f with
  | Formula.Atom (r, _) -> if List.mem r acc then acc else r :: acc
  | Formula.Not g | Formula.Exists (_, g) | Formula.Forall (_, g) ->
      relations_of g acc
  | Formula.And (g, h) | Formula.Or (g, h) | Formula.Implies (g, h) ->
      relations_of g (relations_of h acc)
  | Formula.True | Formula.False | Formula.Eq _ -> acc

let relations f = List.sort String.compare (relations_of f [])

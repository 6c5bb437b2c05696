module Instance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Eval = Logic.Eval
module Query = Logic.Query
module Formula = Logic.Formula

(* All answers come from one open evaluation on the instance's kernel
   db (memoized on the instance, or the session cache's), with nulls
   read as themselves: no call indexes an instance the db was built
   for again. A single verdict stays with the interpreter, which needs
   no index: its callers ask it about instances no db exists for (a
   chase result, fresh after every update), where building one would
   cost more than the verdict. *)
let answers ?cache inst q =
  Kernel.naive_answers (Kernel.compile_query (Support.kernel_db ?cache inst) q)

let boolean inst q = Eval.boolean_answer inst q
let tuple_in inst q tuple = Eval.tuple_in_answer inst q tuple

let answers_via_bijective ?valuation inst (q : Query.t) =
  let avoid =
    List.sort_uniq Int.compare (Query.constants q @ Instance.constants inst)
  in
  let nulls = Instance.nulls inst in
  let v =
    match valuation with
    | Some v ->
        if not (Valuation.defined_on v nulls) then
          invalid_arg "Naive.answers_via_bijective: valuation misses nulls"
        else if not (Valuation.is_bijective_for ~avoid v) then
          invalid_arg "Naive.answers_via_bijective: valuation not C-bijective"
        else v
    | None -> Enumerate.fresh_bijective ~nulls ~avoid
  in
  let complete = Valuation.instance v inst in
  let concrete_answers = Eval.answers complete q in
  (* v⁻¹(Q(v(D))): tuples over adom(D) whose image is an answer. *)
  let m = Query.arity q in
  let candidates =
    Relation.of_list m
      (List.map Tuple.of_list
         (Arith.Combinat.tuples (Instance.adom inst) m))
  in
  Valuation.preimage_relation v candidates concrete_answers

let sentence inst f =
  if not (Formula.is_sentence f) then
    invalid_arg "Naive.sentence: formula has free variables"
  else Eval.sentence_holds inst f

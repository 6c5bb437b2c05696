module Instance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Query = Logic.Query
module Naive = Incomplete.Naive
module Rat = Arith.Rat

type verdict = Almost_certainly_true | Almost_certainly_false

let mu inst q tuple =
  if Naive.tuple_in inst q tuple then Almost_certainly_true
  else Almost_certainly_false

let mu_boolean inst q =
  if Query.arity q <> 0 then invalid_arg "Measure.mu_boolean: query not Boolean"
  else mu inst q Tuple.empty

let mu_symbolic inst q tuple =
  let sp = Support_poly.of_sentences inst [ Query.instantiate q tuple ] in
  Support_poly.limit (List.hd sp.Support_poly.polys) sp.Support_poly.total

let to_rat = function
  | Almost_certainly_true -> Rat.one
  | Almost_certainly_false -> Rat.zero

let is_almost_certainly_true = function
  | Almost_certainly_true -> true
  | Almost_certainly_false -> false

let almost_certain_answers inst q = Naive.answers inst q

let pp_verdict fmt = function
  | Almost_certainly_true -> Format.pp_print_string fmt "almost certainly true"
  | Almost_certainly_false -> Format.pp_print_string fmt "almost certainly false"

module Instance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Query = Logic.Query
module Classes = Incomplete.Classes
module Valuation = Incomplete.Valuation
module Enumerate = Incomplete.Enumerate
module Poly = Arith.Poly
module Rat = Arith.Rat
module B = Arith.Bigint

type t = {
  name : string;
  arity : int;
  constants : int list;
  eval : Instance.t -> Relation.t;
}

let of_fo q =
  { name = q.Query.name;
    arity = Query.arity q;
    constants = Query.constants q;
    eval = (fun inst -> Logic.Eval.answers inst q)
  }

let of_ra schema e =
  let q = Logic.Ra.to_query schema e in
  { (of_fo q) with name = Logic.Ra.to_string e }

let of_datalog schema program ~goal =
  (match Datalog.Program.well_formed schema program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Generic.of_datalog: " ^ msg));
  let arity =
    match List.assoc_opt goal (Datalog.Program.idb_predicates program) with
    | Some a -> Some a
    | None -> Schema.arity_opt schema goal
  in
  match arity with
  | None -> invalid_arg ("Generic.of_datalog: unknown goal " ^ goal)
  | Some arity ->
      { name = "datalog:" ^ goal;
        arity;
        constants = Datalog.Program.constants program;
        eval = (fun inst -> Datalog.Program.query inst program goal)
      }

let naive_answers inst q = q.eval inst

let in_support inst q tuple v =
  if Tuple.arity tuple <> q.arity then
    invalid_arg "Generic.in_support: arity mismatch"
  else begin
    let complete = Valuation.instance v inst in
    Relation.mem (Valuation.tuple v tuple) (q.eval complete)
  end

let anchor_and_nulls inst q tuple =
  let anchor_set =
    List.sort_uniq Int.compare
      (q.constants @ Instance.constants inst @ Tuple.constants tuple)
  in
  let nulls =
    List.sort_uniq Int.compare (Instance.nulls inst @ Tuple.nulls tuple)
  in
  (anchor_set, nulls)

let mu_k inst q tuple ~k =
  let _, nulls = anchor_and_nulls inst q tuple in
  let total = Enumerate.count ~nulls ~k in
  if B.is_zero total then Rat.zero
  else begin
    let supporting =
      Enumerate.fold_valuations ~nulls ~k
        (fun acc v -> if in_support inst q tuple v then B.succ acc else acc)
        B.zero
    in
    Rat.make supporting total
  end

let support_poly inst q tuple =
  let anchor_set, nulls = anchor_and_nulls inst q tuple in
  List.fold_left
    (fun acc cls ->
      let v = Classes.representative ~anchor_set cls in
      if in_support inst q tuple v then
        Poly.add acc (Classes.count_poly ~anchor_set cls)
      else acc)
    Poly.zero
    (Classes.enumerate ~anchor_set ~nulls)

let mu_symbolic inst q tuple =
  let _, nulls = anchor_and_nulls inst q tuple in
  let p = support_poly inst q tuple in
  Support_poly.limit p (Poly.pow Poly.x (List.length nulls))

let is_certain inst q tuple =
  let anchor_set, nulls = anchor_and_nulls inst q tuple in
  List.for_all
    (fun cls -> in_support inst q tuple (Classes.representative ~anchor_set cls))
    (Classes.enumerate ~anchor_set ~nulls)

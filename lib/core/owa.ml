module Instance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value
module Schema = Relational.Schema
module Query = Logic.Query
module Eval = Logic.Eval
module Enumerate = Incomplete.Enumerate
module Valuation = Incomplete.Valuation
module Combinat = Arith.Combinat
module Rat = Arith.Rat

module DSet = Set.Make (Instance)

let tuple_space schema k =
  List.fold_left
    (fun acc r -> acc + int_of_float (float_of_int k ** float_of_int (Schema.arity schema r)))
    0 (Schema.relations schema)

(* All complete instances over constants {1..k}. *)
let all_complete_instances schema k =
  let domain = List.map Value.const (Combinat.range 1 k) in
  let relation_choices r =
    let arity = Schema.arity schema r in
    let tuples = List.map Tuple.of_list (Combinat.tuples domain arity) in
    List.map (Relation.of_list arity) (Combinat.sublists tuples)
  in
  List.fold_left
    (fun insts r ->
      List.concat_map
        (fun inst ->
          List.map (fun rel -> Instance.set_relation r rel inst) (relation_choices r))
        insts)
    [ Instance.empty schema ]
    (Schema.relations schema)

let minimal_worlds inst k =
  (* The images v(D) for v ∈ V^k(D); an owa member must contain one. *)
  Enumerate.fold_valuations ~nulls:(Instance.nulls inst) ~k
    (fun acc v -> DSet.add (Valuation.instance v inst) acc)
    DSet.empty

let contains_some_world worlds e =
  DSet.exists
    (fun w ->
      List.for_all
        (fun r ->
          Relation.subset (Instance.relation w r) (Instance.relation e r))
        (Schema.relations (Instance.schema w)))
    worlds

let owa_semantics_k inst ~k =
  let schema = Instance.schema inst in
  let worlds = minimal_worlds inst k in
  List.filter (contains_some_world worlds) (all_complete_instances schema k)

let owa_m_k ?(max_tuple_space = 20) inst q ~k =
  if Query.arity q <> 0 then invalid_arg "Owa.owa_m_k: query not Boolean"
  else begin
    let schema = Instance.schema inst in
    if tuple_space schema k > max_tuple_space then
      invalid_arg
        (Printf.sprintf
           "Owa.owa_m_k: tuple space %d exceeds the limit %d — owa enumeration \
            is doubly exponential"
           (tuple_space schema k) max_tuple_space)
    else if List.exists (fun c -> c > k) (Instance.constants inst) then
      invalid_arg "Owa.owa_m_k: k smaller than a constant of the database"
    else begin
      let members = owa_semantics_k inst ~k in
      let satisfying =
        List.length
          (List.filter (fun e -> Eval.boolean_answer e q) members)
      in
      match members with
      | [] -> Rat.zero
      | _ -> Rat.of_ints satisfying (List.length members)
    end
  end


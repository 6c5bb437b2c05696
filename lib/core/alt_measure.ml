module Instance = Relational.Instance
module Tuple = Relational.Tuple
module Query = Logic.Query
module Enumerate = Incomplete.Enumerate
module Support = Incomplete.Support
module Valuation = Incomplete.Valuation
module Rat = Arith.Rat

(* The measure counts distinct v(D); but for non-Boolean queries the
   witnessed object is the pair (v(D), v(ā)) collapsed on v(D) only, per
   equation (1) of the paper: |{v(D) | v ∈ Supp^k(Q,D,ā)}|. Note the
   same v(D) can arise both from supporting and non-supporting
   valuations; it is counted in the numerator as soon as one supporting
   valuation produces it. *)

module DSet = Set.Make (Instance)

let sets inst q tuple ~k =
  let nulls =
    List.sort_uniq Int.compare (Instance.nulls inst @ Tuple.nulls tuple)
  in
  Enumerate.fold_valuations ~nulls ~k
    (fun (num, den) v ->
      let image = Valuation.instance v inst in
      let den = DSet.add image den in
      let num =
        if Support.in_support inst q tuple v then DSet.add image num else num
      in
      (num, den))
    (DSet.empty, DSet.empty)

let m_k inst q tuple ~k =
  let num, den = sets inst q tuple ~k in
  if DSet.is_empty den then Rat.zero
  else Rat.of_ints (DSet.cardinal num) (DSet.cardinal den)

let m_k_boolean inst q ~k =
  if Query.arity q <> 0 then invalid_arg "Alt_measure.m_k_boolean: query not Boolean"
  else m_k inst q Tuple.empty ~k

let semantics_size inst ~k =
  let nulls = Instance.nulls inst in
  let worlds =
    Enumerate.fold_valuations ~nulls ~k
      (fun acc v -> DSet.add (Valuation.instance v inst) acc)
      DSet.empty
  in
  DSet.cardinal worlds

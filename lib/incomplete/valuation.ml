module IMap = Map.Make (Int)
module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Instance = Relational.Instance

type t = int IMap.t

let empty = IMap.empty

let of_list pairs =
  List.fold_left
    (fun m (n, c) ->
      if c < 1 then invalid_arg "Valuation.of_list: constant codes are positive"
      else if IMap.mem n m then
        invalid_arg
          (Printf.sprintf "Valuation.of_list: null ~%d assigned twice" n)
      else IMap.add n c m)
    IMap.empty pairs

let bindings = IMap.bindings
let find t n = IMap.find_opt n t

let find_exn t n =
  match IMap.find_opt n t with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Valuation: null ~%d unassigned" n)

let defined_on t nulls = List.for_all (fun n -> IMap.mem n t) nulls
let domain t = List.map fst (IMap.bindings t)

let range t =
  IMap.bindings t |> List.map snd |> List.sort_uniq Int.compare

let is_injective t =
  let values = List.map snd (IMap.bindings t) in
  List.length (List.sort_uniq Int.compare values) = List.length values

let is_bijective_for ~avoid t =
  is_injective t && List.for_all (fun c -> not (List.mem c avoid)) (range t)

let equal = IMap.equal Int.equal
let compare = IMap.compare Int.compare

let value t = function
  | Value.Const _ as v -> v
  | Value.Null n -> Value.const (find_exn t n)

let tuple t tup = Tuple.map (value t) tup
let instance t inst = Instance.map_values (value t) inst

let preimage_relation t candidates answers =
  Relation.filter (fun tup -> Relation.mem (tuple t tup) answers) candidates

let pp fmt t =
  Format.pp_print_string fmt "{";
  List.iteri
    (fun i (n, c) ->
      if i > 0 then Format.pp_print_string fmt ", ";
      Format.fprintf fmt "~%d -> %s" n (Relational.Names.to_string c))
    (IMap.bindings t);
  Format.pp_print_string fmt "}"

let to_string t = Format.asprintf "%a" pp t

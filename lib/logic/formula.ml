module Value = Relational.Value
module Tuple = Relational.Tuple
module Schema = Relational.Schema

type term = Var of string | Val of Value.t

type t =
  | True
  | False
  | Atom of string * term list
  | Eq of term * term
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Exists of string * t
  | Forall of string * t

let atom r ts = Atom (r, ts)
let eq a b = Eq (a, b)
let neq a b = Not (Eq (a, b))

let conj = function
  | [] -> True
  | f :: rest -> List.fold_left (fun acc g -> And (acc, g)) f rest

let disj = function
  | [] -> False
  | f :: rest -> List.fold_left (fun acc g -> Or (acc, g)) f rest

let exists vars body = List.fold_right (fun v f -> Exists (v, f)) vars body
let forall vars body = List.fold_right (fun v f -> Forall (v, f)) vars body
let var x = Var x
let cst name = Val (Value.named name)
let vl v = Val v

let dedup_keep_order l =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    l

let free_vars f =
  let rec go bound acc f =
    match f with
    | True | False -> acc
    | Atom (_, ts) ->
        List.fold_left
          (fun acc t ->
            match t with
            | Var x when not (List.mem x bound) -> x :: acc
            | Var _ | Val _ -> acc)
          acc ts
    | Eq (a, b) ->
        let add acc = function
          | Var x when not (List.mem x bound) -> x :: acc
          | Var _ | Val _ -> acc
        in
        add (add acc a) b
    | Not g -> go bound acc g
    | And (g, h) | Or (g, h) | Implies (g, h) -> go bound (go bound acc g) h
    | Exists (x, g) | Forall (x, g) -> go (x :: bound) acc g
  in
  dedup_keep_order (List.rev (go [] [] f))

let is_sentence f = free_vars f = []

let fold_values add acc f =
  let rec go acc = function
    | True | False -> acc
    | Atom (_, ts) ->
        List.fold_left
          (fun acc t -> match t with Val v -> add acc v | Var _ -> acc)
          acc ts
    | Eq (a, b) ->
        let one acc = function Val v -> add acc v | Var _ -> acc in
        one (one acc a) b
    | Not g -> go acc g
    | And (g, h) | Or (g, h) | Implies (g, h) -> go (go acc g) h
    | Exists (_, g) | Forall (_, g) -> go acc g
  in
  go acc f

let constants f =
  fold_values
    (fun acc v -> match Value.const_code v with Some c -> c :: acc | None -> acc)
    [] f
  |> List.sort_uniq Int.compare

let nulls f =
  fold_values
    (fun acc v -> match Value.null_id v with Some n -> n :: acc | None -> acc)
    [] f
  |> List.sort_uniq Int.compare

let relations f =
  let rec go acc = function
    | True | False | Eq _ -> acc
    | Atom (r, _) -> if List.mem r acc then acc else r :: acc
    | Not g | Exists (_, g) | Forall (_, g) -> go acc g
    | And (g, h) | Or (g, h) | Implies (g, h) -> go (go acc g) h
  in
  List.sort String.compare (go [] f)

let all_vars f =
  let rec go acc = function
    | True | False -> acc
    | Atom (_, ts) ->
        List.fold_left
          (fun acc t -> match t with Var x -> x :: acc | Val _ -> acc)
          acc ts
    | Eq (a, b) ->
        let one acc = function Var x -> x :: acc | Val _ -> acc in
        one (one acc a) b
    | Not g -> go acc g
    | And (g, h) | Or (g, h) | Implies (g, h) -> go (go acc g) h
    | Exists (x, g) | Forall (x, g) -> go (x :: acc) g
  in
  List.sort_uniq String.compare (go [] f)

let rec fresh_var taken base i =
  let candidate = Printf.sprintf "%s_%d" base i in
  if List.mem candidate taken then fresh_var taken base (i + 1) else candidate

let subst bindings f =
  let subst_term bindings = function
    | Var x as t -> ( match List.assoc_opt x bindings with Some u -> u | None -> t)
    | Val _ as t -> t
  in
  let term_vars = function Var x -> [ x ] | Val _ -> [] in
  let rec go bindings f =
    match f with
    | True | False -> f
    | Atom (r, ts) -> Atom (r, List.map (subst_term bindings) ts)
    | Eq (a, b) -> Eq (subst_term bindings a, subst_term bindings b)
    | Not g -> Not (go bindings g)
    | And (g, h) -> And (go bindings g, go bindings h)
    | Or (g, h) -> Or (go bindings g, go bindings h)
    | Implies (g, h) -> Implies (go bindings g, go bindings h)
    | Exists (x, g) -> quant (fun (x, g) -> Exists (x, g)) x g bindings
    | Forall (x, g) -> quant (fun (x, g) -> Forall (x, g)) x g bindings
  and quant rebuild x g bindings =
    let bindings = List.filter (fun (y, _) -> y <> x) bindings in
    let incoming =
      List.concat_map (fun (_, t) -> term_vars t) bindings
    in
    if List.mem x incoming then begin
      (* Rename the binder to avoid capturing a substituted variable. *)
      let taken = incoming @ all_vars g in
      let x' = fresh_var taken x 0 in
      let g' = go [ (x, Var x') ] g in
      rebuild (x', go bindings g')
    end
    else rebuild (x, go bindings g)
  in
  go bindings f

let instantiate free tuple f =
  if List.length free <> Tuple.arity tuple then
    invalid_arg "Formula.instantiate: arity mismatch"
  else
    subst (List.mapi (fun i x -> (x, Val (Tuple.get tuple i))) free) f

let map_values fn f =
  let mt = function Var _ as t -> t | Val v -> Val (fn v) in
  let rec go = function
    | True -> True
    | False -> False
    | Atom (r, ts) -> Atom (r, List.map mt ts)
    | Eq (a, b) -> Eq (mt a, mt b)
    | Not g -> Not (go g)
    | And (g, h) -> And (go g, go h)
    | Or (g, h) -> Or (go g, go h)
    | Implies (g, h) -> Implies (go g, go h)
    | Exists (x, g) -> Exists (x, go g)
    | Forall (x, g) -> Forall (x, go g)
  in
  go f

let rec size = function
  | True | False | Atom _ | Eq _ -> 1
  | Not g | Exists (_, g) | Forall (_, g) -> 1 + size g
  | And (g, h) | Or (g, h) | Implies (g, h) -> 1 + size g + size h

let well_formed schema f =
  let rec go = function
    | True | False | Eq _ -> Ok ()
    | Atom (r, ts) -> (
        match Schema.arity_opt schema r with
        | None -> Error (Printf.sprintf "unknown relation %s" r)
        | Some a when a <> List.length ts ->
            Error
              (Printf.sprintf "relation %s has arity %d, used with %d terms" r a
                 (List.length ts))
        | Some _ -> Ok ())
    | Not g | Exists (_, g) | Forall (_, g) -> go g
    | And (g, h) | Or (g, h) | Implies (g, h) -> (
        match go g with Ok () -> go h | Error _ as e -> e)
  in
  go f

let equal (a : t) (b : t) = a = b

let pp_term fmt = function
  | Var x -> Format.pp_print_string fmt x
  | Val (Value.Const c) ->
      (* Quote constants so that printed formulas re-parse. *)
      Format.fprintf fmt "'%s'" (Relational.Names.to_string c)
  | Val (Value.Null n) -> Format.fprintf fmt "~%d" n

let rec pp fmt f =
  (* Precedence: quantifiers/implication lowest, then or, and, not. *)
  pp_implies fmt f

and pp_implies fmt = function
  | Implies (g, h) -> Format.fprintf fmt "%a -> %a" pp_or g pp_implies h
  | Exists _ | Forall _ as f -> pp_quant fmt f
  | f -> pp_or fmt f

and pp_quant fmt = function
  | Exists (x, g) -> Format.fprintf fmt "exists %s. %a" x pp_implies g
  | Forall (x, g) -> Format.fprintf fmt "forall %s. %a" x pp_implies g
  | f -> pp_or fmt f

and pp_or fmt = function
  | Or (g, h) -> Format.fprintf fmt "%a | %a" pp_or g pp_and h
  | f -> pp_and fmt f

and pp_and fmt = function
  | And (g, h) -> Format.fprintf fmt "%a & %a" pp_and g pp_unary h
  | f -> pp_unary fmt f

and pp_unary fmt = function
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Atom (r, ts) ->
      Format.fprintf fmt "%s(%s)" r
        (String.concat ", " (List.map (Format.asprintf "%a" pp_term) ts))
  | Eq (a, b) -> Format.fprintf fmt "%a = %a" pp_term a pp_term b
  | Not (Eq (a, b)) -> Format.fprintf fmt "%a != %a" pp_term a pp_term b
  | Not g -> Format.fprintf fmt "!%a" pp_unary g
  | And _ | Or _ | Implies _ | Exists _ | Forall _ as f ->
      Format.fprintf fmt "(%a)" pp f

let to_string f = Format.asprintf "%a" pp f

module Schema = Relational.Schema
module Instance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value
module F = Logic.Formula

type fd = { fd_relation : string; fd_lhs : int list; fd_rhs : int }

type ind = {
  ind_src : string;
  ind_src_cols : int list;
  ind_dst : string;
  ind_dst_cols : int list;
}

type key = { key_relation : string; key_cols : int list }

type foreign_key = {
  fk_src : string;
  fk_src_cols : int list;
  fk_dst : string;
  fk_dst_cols : int list;
}

type t = Fd of fd | Ind of ind | Key of key | ForeignKey of foreign_key

let fd r lhs rhs = Fd { fd_relation = r; fd_lhs = lhs; fd_rhs = rhs }

let ind src src_cols dst dst_cols =
  if List.length src_cols <> List.length dst_cols then
    invalid_arg "Dependency.ind: column lists of different lengths"
  else
    Ind { ind_src = src; ind_src_cols = src_cols; ind_dst = dst; ind_dst_cols = dst_cols }

let key r cols = Key { key_relation = r; key_cols = cols }

let foreign_key src src_cols dst dst_cols =
  if List.length src_cols <> List.length dst_cols then
    invalid_arg "Dependency.foreign_key: column lists of different lengths"
  else
    ForeignKey
      { fk_src = src; fk_src_cols = src_cols; fk_dst = dst; fk_dst_cols = dst_cols }

let key_of_attrs schema r cols = key r (List.map (Schema.attr_index schema r) cols)

(* ------------------------------------------------------------------ *)
(* Compilation to first-order sentences                                 *)
(* ------------------------------------------------------------------ *)

let check_positions what arity positions =
  List.iter
    (fun p ->
      if p < 0 || p >= arity then
        invalid_arg (Printf.sprintf "Dependency.%s: position %d out of range" what p))
    positions

let vars prefix n = List.init n (fun i -> Printf.sprintf "%s%d" prefix i)

let fd_formula schema { fd_relation = r; fd_lhs; fd_rhs } =
  let arity = Schema.arity schema r in
  check_positions "fd" arity (fd_rhs :: fd_lhs);
  let xs = vars "x" arity and ys = vars "y" arity in
  let tx = List.map F.var xs and ty = List.map F.var ys in
  let same_lhs =
    F.conj
      (List.map (fun i -> F.Eq (List.nth tx i, List.nth ty i)) fd_lhs)
  in
  F.forall (xs @ ys)
    (F.Implies
       ( F.conj [ F.Atom (r, tx); F.Atom (r, ty); same_lhs ],
         F.Eq (List.nth tx fd_rhs, List.nth ty fd_rhs) ))

let ind_formula schema { ind_src; ind_src_cols; ind_dst; ind_dst_cols } =
  let sa = Schema.arity schema ind_src and da = Schema.arity schema ind_dst in
  check_positions "ind (source)" sa ind_src_cols;
  check_positions "ind (destination)" da ind_dst_cols;
  let xs = vars "x" sa and ys = vars "y" da in
  let tx = List.map F.var xs and ty = List.map F.var ys in
  let agree =
    F.conj
      (List.map2
         (fun i j -> F.Eq (List.nth tx i, List.nth ty j))
         ind_src_cols ind_dst_cols)
  in
  F.forall xs
    (F.Implies
       (F.Atom (ind_src, tx), F.exists ys (F.And (F.Atom (ind_dst, ty), agree))))

let key_fds schema { key_relation = r; key_cols } =
  let arity = Schema.arity schema r in
  check_positions "key" arity key_cols;
  List.filter_map
    (fun a ->
      if List.mem a key_cols then None
      else Some { fd_relation = r; fd_lhs = key_cols; fd_rhs = a })
    (List.init arity Fun.id)

let rec to_formula schema = function
  | Fd f -> fd_formula schema f
  | Ind i -> ind_formula schema i
  | Key k -> F.conj (List.map (fd_formula schema) (key_fds schema k))
  | ForeignKey fk ->
      F.And
        ( to_formula schema
            (Ind
               { ind_src = fk.fk_src;
                 ind_src_cols = fk.fk_src_cols;
                 ind_dst = fk.fk_dst;
                 ind_dst_cols = fk.fk_dst_cols
               }),
          to_formula schema (Key { key_relation = fk.fk_dst; key_cols = fk.fk_dst_cols }) )

let set_to_formula schema cs = F.conj (List.map (to_formula schema) cs)

(* ------------------------------------------------------------------ *)
(* Direct checks                                                        *)
(* ------------------------------------------------------------------ *)

let project_cols tuple cols = List.map (Tuple.get tuple) cols

let fd_holds inst { fd_relation = r; fd_lhs; fd_rhs } =
  let rel = Instance.relation inst r in
  let seen : (Value.t list, Value.t) Hashtbl.t = Hashtbl.create 16 in
  Relation.for_all
    (fun t ->
      let lhs = project_cols t fd_lhs in
      let rhs = Tuple.get t fd_rhs in
      match Hashtbl.find_opt seen lhs with
      | Some rhs' -> Value.equal rhs rhs'
      | None ->
          Hashtbl.add seen lhs rhs;
          true)
    rel

let ind_holds inst { ind_src; ind_src_cols; ind_dst; ind_dst_cols } =
  let src = Instance.relation inst ind_src in
  let dst = Instance.relation inst ind_dst in
  Relation.for_all
    (fun t ->
      let wanted = project_cols t ind_src_cols in
      Relation.exists
        (fun u ->
          List.for_all2 Value.equal wanted (project_cols u ind_dst_cols))
        dst)
    src

let key_holds inst k =
  (* A key is the conjunction of its FDs on the given instance. *)
  let arity = Relation.arity (Instance.relation inst k.key_relation) in
  List.for_all (fd_holds inst)
    (List.filter_map
       (fun a ->
         if List.mem a k.key_cols then None
         else Some { fd_relation = k.key_relation; fd_lhs = k.key_cols; fd_rhs = a })
       (List.init arity Fun.id))

let rec holds inst = function
  | Fd f -> fd_holds inst f
  | Ind i -> ind_holds inst i
  | Key k -> key_holds inst k
  | ForeignKey fk ->
      holds inst
        (Ind
           { ind_src = fk.fk_src;
             ind_src_cols = fk.fk_src_cols;
             ind_dst = fk.fk_dst;
             ind_dst_cols = fk.fk_dst_cols
           })
      && holds inst (Key { key_relation = fk.fk_dst; key_cols = fk.fk_dst_cols })

let all_hold inst cs = List.for_all (holds inst) cs

let declared_keys cs =
  List.filter_map
    (function
      | Key k -> Some (k.key_relation, k.key_cols)
      | ForeignKey fk -> Some (fk.fk_dst, fk.fk_dst_cols)
      | Fd _ | Ind _ -> None)
    cs

let keys_null_free inst cs =
  List.for_all
    (fun (r, cols) ->
      Relation.for_all
        (fun t -> List.for_all (fun c -> Value.is_const (Tuple.get t c)) cols)
        (Instance.relation inst r))
    (declared_keys cs)

let fds_of_schema schema cs =
  List.concat_map
    (function
      | Fd f -> [ f ]
      | Key k -> key_fds schema k
      | ForeignKey fk ->
          key_fds schema { key_relation = fk.fk_dst; key_cols = fk.fk_dst_cols }
      | Ind _ -> [])
    cs

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let col_name schema r i =
  match schema with
  | Some s -> (
      match Schema.attrs s r with
      | Some attrs -> ( try List.nth attrs i with Failure _ -> string_of_int (i + 1))
      | None -> string_of_int (i + 1))
  | None -> string_of_int (i + 1)

let cols_str schema r cols =
  String.concat ", " (List.map (col_name schema r) cols)

let pp schema fmt = function
  | Fd f ->
      Format.fprintf fmt "fd %s : %s -> %s" f.fd_relation
        (cols_str schema f.fd_relation f.fd_lhs)
        (col_name schema f.fd_relation f.fd_rhs)
  | Ind i ->
      Format.fprintf fmt "ind %s[%s] <= %s[%s]" i.ind_src
        (cols_str schema i.ind_src i.ind_src_cols)
        i.ind_dst
        (cols_str schema i.ind_dst i.ind_dst_cols)
  | Key k ->
      Format.fprintf fmt "key %s : %s" k.key_relation
        (cols_str schema k.key_relation k.key_cols)
  | ForeignKey fk ->
      Format.fprintf fmt "fk %s[%s] -> %s[%s]" fk.fk_src
        (cols_str schema fk.fk_src fk.fk_src_cols)
        fk.fk_dst
        (cols_str schema fk.fk_dst fk.fk_dst_cols)

let to_string ?schema c = Format.asprintf "%a" (pp schema) c

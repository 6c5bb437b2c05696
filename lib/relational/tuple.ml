type t = Value.t array

let of_list = Array.of_list
let of_array = Array.copy
let unsafe_of_array (a : Value.t array) : t = a
let to_list = Array.to_list
let to_array = Array.copy
let copy = Array.copy
let empty : t = [||]
let arity = Array.length
let get (t : t) i = t.(i)

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  && begin
       let rec go i =
         i >= Array.length a || (Value.equal a.(i) b.(i) && go (i + 1))
       in
       go 0
     end

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i =
      if i >= la then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let hash (t : t) =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t land max_int

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

let nulls (t : t) =
  Array.to_list t |> List.filter_map Value.null_id |> dedup_keep_order

let constants (t : t) =
  Array.to_list t |> List.filter_map Value.const_code |> dedup_keep_order

let has_null (t : t) = Array.exists Value.is_null t
let map f (t : t) : t = Array.map f t
let consts names = Array.of_list (List.map Value.named names)

let pp fmt (t : t) =
  Format.pp_print_string fmt "(";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.pp_print_string fmt ", ";
      Value.pp fmt v)
    t;
  Format.pp_print_string fmt ")"

let to_string t = Format.asprintf "%a" pp t

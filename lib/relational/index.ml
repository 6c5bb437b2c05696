(* Hash indexes over a relation: O(1) full-tuple membership plus
   per-column postings for selections.

   The bulk of an index — the [base] below — is built once from a
   Relation.t and immutable afterwards, so it may be shared freely
   across domains (concurrent reads of an unmutated Hashtbl are safe).
   Single-tuple updates ({!add}/{!remove}) do not rebuild it: they are
   pure and return a new index sharing the same base plus a small
   overlay of added/removed tuples, consulted after the base on every
   probe. Once the overlay outgrows [overlay_cap] the live contents
   are compacted into a fresh base, amortizing the O(n) rebuild over
   [overlay_cap] updates. Un-updated indexes carry empty overlays, so
   the probe hot path pays only a [[] = []]-style check. *)

type base = {
  arity : int;
  tuples : Tuple.t array; (* in Relation.to_list (= Tuple.compare) order *)
  members : (Tuple.t, unit) Hashtbl.t;
  columns : (Value.t, int list) Hashtbl.t array;
      (* columns.(i) : value ↦ rows (indexes into [tuples]) whose
         column [i] holds it, in increasing row order *)
}

type t = {
  b : base;
  extra : Tuple.t list; (* added since the base, newest first, ∉ base *)
  gone : Tuple.t list; (* removed since the base, ∈ base *)
  card : int; (* live cardinality *)
}

let overlay_cap = 16

let build arity tuples =
  let n = Array.length tuples in
  let members = Hashtbl.create (max 16 (2 * n)) in
  Array.iter (fun t -> Hashtbl.replace members t ()) tuples;
  let columns = Array.init arity (fun _ -> Hashtbl.create (max 16 (2 * n))) in
  (* Walk rows backwards so each posting list comes out in increasing
     row order without a final reverse. *)
  for row = n - 1 downto 0 do
    let t = tuples.(row) in
    for col = 0 to arity - 1 do
      let v = Tuple.get t col in
      let prev = Option.value ~default:[] (Hashtbl.find_opt columns.(col) v) in
      Hashtbl.replace columns.(col) v (row :: prev)
    done
  done;
  { arity; tuples; members; columns }

let of_relation r =
  let b = build (Relation.arity r) (Relation.to_array r) in
  { b; extra = []; gone = []; card = Array.length b.tuples }

let arity t = t.b.arity
let cardinal t = t.card
let overlay t = List.length t.extra + List.length t.gone

let rec in_list tuple = function
  | [] -> false
  | u :: l -> Tuple.equal u tuple || in_list tuple l

let mem t tuple =
  if Hashtbl.mem t.b.members tuple then not (in_list tuple t.gone)
  else in_list tuple t.extra

let mem_values t values =
  Array.length values = t.b.arity
  && mem t (Tuple.unsafe_of_array values)

(* The scans are top-level recursions over explicit arguments, so a
   call allocates nothing: the kernels run one per guarded quantifier
   step of every valuation. Base rows come first in row order, then
   the added tuples oldest first ([extra] is newest first, hence the
   test on the way back up). *)
let live t tup = t.gone = [] || not (in_list tup t.gone)

let rec exists_from t f row =
  row < Array.length t.b.tuples
  && ((let tup = Array.unsafe_get t.b.tuples row in live t tup && f tup)
     || exists_from t f (row + 1))

let rec exists_rows t f = function
  | [] -> false
  | row :: rest ->
      (let tup = Array.unsafe_get t.b.tuples row in live t tup && f tup)
      || exists_rows t f rest

let rec exists_extra f = function
  | [] -> false
  | tup :: rest -> exists_extra f rest || f tup

let rec exists_extra_with f column v = function
  | [] -> false
  | tup :: rest ->
      exists_extra_with f column v rest
      || (Value.equal (Tuple.get tup column) v && f tup)

let exists t f = exists_from t f 0 || exists_extra f t.extra

let check_column t column name =
  if column < 0 || column >= t.b.arity then
    invalid_arg (name ^ ": column out of range")

let exists_posting t ~column v f =
  check_column t column "Index.exists_posting";
  (match Hashtbl.find t.b.columns.(column) v with
   | rows -> exists_rows t f rows
   | exception Not_found -> false)
  || exists_extra_with f column v t.extra

let collect scan =
  let acc = ref [] in
  ignore (scan (fun tup -> acc := tup :: !acc; false));
  List.rev !acc

(* Live tuples in deterministic order: surviving base rows in row
   order, then the added tuples oldest first. *)
let to_list t = collect (exists t)

(* Compaction: fold the overlay into a fresh base, restoring the
   canonical Tuple.compare order of [of_relation]. *)
let compact t =
  let live = List.sort Tuple.compare (to_list t) in
  let b = build t.b.arity (Array.of_list live) in
  { b; extra = []; gone = []; card = Array.length b.tuples }

let maybe_compact t = if overlay t > overlay_cap then compact t else t

let add t tuple =
  if Tuple.arity tuple <> t.b.arity then
    invalid_arg "Index.add: arity mismatch"
  else if mem t tuple then t
  else if Hashtbl.mem t.b.members tuple then
    (* Present in the base, currently shadowed by [gone]: resurrect. *)
    { t with
      gone = List.filter (fun u -> not (Tuple.equal u tuple)) t.gone;
      card = t.card + 1
    }
  else
    maybe_compact { t with extra = tuple :: t.extra; card = t.card + 1 }

let remove t tuple =
  if not (mem t tuple) then t
  else if in_list tuple t.extra then
    { t with
      extra = List.filter (fun u -> not (Tuple.equal u tuple)) t.extra;
      card = t.card - 1
    }
  else maybe_compact { t with gone = tuple :: t.gone; card = t.card - 1 }

let postings t ~column v = collect (exists_posting t ~column v)

let column_cardinal t ~column v = List.length (postings t ~column v)

let select t bindings =
  List.iter (fun (col, _) -> check_column t col "Index.select") bindings;
  match bindings with
  | [] -> to_list t
  | first :: rest ->
      (* Walk the shortest base posting list and filter the other bound
         columns by direct access; the (small) overlay is ignored when
         picking the column. *)
      let posting_len (c, v) =
        match Hashtbl.find t.b.columns.(c) v with
        | rows -> List.length rows
        | exception Not_found -> 0
      in
      let bc, bv =
        List.fold_left
          (fun best cand ->
            if posting_len cand < posting_len best then cand else best)
          first rest
      in
      List.filter
        (fun tup ->
          List.for_all (fun (c, v) -> Value.equal (Tuple.get tup c) v) bindings)
        (postings t ~column:bc bv)

module Tuple = Relational.Tuple
module Decomp = Analysis.Decomp
module B = Arith.Bigint
module Rat = Arith.Rat

type error = Negative_k of int | Unknown_null of int

type target =
  | Answer of Logic.Query.t * Tuple.t
  | Given of Logic.Formula.t * Logic.Query.t * Tuple.t

type route = Monolithic | Factorized of Decomp.t list

type measure = {
  supp_poly : Arith.Poly.t;
  mu : Arith.Rat.t;
  verdict : Measure.verdict;
  census : Support_poly.t;
}

let ( let* ) = Result.bind

(* The valuation space of a request is V^k over the nulls of D and ā
   (and of Σ, which is built from dependencies). A query that names any
   other null would be counted over a larger space than the one its
   answers are drawn from, so it is refused before any pass runs. *)
let known_nulls inst q tuple =
  let known = Relational.Instance.nulls inst @ Tuple.nulls tuple in
  match
    List.find_opt
      (fun n -> not (List.mem n known))
      (Logic.Formula.nulls q.Logic.Query.body)
  with
  | Some n -> Error (Unknown_null n)
  | None -> Ok ()

let measure ?jobs ?guard ?cache inst q tuple =
  let* () = known_nulls inst q tuple in
  let census =
    Support_poly.of_sentences ?jobs ?guard ?cache inst
      [ Logic.Query.instantiate q tuple ]
  in
  let supp_poly = List.hd census.Support_poly.polys in
  Ok
    { supp_poly;
      mu = Support_poly.limit supp_poly census.Support_poly.total;
      verdict = Measure.mu inst q tuple;
      census
    }

let conditional ?jobs ?guard ?cache ~sigma inst q tuple =
  let* () = known_nulls inst q tuple in
  Ok (Conditional.mu_cond_report ?jobs ?guard ?cache ~sigma inst q tuple)

let check_ks ks =
  match List.find_opt (fun k -> k < 0) ks with
  | Some k -> Error (Negative_k k)
  | None -> Ok ()

let route_of_certificates certificates =
  if
    List.exists (fun d -> d.Decomp.verdict = Decomp.Decomposable) certificates
    && List.for_all (fun d -> Decomp.plan d <> None) certificates
  then Factorized certificates
  else Monolithic

let route inst target ~ks =
  let k = List.fold_left max 1 ks in
  route_of_certificates
    (match target with
    | Answer (q, tuple) ->
        [ Decomp.analyze ~k ~extra_nulls:(Tuple.nulls tuple) inst
            (Logic.Query.instantiate q tuple) ]
    | Given (sigma, q, tuple) ->
        let dnum, dden = Conditional.cond_decomp ~k ~sigma inst q tuple in
        [ dnum; dden ])

(* The nulls of V^k: those of D, ā and Σ. *)
let space_nulls inst target =
  List.sort_uniq Int.compare
    (Relational.Instance.nulls inst
    @
    match target with
    | Answer (_, tuple) -> Tuple.nulls tuple
    | Given (sigma, _, tuple) -> Tuple.nulls tuple @ Logic.Formula.nulls sigma)

(* µ^k off the census. A null of V^k that no counted sentence mentions
   (a tuple null outside D that the query body ignores) multiplies
   every count and k^m alike by k; it changes a quotient only at k = 0,
   where V^k is empty and µ^k is 0. Every count is a Bigint, so no k
   is too large. *)
let series ~census inst target ~ks =
  let* () = check_ks ks in
  let nulls = space_nulls inst target in
  if
    not
      (List.for_all (fun n -> List.mem n nulls) census.Support_poly.nulls)
  then invalid_arg "Pipeline.series: census of another target";
  let count sentence k = Support_poly.supp_count census ~sentence ~k in
  let mu_k k =
    if k = 0 && nulls <> [] then Rat.zero
    else
      match target with
      | Answer _ -> Support_poly.mu_k_exact census ~sentence:0 ~k
      | Given _ ->
          let den = count 1 k in
          if B.is_zero den then Rat.zero else Rat.make (count 0 k) den
  in
  Ok (List.map (fun k -> (k, mu_k k)) ks)

module Tuple = Relational.Tuple
module Decomp = Analysis.Decomp
module Factor = Incomplete.Factor

type error =
  | Negative_k of int
  | Space_too_large of { k : int; nulls : int; size : Arith.Bigint.t }
  | Component_too_large of {
      k : int;
      component : int;
      nulls : int;
      total_nulls : int;
      size : Arith.Bigint.t;
    }

type target =
  | Answer of Logic.Query.t * Tuple.t
  | Given of Logic.Formula.t * Logic.Query.t * Tuple.t

type route = Monolithic | Factorized of Decomp.t list

type measure = {
  supp_poly : Arith.Poly.t;
  mu : Arith.Rat.t;
  verdict : Measure.verdict;
}

let ( let* ) = Result.bind

(* The class pass compiles against a kernel db of its own, not the
   session's: kernels are memoized per domain by (db, sentence), and
   the daemon's worker threads all run on one domain, so a kernel
   compiled against the shared db would hand its mutable scratch to
   concurrent requests. *)
let measure ?jobs inst q tuple =
  let supp_poly, mu = Measure.symbolic ?jobs inst q tuple in
  { supp_poly; mu; verdict = Measure.mu inst q tuple }

let check_ks ks =
  match List.find_opt (fun k -> k < 0) ks with
  | Some k -> Error (Negative_k k)
  | None -> Ok ()

let route ?(decomp = true) inst target ~ks =
  let* () = check_ks ks in
  let k = List.fold_left max 1 ks in
  let certificates =
    if not decomp then []
    else
      match target with
      | Answer (q, tuple) ->
          [ Decomp.analyze ~k ~extra_nulls:(Tuple.nulls tuple) inst
              (Logic.Query.instantiate q tuple) ]
      | Given (sigma, q, tuple) ->
          let dnum, dden = Conditional.cond_decomp ~k ~sigma inst q tuple in
          [ dnum; dden ]
  in
  if
    List.exists (fun d -> d.Decomp.verdict = Decomp.Decomposable) certificates
    && List.for_all (fun d -> Decomp.plan d <> None) certificates
  then Ok (Factorized certificates)
  else Ok Monolithic

let plan d = Option.get (Decomp.plan d)

(* A sweep whose space does not fit in an int would spin forever.
   Both routes sweep the monolithic set (the nulls of D, ā and Σ), but
   a factorized one only enumerates its components' spaces — the
   free-null factor is bigint arithmetic. Checked plan by plan, then k
   by k, then component by component. *)
let preflight inst target route ~ks =
  let nulls =
    List.sort_uniq Int.compare
      (Relational.Instance.nulls inst
      @
      match target with
      | Answer (_, tuple) -> Tuple.nulls tuple
      | Given (sigma, _, tuple) -> Tuple.nulls tuple @ Logic.Formula.nulls sigma
      )
  in
  let total_nulls = List.length nulls in
  let plans =
    match route with
    | Monolithic -> [ [ (None, nulls) ] ]
    | Factorized ds ->
        List.map
          (fun d ->
            List.mapi
              (fun i (c : Factor.component) -> (Some (i + 1), c.Factor.c_nulls))
              (plan d).Factor.components)
          ds
  in
  let over k (component, nulls) =
    match Incomplete.Enumerate.space_size_exn ~nulls ~k with
    | _ -> None
    | exception Arith.Bigint.Overflow size ->
        Some
          (match component with
          | None -> Space_too_large { k; nulls = total_nulls; size }
          | Some component ->
              Component_too_large
                { k; component; nulls = List.length nulls; total_nulls; size })
  in
  match
    List.find_map
      (fun spaces -> List.find_map (fun k -> List.find_map (over k) spaces) ks)
      plans
  with
  | None -> Ok ()
  | Some e -> Error e

let series ?jobs ?guard ?cache inst target route ~ks =
  let* () = check_ks ks in
  let* () = preflight inst target route ~ks in
  match (target, route) with
  | Answer (q, tuple), Monolithic ->
      Ok (Incomplete.Support.mu_k_series ?jobs ?guard ?cache inst q tuple ~ks)
  | Answer _, Factorized [ d ] ->
      Ok
        (Incomplete.Support.mu_k_series_plan ?jobs ?guard ?cache inst (plan d)
           ~ks)
  | Given (sigma, q, tuple), Monolithic ->
      Ok
        (List.map
           (fun k ->
             ( k,
               Conditional.mu_cond_k ?jobs ?guard ?cache ~sigma inst q tuple ~k
             ))
           ks)
  | Given _, Factorized [ num; den ] ->
      Ok
        (Conditional.mu_cond_k_series_plans ?jobs ?guard ?cache
           ~num_plan:(plan num) ~den_plan:(plan den) inst ~ks)
  | _, Factorized _ -> invalid_arg "Pipeline.series: route of another target"

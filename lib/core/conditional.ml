module Instance = Relational.Instance
module Tuple = Relational.Tuple
module Query = Logic.Query
module Formula = Logic.Formula
module Enumerate = Incomplete.Enumerate
module Support = Incomplete.Support
module Poly = Arith.Poly
module Rat = Arith.Rat
module B = Arith.Bigint

type report = {
  numerator : Poly.t;
  denominator : Poly.t;
  value : Rat.t;
  census : Support_poly.t;
}

let mu_cond_report ?jobs ?guard ?cache ~sigma inst q tuple =
  Obs.Trace.span "conditional.report" @@ fun () ->
  let answer = Query.instantiate q tuple in
  (* One class pass takes the census of Σ∧Q and Σ together; with ?jobs
     the pass is chunked over domains, so the numerator and
     denominator tallies are accumulated concurrently. *)
  let census =
    Support_poly.of_sentences ?jobs ?guard ?cache inst
      [ Formula.And (sigma, answer); sigma ]
  in
  match census.Support_poly.polys with
  | [ numerator; denominator ] ->
      let value = Support_poly.limit numerator denominator in
      { numerator; denominator; value; census }
  | _ -> assert false

let mu_cond ?jobs ?cache ~sigma inst q tuple =
  (mu_cond_report ?jobs ?cache ~sigma inst q tuple).value

let mu_cond_boolean ?jobs ?cache ~sigma inst q =
  if Query.arity q <> 0 then
    invalid_arg "Conditional.mu_cond_boolean: query not Boolean"
  else mu_cond ?jobs ?cache ~sigma inst q Tuple.empty

let mu_cond_deps ?jobs ?cache schema deps inst q tuple =
  mu_cond ?jobs ?cache
    ~sigma:(Constraints.Dependency.set_to_formula schema deps) inst q tuple

let mu_cond_deps_direct ?jobs deps inst q tuple =
  let answer = Query.instantiate q tuple in
  (* Dependencies mention no constants, so the anchor set only needs the
     database's constants and those of Q(ā). *)
  let anchor_set = Incomplete.Support.anchor_set_sentences inst [ answer ] in
  let nulls =
    List.sort_uniq Int.compare (Instance.nulls inst @ Tuple.nulls tuple)
  in
  let sigma_holds _v complete = Constraints.Dependency.all_hold complete deps in
  (* [of_predicates] already materialized v(D) for the dependency
     check; reuse it for the answer sentence instead of completing the
     instance a second time. *)
  let answer_holds v complete =
    Logic.Eval.sentence_holds complete
      (Formula.map_values (Incomplete.Valuation.value v) answer)
  in
  let both v complete = sigma_holds v complete && answer_holds v complete in
  let sp =
    Support_poly.of_predicates ?jobs ~anchor_set ~nulls inst
      [ both; sigma_holds ]
  in
  match sp.Support_poly.polys with
  | [ numerator; denominator ] -> Support_poly.limit numerator denominator
  | _ -> assert false

let mu_cond_k ?jobs ?guard ?cache ~sigma inst q tuple ~k =
  Obs.Trace.span "conditional.mu_k" ~attrs:[ ("k", string_of_int k) ]
  @@ fun () ->
  let answer = Query.instantiate q tuple in
  let nulls =
    List.sort_uniq Int.compare
      (Instance.nulls inst @ Tuple.nulls tuple @ Formula.nulls sigma)
  in
  let db = Support.kernel_db ?cache inst in
  (* The exhaustive sweep: each chunk compiles its own Σ and Q(ā)
     kernels, steps one odometer through its rank range and feeds their
     digit fast path — an answer check only when Σ holds. Bigint
     partial sums are exact, so any chunking gives the sequential
     pair. *)
  let num, den =
    Exec.Pool.fold_range ?jobs ?guard ~min_work:512
      ~n:(Enumerate.space_size_exn ~nulls ~k)
      ~chunk:(fun lo hi ->
        let sig_kern = Incomplete.Kernel.compile db sigma in
        let ans_kern = Incomplete.Kernel.compile db answer in
        Incomplete.Kernel.prepare_digits sig_kern ~nulls;
        Incomplete.Kernel.prepare_digits ans_kern ~nulls;
        Obs.Metrics.add Obs.Metrics.valuations_evaluated (hi - lo);
        Obs.Metrics.add Obs.Metrics.kernel_refreshes (hi - lo);
        let num, den =
          Enumerate.fold_digits_range ~nulls ~k ~lo ~hi
            (fun ((num, den) as acc) digits ->
              if Incomplete.Kernel.holds_digits sig_kern digits then begin
                Obs.Metrics.incr Obs.Metrics.valuations_evaluated;
                Obs.Metrics.incr Obs.Metrics.kernel_refreshes;
                let num =
                  if Incomplete.Kernel.holds_digits ans_kern digits then
                    num + 1
                  else num
                in
                (num, den + 1)
              end
              else acc)
            (0, 0)
        in
        (B.of_int num, B.of_int den))
      ~combine:(fun (n1, d1) (n2, d2) -> (B.add n1 n2, B.add d1 d2))
      (B.zero, B.zero)
  in
  if B.is_zero den then Rat.zero else Rat.make num den

(* Factorized µ^k(Q|Σ): numerator and denominator counts factorize
   independently (Σ∧Q(ā) and Σ have their own interaction graphs),
   but both plans must sweep the same null set — the one the
   monolithic pass above uses — so the quotient is the identical
   reduced rational. [cond_decomp] builds both certificates on that
   shared sweep. *)
let cond_decomp ?k ~sigma inst q tuple =
  let answer = Query.instantiate q tuple in
  let extra =
    List.sort_uniq Int.compare (Tuple.nulls tuple @ Formula.nulls sigma)
  in
  ( Analysis.Decomp.analyze ?k ~extra_nulls:extra inst
      (Formula.And (sigma, answer)),
    Analysis.Decomp.analyze ?k ~extra_nulls:extra inst sigma )

let mu_cond_k_plans ?jobs ?guard ?cache ~num_plan ~den_plan inst ~k =
  Obs.Trace.span "conditional.mu_k"
    ~attrs:[ ("k", string_of_int k); ("decomp", "1") ]
  @@ fun () ->
  let count plan = Support.supp_count_plan ?jobs ?guard ?cache inst plan ~k in
  let den = count den_plan in
  if B.is_zero den then Rat.zero else Rat.make (count num_plan) den

let mu_implication ?jobs ?cache ~sigma inst q tuple =
  let answer = Query.instantiate q tuple in
  let sp =
    Support_poly.of_sentences ?jobs ?cache inst
      [ Formula.Or (Formula.Not sigma, answer) ]
  in
  match sp.Support_poly.polys with
  | [ p ] -> Support_poly.limit p sp.Support_poly.total
  | _ -> assert false

type strategy = Chase_fds | Symbolic

let strategy deps tuple =
  if
    (Analysis.Classify.constraint_class deps).Analysis.Classify.fd_only
    && not (Tuple.has_null tuple)
  then Chase_fds
  else Symbolic

let mu_cond_chased outcome q tuple =
  if Tuple.has_null tuple then
    invalid_arg "Conditional.mu_cond_chased: tuple must be null-free"
  else begin
    match outcome with
    | Constraints.Chase.Failure _ -> Rat.zero
    | Constraints.Chase.Success chased ->
        if Incomplete.Naive.tuple_in chased q tuple then Rat.one else Rat.zero
  end

let mu_cond_fds fds inst q tuple =
  if Tuple.has_null tuple then
    invalid_arg "Conditional.mu_cond_fds: tuple must be null-free"
  else mu_cond_chased (Constraints.Chase.chase fds inst) q tuple

let mu_cond_auto ?jobs ?cache schema deps inst q tuple =
  match strategy deps tuple with
  | Chase_fds ->
      let fds = Constraints.Dependency.fds_of_schema schema deps in
      (Chase_fds, mu_cond_fds fds inst q tuple)
  | Symbolic -> (Symbolic, mu_cond_deps ?jobs ?cache schema deps inst q tuple)

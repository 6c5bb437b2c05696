module Instance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Query = Logic.Query
module Formula = Logic.Formula

let all_nulls_split split tuple =
  List.sort_uniq Int.compare (Split.nulls split @ Tuple.nulls tuple)

(* Short-circuiting check: certainty needs every class to witness, so
   stop at the first refuting class (possibility dually at the first
   witnessing one) instead of checking every class. The metric
   counts each early stop that actually skipped at least one item. *)
let rec for_all_sc p = function
  | [] -> true
  | [ x ] -> p x
  | x :: rest ->
      if p x then for_all_sc p rest
      else begin
        Obs.Metrics.incr Obs.Metrics.short_circuits;
        false
      end

let rec exists_sc p = function
  | [] -> false
  | [ x ] -> p x
  | x :: rest ->
      if p x then begin
        Obs.Metrics.incr Obs.Metrics.short_circuits;
        true
      end
      else exists_sc p rest

let check_candidate ~all db q tuple =
  let split = Kernel.split db in
  let sentence = Query.instantiate q tuple in
  let anchor_set = Support.anchor_set_sentences_split split [ sentence ] in
  let nulls = all_nulls_split split tuple in
  (* The kernel is compiled for this call alone. *)
  let chk = Support.checker db sentence in
  let verdict c = Support.check chk (Classes.representative ~anchor_set c) in
  let classes = Classes.enumerate ~anchor_set ~nulls in
  if all then for_all_sc verdict classes else exists_sc verdict classes

let is_certain ?cache inst q tuple =
  check_candidate ~all:true (Support.kernel_db ?cache inst) q tuple

let is_possible ?cache inst q tuple =
  check_candidate ~all:false (Support.kernel_db ?cache inst) q tuple

let candidates inst m =
  List.map Tuple.of_list (Arith.Combinat.tuples (Instance.adom inst) m)

(* The candidate sweep is embarrassingly parallel: each candidate's
   certainty check is independent, and the per-chunk result relations
   are merged with set union (commutative), combined in chunk order.
   Candidates are few but each check sweeps equivalence classes, so
   even tiny ranges are worth a pool task.

   Candidates are drawn from adom^m, so their constants and nulls are
   already the database's: the anchor set, the class list and the
   class representatives are the same for every candidate and are
   computed once, outside the sweep. Only the instantiated sentence
   (and its compiled checker) is per-candidate. *)
let filter_candidates ?jobs ?guard ?cache ~all inst q =
  Obs.Trace.span "certain.sweep"
    ~attrs:[ ("all", string_of_bool all); ("arity", string_of_int (Query.arity q)) ]
  @@ fun () ->
  let m = Query.arity q in
  let db = Support.kernel_db ?cache inst in
  let split = Kernel.split db in
  let anchor_set =
    Support.anchor_set_sentences_split split [ q.Query.body ]
  in
  let nulls =
    List.sort_uniq Int.compare
      (Split.nulls split @ Formula.nulls q.Query.body)
  in
  let representatives =
    List.map
      (Classes.representative ~anchor_set)
      (Classes.enumerate ~anchor_set ~nulls)
  in
  let cands = Array.of_list (candidates inst m) in
  Exec.Pool.fold_range ?jobs ?guard ~min_work:4 ~n:(Array.length cands)
    ~chunk:(fun lo hi ->
      let rel = ref (Relation.empty m) in
      for i = lo to hi - 1 do
        (* Every candidate has its own instantiated sentence, compiled
           once, inside the chunk that checks it. *)
        let chk = Support.checker db (Query.instantiate q cands.(i)) in
        let keep =
          if all then for_all_sc (Support.check chk) representatives
          else exists_sc (Support.check chk) representatives
        in
        if keep then rel := Relation.add cands.(i) !rel
      done;
      !rel)
    ~combine:Relation.union (Relation.empty m)

let certain_answers_enumerated ?jobs ?guard ?cache inst q =
  filter_candidates ?jobs ?guard ?cache ~all:true inst q

(* Fragment dispatch (Corollary 3): for queries within Pos∀G naïve
   evaluation computes certain answers, so the class enumeration is
   unnecessary. Restricted to constant-free queries so that the naïve
   evaluation domain (adom + query constants) coincides with the
   candidate space adom^m of the enumeration path; queries with
   constants keep the exact path. *)
let certain_answers ?jobs ?guard ?cache inst q =
  if
    Logic.Fragment.naive_eval_sound
      (Logic.Fragment.classify q.Query.body)
    && Query.constants q = []
  then Naive.answers inst q
  else certain_answers_enumerated ?jobs ?guard ?cache inst q

let certain_answers_null_free ?jobs ?guard ?cache inst q =
  Relation.filter
    (fun t -> not (Tuple.has_null t))
    (certain_answers ?jobs ?guard ?cache inst q)

let possible_answers ?jobs ?guard ?cache inst q =
  filter_candidates ?jobs ?guard ?cache ~all:false inst q

let sentence_classes ?cache inst sentence =
  let db = Support.kernel_db ?cache inst in
  let split = Kernel.split db in
  let anchor_set = Support.anchor_set_sentences_split split [ sentence ] in
  let nulls =
    List.sort_uniq Int.compare (Split.nulls split @ Formula.nulls sentence)
  in
  let chk = Support.checker db sentence in
  List.map
    (fun c -> Support.check chk (Classes.representative ~anchor_set c))
    (Classes.enumerate ~anchor_set ~nulls)

let is_certain_sentence ?cache inst sentence =
  List.for_all Fun.id (sentence_classes ?cache inst sentence)

let is_possible_sentence ?cache inst sentence =
  List.exists Fun.id (sentence_classes ?cache inst sentence)

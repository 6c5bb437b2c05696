module Instance = Relational.Instance
module Tuple = Relational.Tuple
module Query = Logic.Query
module Formula = Logic.Formula
module Eval = Logic.Eval
module B = Arith.Bigint
module Rat = Arith.Rat

let anchor_set inst q =
  List.sort_uniq Int.compare (Query.constants q @ Instance.constants inst)

let anchor_set_sentences inst sentences =
  List.sort_uniq Int.compare
    (Instance.constants inst @ List.concat_map Formula.constants sentences)

let anchor_set_sentences_split split sentences =
  (* Same anchor set, but from the constants hoisted at split time —
     no Instance.constants re-fold per call. *)
  List.sort_uniq Int.compare
    (Split.constants split @ List.concat_map Formula.constants sentences)

type space = {
  anchor_set : int list;
  nulls : int list;
  classes : Classes.t list;
}

let space db sentences =
  let split = Kernel.split db in
  let anchor_set = anchor_set_sentences_split split sentences in
  let nulls =
    List.sort_uniq Int.compare
      (Split.nulls split @ List.concat_map Formula.nulls sentences)
  in
  { anchor_set; nulls; classes = Classes.enumerate ~anchor_set ~nulls }

(* ------------------------------------------------------------------ *)
(* Kernel-db cache                                                     *)
(* ------------------------------------------------------------------ *)

type cache = { dbs : (int, Kernel.db) Exec.Cache.t }
(* instance generation ↦ its split + indexed form. Keyed by the
   monotone Instance.generation stamp, so after a mutation the new
   instance can never be served the old kernel db; a session update
   pre-installs the delta-maintained db under the new stamp
   ({!install_kernel_db}). Capped: old generations age out. *)

let default_dbs_cap = 4

let create_cache () =
  { dbs = Exec.Cache.create ~size:8 ~max_entries:default_dbs_cap () }

(* Besides the cache, every kernel db is memoized on the instance
   value it presents (Instance.memo), so a call that holds only the
   instance — the naive evaluation of a session's instance, say —
   reuses the db its session built or installed instead of splitting
   and indexing again. The memo dies with the instance. *)
type Instance.derived += Kernel_db of Kernel.db

let memoized inst =
  match Instance.memo inst with
  | Some (Kernel_db db) -> db
  | _ ->
      let db = Kernel.db_of_instance inst in
      Instance.memoize inst (Kernel_db db);
      db

let kernel_db ?cache inst =
  match cache with
  | None -> memoized inst
  | Some c ->
      Exec.Cache.find_or_add c.dbs (Instance.generation inst) (fun () ->
          memoized inst)

let install_kernel_db c db =
  Instance.memoize (Kernel.instance db) (Kernel_db db);
  ignore
    (Exec.Cache.find_or_add c.dbs (Kernel.db_generation db) (fun () -> db))

(* ------------------------------------------------------------------ *)
(* Support checks                                                      *)
(* ------------------------------------------------------------------ *)

(* [valuations_evaluated] counts verdict requests — one per valuation
   submitted to a support check — so the metric equals the number of
   valuations (or class representatives) evaluated. *)
let sentence_in_support inst sentence v =
  Obs.Metrics.incr Obs.Metrics.valuations_evaluated;
  let complete = Valuation.instance v inst in
  let concrete = Formula.map_values (Valuation.value v) sentence in
  Eval.sentence_holds complete concrete

let sentence_in_support_naive = sentence_in_support

let in_support inst q tuple v =
  if Tuple.arity tuple <> Query.arity q then
    invalid_arg "Support.in_support: arity mismatch"
  else sentence_in_support inst (Query.instantiate q tuple) v

(* ------------------------------------------------------------------ *)
(* Hoisted checkers: one kernel per loop, not one instance per check   *)
(* ------------------------------------------------------------------ *)

type checker = Kernel.t

let checker = Kernel.compile

let check kern v =
  Obs.Metrics.incr Obs.Metrics.valuations_evaluated;
  Kernel.holds kern v

(* ------------------------------------------------------------------ *)
(* µ^k by (possibly parallel) enumeration                              *)
(* ------------------------------------------------------------------ *)

(* Below this many valuations the chunking overhead dominates and the
   fold stays in one piece on the calling domain. *)
let parallel_threshold = 512

let all_nulls inst tuple =
  List.sort_uniq Int.compare (Instance.nulls inst @ Tuple.nulls tuple)

(* Count the valuations of V^k satisfying the compiled sentence,
   splitting the rank space across pool domains. Each chunk compiles
   its own kernel, seeds an odometer at its first rank and runs the
   kernel's digit fast path — no Valuation.t, no allocation per
   valuation, and no scratch shared with any other chunk.

   Per-chunk subcounts fit in [int] because the whole space does; they
   are summed as bigints in chunk order — bit-identical to the
   sequential count since addition is exact. A space past [max_int]
   raises [Bigint.Overflow] up front: no enumeration of it could
   finish. *)
let count_satisfying ?jobs ?guard ~db ~sentence ~nulls ~k () =
  Obs.Trace.span "support.count"
    ~attrs:
      [ ("k", string_of_int k); ("nulls", string_of_int (List.length nulls)) ]
  @@ fun () ->
  Exec.Pool.fold_range ?jobs ?guard ~min_work:parallel_threshold
    ~n:(Enumerate.space_size_exn ~nulls ~k)
    ~chunk:(fun lo hi ->
      let kern = Kernel.compile db sentence in
      Kernel.prepare_digits kern ~nulls;
      (* Every digit vector is a verdict request and a kernel refresh;
         counted in bulk to keep the loop branch-free. *)
      Obs.Metrics.add Obs.Metrics.valuations_evaluated (hi - lo);
      Obs.Metrics.add Obs.Metrics.kernel_refreshes (hi - lo);
      let count =
        Enumerate.fold_digits_range ~nulls ~k ~lo ~hi
          (fun count digits ->
            if Kernel.holds_digits kern digits then count + 1 else count)
          0
      in
      B.of_int count)
    ~combine:B.add B.zero

(* ------------------------------------------------------------------ *)
(* µ^k over a decomposition plan                                       *)
(* ------------------------------------------------------------------ *)

(* One kernel db per component, hoisted so a µ^k series splits and
   indexes each component once. A one-component plan whose restriction
   would drop no tuple (every relation it leaves out is empty) sweeps
   the whole instance — the monolithic sweep, {!Factor.whole} — so it
   runs on [kernel_db ?cache inst], cached per generation and
   delta-maintained across updates, instead of a rebuilt copy. The
   components of a real decomposition run on their own restrictions.
   [?cache] serves only that kernel db. *)
type compiled_plan = {
  cp_parts : (Kernel.db * Formula.t * int list) list;
      (* kernel db, component sentence, component nulls *)
  cp_free : int list;
  cp_all : int list;
}

let compile_plan ?cache inst (plan : Factor.plan) =
  let covers (c : Factor.component) =
    List.for_all
      (fun r ->
        List.mem r c.Factor.c_relations
        || Relational.Relation.is_empty (Instance.relation inst r))
      (Relational.Schema.relations (Instance.schema inst))
  in
  let db_of c =
    match plan.Factor.components with
    | [ _ ] when covers c -> kernel_db ?cache inst
    | _ ->
        Kernel.db_of_instance
          (Factor.restricted_instance inst c.Factor.c_relations)
  in
  { cp_parts =
      List.map
        (fun (c : Factor.component) ->
          (db_of c, c.Factor.c_sentence, c.Factor.c_nulls))
        plan.Factor.components;
    cp_free = plan.Factor.free_nulls;
    cp_all = plan.Factor.all_nulls
  }

(* [∏ᵢ |Suppᵢ| · k^f]: each component is swept on its own space. *)
let supp_count_compiled ?jobs ?guard cp ~k =
  List.fold_left
    (fun acc (db, sentence, nulls) ->
      B.mul acc (count_satisfying ?jobs ?guard ~db ~sentence ~nulls ~k ()))
    (Enumerate.count ~nulls:cp.cp_free ~k)
    cp.cp_parts

(* µ^k = |Supp^k| / k^m, and 0 on the empty space (k = 0 with m > 0)
   — one quotient for every plan, so a factorized series is the
   monolithic one by construction, k = 0 included. *)
let mu_k_compiled ?jobs ?guard cp ~k =
  let total = Enumerate.count ~nulls:cp.cp_all ~k in
  let count = supp_count_compiled ?jobs ?guard cp ~k in
  if B.is_zero total then Rat.zero else Rat.make count total

let supp_count_plan ?jobs ?guard ?cache inst plan ~k =
  supp_count_compiled ?jobs ?guard (compile_plan ?cache inst plan) ~k

let mu_k_plan ?jobs ?guard ?cache inst plan ~k =
  mu_k_compiled ?jobs ?guard (compile_plan ?cache inst plan) ~k

let mu_k_series_plan ?jobs ?guard ?cache inst plan ~ks =
  let cp = compile_plan ?cache inst plan in
  List.map (fun k -> (k, mu_k_compiled ?jobs ?guard cp ~k)) ks

(* The monolithic sweep over V^k(D) of Q(ā). *)
let whole_plan inst q tuple =
  if Tuple.arity tuple <> Query.arity q then
    invalid_arg "Support.in_support: arity mismatch";
  Factor.whole inst (Query.instantiate q tuple) ~nulls:(all_nulls inst tuple)

let supp_count ?jobs ?guard ?cache inst q tuple ~k =
  supp_count_plan ?jobs ?guard ?cache inst (whole_plan inst q tuple) ~k

let mu_k ?jobs ?guard ?cache inst q tuple ~k =
  mu_k_plan ?jobs ?guard ?cache inst (whole_plan inst q tuple) ~k

let mu_k_boolean ?jobs ?guard ?cache inst q ~k =
  if Query.arity q <> 0 then invalid_arg "Support.mu_k_boolean: query not Boolean"
  else mu_k ?jobs ?guard ?cache inst q Tuple.empty ~k

let mu_k_series ?jobs ?guard ?cache inst q tuple ~ks =
  mu_k_series_plan ?jobs ?guard ?cache inst (whole_plan inst q tuple) ~ks

module Instance = Relational.Instance
module Tuple = Relational.Tuple
module Query = Logic.Query
module Formula = Logic.Formula
module Classes = Incomplete.Classes
module Support = Incomplete.Support
module Split = Incomplete.Split
module Kernel = Incomplete.Kernel
module Poly = Arith.Poly

type t = {
  anchor_set : int list;
  nulls : int list;
  polys : Poly.t list;
  total : Poly.t;
}

(* Both constructors fold one pass over the equivalence classes,
   accumulating one polynomial per sentence/predicate. The class list
   is carved into contiguous chunks on pool domains; each chunk calls
   [mk_weigh ()] to build its own weigher, so mutable evaluation state
   (the compiled kernels, single-threaded and memoized per domain via
   [Support.domain_checker]) is never shared across domains.
   Per-chunk partial sums are merged with Poly.add, whose
   bigint-rational coefficients make the sum exact and
   order-independent — parallel results are bit-identical to
   sequential ones. Classes below don't share work, so even short
   class lists benefit from a second domain. *)
let sum_over_classes ?jobs ~width classes mk_weigh =
  Obs.Trace.span "support_poly.sum"
    ~attrs:[ ("classes", string_of_int (List.length classes)) ]
  @@ fun () ->
  let zero = List.map (fun _ -> Poly.zero) width in
  Exec.Pool.fold_list ?jobs ~min_work:8
    ~chunk:(fun chunk -> List.fold_left (mk_weigh ()) zero chunk)
    ~combine:(List.map2 Poly.add) zero classes

let of_predicates ?jobs ~anchor_set ~nulls inst predicates =
  let classes = Classes.enumerate ~anchor_set ~nulls in
  (* The instance is split once; each representative completion then
     only touches the null-carrying tuples on top of the shared ground
     fragment. *)
  let split = Split.of_instance inst in
  let polys =
    sum_over_classes ?jobs ~width:predicates classes (fun () acc cls ->
        let v = Classes.representative ~anchor_set cls in
        let complete = Split.complete split v in
        let weight = Classes.count_poly ~anchor_set cls in
        List.map2
          (fun p predicate ->
            if predicate v complete then Poly.add p weight else p)
          acc predicates)
  in
  { anchor_set; nulls; polys; total = Poly.pow Poly.x (List.length nulls) }

let of_sentences ?jobs ?cache inst sentences =
  let db = Support.kernel_db ?cache inst in
  let split = Kernel.split db in
  let anchor_set = Support.anchor_set_sentences_split split sentences in
  let nulls =
    List.sort_uniq Int.compare
      (Split.nulls split @ List.concat_map Formula.nulls sentences)
  in
  let classes = Classes.enumerate ~anchor_set ~nulls in
  let polys =
    (* Class representatives repeat across calls (and across the two
       sentences of a conditional report), so the verdict cache stays
       on; the kernels behind the checkers are memoized per pool
       domain, so chunks landing on one domain share a compile. *)
    sum_over_classes ?jobs ~width:sentences classes (fun () ->
        let checkers =
          List.map (fun s -> Support.domain_checker ?cache db s) sentences
        in
        fun acc cls ->
          let v = Classes.representative ~anchor_set cls in
          let weight = Classes.count_poly ~anchor_set cls in
          List.map2
            (fun p chk -> if Support.check chk v then Poly.add p weight else p)
            acc checkers)
  in
  { anchor_set;
    nulls;
    polys;
    total = Poly.pow Poly.x (List.length nulls)
  }

let of_sentence ?jobs ?cache inst sentence =
  match (of_sentences ?jobs ?cache inst [ sentence ]).polys with
  | [ p ] -> p
  | _ -> assert false

let of_query ?jobs ?cache inst q tuple =
  of_sentence ?jobs ?cache inst (Query.instantiate q tuple)

let mu_k_exact t ~sentence ~k =
  let p = List.nth t.polys sentence in
  let total = Poly.eval_int t.total k in
  if Arith.Rat.is_zero total then Arith.Rat.zero
  else Arith.Rat.div (Poly.eval_int p k) total

let limit num den =
  match Poly.limit_ratio num den with
  | Poly.Finite r -> r
  | Poly.Undefined -> Arith.Rat.zero
  | Poly.Infinite ->
      (* impossible for supports: every caller's numerator counts a
         subset of what its denominator counts *)
      assert false

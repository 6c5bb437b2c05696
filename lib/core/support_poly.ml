module Query = Logic.Query
module Classes = Incomplete.Classes
module Support = Incomplete.Support
module Split = Incomplete.Split
module Poly = Arith.Poly
module B = Arith.Bigint
module Rat = Arith.Rat

type t = {
  anchor_set : int list;
  nulls : int list;
  census : int array list;
  polys : Poly.t list;
  total : Poly.t;
}

(* The census key of a class: [f * (|A| + 1) + j], where [f] counts
   its free blocks and [j] is the 1-based position in the sorted
   anchor set of the largest anchor it uses (0 for none). Counting the
   class's members at a given [k] needs nothing else. *)
let census_key ~anchor_set =
  let stride = List.length anchor_set + 1 in
  let position = Hashtbl.create stride in
  List.iteri (fun i a -> Hashtbl.replace position a (i + 1)) anchor_set;
  fun (cls : Classes.t) ->
    let f, j =
      List.fold_left
        (fun (f, j) -> function
          | None -> (f + 1, j)
          | Some a -> (f, max j (Hashtbl.find position a)))
        (0, 0) cls.Classes.anchors
    in
    (f * stride) + j

(* Both constructors fold one pass over the equivalence classes,
   tallying the satisfying classes of each sentence/predicate by census
   key in a plain int array. The class list is carved into contiguous
   chunks on pool domains; each chunk calls [mk_checks ()] to build
   its own checkers, so mutable evaluation state (the compiled kernels,
   single-threaded) belongs to one chunk and is never shared, whether
   with another domain or with a concurrent request on the same one.
   Tallies merge by element-wise addition, so parallel results are
   bit-identical to sequential ones.

   A class costs a representative and a kernel verdict — microseconds,
   not the nanoseconds of one sweep valuation — so besides the pool's
   guard call before each chunk, each chunk polls [guard] every 256
   classes: a deadline cancels the pass promptly. *)
let sum_over_classes ?jobs ?guard ~anchor_set ~nulls ~width classes
    mk_checks =
  Obs.Trace.span "support_poly.sum"
    ~attrs:[ ("classes", string_of_int (List.length classes)) ]
  @@ fun () ->
  let key = census_key ~anchor_set in
  let size = (List.length nulls + 1) * (List.length anchor_set + 1) in
  let zero () = List.map (fun _ -> Array.make size 0) width in
  let poll = match guard with Some g -> g | None -> ignore in
  Exec.Pool.fold_list ?jobs ?guard ~min_work:8
    ~chunk:(fun chunk ->
      let checks = mk_checks () in
      let tallies = zero () in
      List.iteri
        (fun i cls ->
          if i land 255 = 255 then poll ();
          let slot = key cls in
          List.iter2
            (fun tally holds -> if holds then tally.(slot) <- tally.(slot) + 1)
            tallies (checks cls))
        chunk;
      tallies)
    ~combine:(List.map2 (Array.map2 ( + )))
    (zero ()) classes

(* Σ_f n_f · (k−|A|)(k−|A|−1)⋯(k−|A|−f+1), n_f summed over every
   anchor position: the sum of the class polynomials, at most m+1
   terms. *)
let poly_of_census ~anchor_set ~nulls tally =
  let stride = List.length anchor_set + 1 in
  Poly.sum
    (List.init
       (List.length nulls + 1)
       (fun f ->
         let n = Array.fold_left ( + ) 0 (Array.sub tally (f * stride) stride) in
         if n = 0 then Poly.zero
         else
           Poly.scale (Rat.of_int n)
             (Poly.falling_factorial ~shift:(List.length anchor_set) f)))

let make ~anchor_set ~nulls census =
  { anchor_set;
    nulls;
    census;
    polys = List.map (poly_of_census ~anchor_set ~nulls) census;
    total = Poly.pow Poly.x (List.length nulls)
  }

let of_predicates ?jobs ~anchor_set ~nulls inst predicates =
  let anchor_set = List.sort_uniq Int.compare anchor_set in
  let classes = Classes.enumerate ~anchor_set ~nulls in
  (* The instance is split once; each representative completion then
     only touches the null-carrying tuples on top of the shared ground
     fragment. *)
  let split = Split.of_instance inst in
  make ~anchor_set ~nulls
    (sum_over_classes ?jobs ~anchor_set ~nulls ~width:predicates
       classes (fun () cls ->
         let v = Classes.representative ~anchor_set cls in
         let complete = Split.complete split v in
         List.map (fun predicate -> predicate v complete) predicates))

let of_sentences ?jobs ?guard ?cache inst sentences =
  let db = Support.kernel_db ?cache inst in
  let { Support.anchor_set; nulls; classes } = Support.space db sentences in
  (* Each chunk compiles the kernels behind its own checkers. *)
  make ~anchor_set ~nulls
    (sum_over_classes ?jobs ?guard ~anchor_set ~nulls ~width:sentences
       classes (fun () ->
         let checkers = List.map (Support.checker db) sentences in
         fun cls ->
           let v = Classes.representative ~anchor_set cls in
           List.map (fun chk -> Support.check chk v) checkers))

let of_sentence ?jobs ?cache inst sentence =
  match (of_sentences ?jobs ?cache inst [ sentence ]).polys with
  | [ p ] -> p
  | _ -> assert false

let of_query ?jobs ?cache inst q tuple =
  of_sentence ?jobs ?cache inst (Query.instantiate q tuple)

(* A valuation into {c1..ck} lies in exactly one class. Its anchored
   blocks need their anchor among the a_k anchor codes ≤ k — so the
   class's largest anchor sits at a position j ≤ a_k — and its f free
   blocks go injectively into the k − a_k codes of {c1..ck} outside A:
   (k−a_k)(k−a_k−1)⋯(k−a_k−f+1) members, 0 once f > k − a_k. *)
let supp_count t ~sentence ~k =
  if k < 0 then invalid_arg "Support_poly.supp_count: negative k";
  let tally = List.nth t.census sentence in
  let stride = List.length t.anchor_set + 1 in
  let a_k = List.length (List.filter (fun a -> a <= k) t.anchor_set) in
  let rec go f members count =
    if f > List.length t.nulls then count
    else
      let n = Array.fold_left ( + ) 0 (Array.sub tally (f * stride) (a_k + 1)) in
      let count = B.add count (B.mul_int members n) in
      go (f + 1) (B.mul_int members (k - a_k - f)) count
  in
  go 0 B.one B.zero

let mu_k_exact t ~sentence ~k =
  let total = B.pow (B.of_int k) (List.length t.nulls) in
  if B.is_zero total then Rat.zero
  else Rat.make (supp_count t ~sentence ~k) total

let limit num den =
  match Poly.limit_ratio num den with
  | Poly.Finite r -> r
  | Poly.Undefined -> Rat.zero
  | Poly.Infinite ->
      (* impossible for supports: every caller's numerator counts a
         subset of what its denominator counts *)
      assert false

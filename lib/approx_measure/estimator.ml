module Instance = Relational.Instance
module Tuple = Relational.Tuple
module Query = Logic.Query
module F = Logic.Formula
module B = Arith.Bigint
module R = Arith.Rat
module Support = Incomplete.Support
module Enumerate = Incomplete.Enumerate
module Valuation = Incomplete.Valuation
module Kernel = Incomplete.Kernel

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let rat_of_string s =
  let s = String.trim s in
  let invalid () =
    Error (Printf.sprintf "expected a decimal or p/q fraction, got %S" s)
  in
  match String.index_opt s '.' with
  | None ->
      (* "p" or "p/q" — Rat.of_string's grammar. *)
      let ok =
        match String.split_on_char '/' s with
        | [ p ] -> is_digits p
        | [ p; q ] -> is_digits p && is_digits q && q <> String.make (String.length q) '0'
        | _ -> false
      in
      if ok then Ok (R.of_string s) else invalid ()
  | Some i ->
      let int_part = String.sub s 0 i in
      let frac = String.sub s (i + 1) (String.length s - i - 1) in
      if (int_part = "" && frac = "")
         || (int_part <> "" && not (is_digits int_part))
         || (frac <> "" && not (is_digits frac))
      then invalid ()
      else
        let int_part = if int_part = "" then "0" else int_part in
        let frac = if frac = "" then "0" else frac in
        let scale = B.pow (B.of_int 10) (String.length frac) in
        let num = B.add (B.mul (B.of_string int_part) scale) (B.of_string frac) in
        Ok (R.make num scale)

let check_prob name v =
  if R.compare v R.zero <= 0 || R.compare v R.one >= 0 then
    invalid_arg (Printf.sprintf "Estimator: %s must lie in (0, 1)" name)

let sample_size ~eps ~delta =
  check_prob "eps" eps;
  check_prob "delta" delta;
  (* Hoeffding: P(|p̂ − µ| > ε) ≤ 2·exp(−2nε²) ≤ δ once
     n ≥ ln(2/δ) / (2ε²). The float excursion is only this ceiling —
     every reported quantity stays rational. *)
  let e = R.to_float eps and d = R.to_float delta in
  let n = Float.ceil (log (2.0 /. d) /. (2.0 *. e *. e)) in
  Stdlib.max 1 (int_of_float n)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type stratified = {
  s_estimate : R.t;
  s_ci_lo : R.t;
  s_ci_hi : R.t;
  s_samples : int;
  s_strata : int;
}

type t = {
  estimate : R.t;
  ci_lo : R.t;
  ci_hi : R.t;
  samples : int;
  hits : int;
  seed : int;
  eps : R.t;
  delta : R.t;
  stratified : stratified option;
}

type cond = {
  c_estimate : R.t;
  c_ci_lo : R.t;
  c_ci_hi : R.t;
  c_samples : int;
  c_hits_num : int;
  c_hits_den : int;
  c_seed : int;
}

(* ------------------------------------------------------------------ *)
(* Sampling V^k(D), one kernel run per class                           *)
(* ------------------------------------------------------------------ *)

(* Chunks under a guard are capped at 2^16 items by the pool; this
   lower threshold just lets moderate sample counts (~10^3) actually
   fan out. *)
let min_work = 256

(* Class keys (see [class_key]) hashed and compared by value. *)
module Key = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do incr i done;
    !i = n

  (* Multiply-xorshift per position: the table indexes buckets by the
     low bits, and one class usually holds most samples. *)
  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h + a.(i)) * 0x1E3779B97F4A7C15;
      h := !h lxor (!h lsr 29)
    done;
    !h land max_int
end)

(* The proof of Theorem 1: for a C-generic sentence, whether v(D)
   satisfies it depends only on the class of v — the equality pattern
   of the nulls plus the anchors of C ∪ Const(D) they hit
   ({!Incomplete.Classes}). So a sampler needs one kernel run per class
   it meets, not one per sample. Each pool chunk keeps its own table
   from class key to verdict bitmask (bit s: sentence s holds); the
   table dies with the chunk, so nothing is shared between domains or
   outlives a request, and every sample scores exactly the hit the
   kernel returns for it. A sample lives in the table's digit array:
   position i holds the code of the i-th null. *)
type table = {
  nulls : int list;
  anchors : int array;  (* C ∪ Const(D), sorted *)
  checkers : Support.checker list;
  digits : int array;  (* the current sample *)
  key : int array;  (* scratch: the current sample's class key *)
  verdicts : int Key.t;
}

let table ~db ~sentences ~nulls =
  let m = List.length nulls in
  { nulls;
    anchors =
      Array.of_list
        (Support.anchor_set_sentences_split (Kernel.split db) sentences);
    checkers = List.map (Support.checker db) sentences;
    digits = Array.make m 0;
    key = Array.make m 0;
    verdicts = Key.create 64
  }

(* The index of [code] in the sorted anchors, or −1. *)
let anchor_index (anchors : int array) (code : int) =
  let lo = ref 0 and hi = ref (Array.length anchors) and found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let a = anchors.(mid) in
    if a = code then begin
      found := mid;
      lo := !hi
    end
    else if a < code then lo := mid + 1
    else hi := mid
  done;
  !found

(* The class key of the current sample: an anchor code becomes
   −1 − its anchor index, any other code the first position holding
   the same code. Two samples get equal keys iff their classes are
   equal. *)
let class_key t =
  let d = t.digits in
  for i = 0 to Array.length d - 1 do
    let c = d.(i) in
    let ix = anchor_index t.anchors c in
    t.key.(i) <-
      (if ix >= 0 then -1 - ix
       else
         let j = ref 0 in
         while d.(!j) <> c do incr j done;
         !j)
  done

(* The verdict bitmask of the current sample. A class met for the
   first time is checked on this sample, its first member. *)
let verdict t =
  class_key t;
  match Key.find t.verdicts t.key with
  | bits -> bits
  | exception Not_found ->
      let v =
        Valuation.of_list (List.mapi (fun i nl -> (nl, t.digits.(i))) t.nulls)
      in
      let bits, _ =
        List.fold_left
          (fun (bits, bit) chk ->
            ((if Support.check chk v then bits lor bit else bits), bit lsl 1))
          (0, 1) t.checkers
      in
      Key.add t.verdicts (Array.copy t.key) bits;
      bits

(* A uniform member of V^k(D) into [digits]. Small space: a uniform
   rank, decoded mixed-radix with the last null least significant —
   the visit order of the exact sweep. Beyond the int frontier: the m
   digits drawn independently. A uniform rank in [0, k^m) *is* m
   independent uniform digits in [0, k), so the distribution is
   identical — with no bigint arithmetic per sample. *)
let draw_digits ~rng ~k ~space digits =
  match space with
  | Some size ->
      let r = ref (Srng.uniform rng size) in
      for i = Array.length digits - 1 downto 0 do
        digits.(i) <- 1 + (!r mod k);
        r := !r / k
      done
  | None ->
      for i = 0 to Array.length digits - 1 do
        digits.(i) <- 1 + Srng.uniform rng k
      done

(* Count how many of the samples [base, base+n) hit every sentence.
   Sample index i draws from its own (seed, i) stream, so the counts
   are independent of the chunk partition; int subtotals are summed in
   chunk order — bit-identical for any ?jobs, guarded or not. *)
let count_hits ?jobs ?guard ~db ~sentences ~nulls ~k ~space ~seed ~base n =
  let nsent = List.length sentences in
  let chunk lo hi =
    let t = table ~db ~sentences ~nulls in
    let hits = Array.make nsent 0 in
    for i = lo to hi - 1 do
      draw_digits ~rng:(Srng.stream ~seed ~index:(base + i)) ~k ~space
        t.digits;
      let bits = verdict t in
      for s = 0 to nsent - 1 do
        if bits land (1 lsl s) <> 0 then hits.(s) <- hits.(s) + 1
      done
    done;
    Obs.Metrics.add Obs.Metrics.approx_samples (hi - lo);
    hits
  in
  let combine a b = Array.map2 ( + ) a b in
  Exec.Pool.fold_range ?jobs ?guard ~min_work ~n ~chunk ~combine
    (Array.make nsent 0)

(* ------------------------------------------------------------------ *)
(* Stratification by null support                                      *)
(* ------------------------------------------------------------------ *)

(* Stratum j of V^k(D): the valuations mapping exactly j of the m
   nulls into the anchor set C ∪ Const(D) (restricted to codes ≤ k).
   Collisions with the anchors are what flip support checks (§3.3), so
   conditioning on their number is the natural variance-reduction
   axis. The strata partition V^k exactly:
     |stratum j| = C(m,j) · a^j · (k−a)^(m−j),  Σ_j = k^m. *)

type stratum = { s_j : int; weight : R.t; mutable alloc : int }

let strata_of ~m ~a ~free ~total =
  List.filter_map
    (fun j ->
      let card =
        B.mul
          (B.mul (Arith.Combinat.binomial m j) (B.pow (B.of_int a) j))
          (B.pow (B.of_int free) (m - j))
      in
      if B.sign card <= 0 then None
      else Some { s_j = j; weight = R.make card total; alloc = 0 })
    (List.init (m + 1) (fun j -> j))

(* Proportional allocation by largest remainder (deterministic: ties
   break toward the smaller stratum index), with every positive-weight
   stratum granted at least one sample. *)
let allocate strata n =
  let floors =
    List.map
      (fun s ->
        let exact = R.mul_int s.weight n in
        let fl = B.div (R.num exact) (R.den exact) in
        let rem = R.sub exact (R.of_bigint fl) in
        (s, B.to_int_exn fl, rem))
      strata
  in
  List.iter (fun (s, fl, _) -> s.alloc <- fl) floors;
  let given = List.fold_left (fun acc (_, fl, _) -> acc + fl) 0 floors in
  let by_remainder =
    List.stable_sort (fun (_, _, r1) (_, _, r2) -> R.compare r2 r1) floors
  in
  let rec grant k = function
    | [] -> ()
    | (s, _, _) :: rest when k > 0 ->
        s.alloc <- s.alloc + 1;
        grant (k - 1) rest
    | _ -> ()
  in
  grant (n - given) by_remainder;
  List.iter (fun s -> if s.alloc = 0 then s.alloc <- 1) strata

(* The weighted Hoeffding bound for Σ_j w_j·hits_j/n_j needs
   Σ_j w_j²/n_j ≤ 1/n to carry the same ε at confidence δ. The
   proportional allocation already lands within rounding of it; bump
   every stratum until the exact rational inequality holds. *)
let enforce_bound strata n =
  let sum2 () =
    List.fold_left
      (fun acc s -> R.add acc (R.div_int (R.mul s.weight s.weight) s.alloc))
      R.zero strata
  in
  let target = R.of_ints 1 n in
  while R.compare (sum2 ()) target > 0 do
    List.iter (fun s -> s.alloc <- s.alloc + 1) strata
  done

(* The whole plan of the stratified pass, also the oracle's. *)
let strata ~m ~anchors:a ~k ~n =
  let strata = strata_of ~m ~a ~free:(k - a) ~total:(B.pow (B.of_int k) m) in
  allocate strata n;
  enforce_bound strata n;
  List.map (fun s -> (s.s_j, s.weight, s.alloc)) strata

(* The idx-th code of [1..k] \ anchors (anchors sorted ascending, all
   ≤ k): walk the anchors, shifting the candidate past each one it
   meets. *)
let nth_non_anchor anchors k idx =
  let c = ref (idx + 1) in
  Array.iter (fun a -> if a <= !c then incr c) anchors;
  assert (!c <= k);
  !c

(* A member of stratum j into [digits]: a uniform j-subset of the
   nulls gets uniform anchor codes, the rest uniform non-anchor codes —
   exactly the uniform distribution on V^k conditioned on the
   stratum. *)
let draw_stratum ~rng ~anchors ~k ~j digits =
  let m = Array.length digits and a = Array.length anchors in
  let picked = ref j in
  for i = 0 to m - 1 do
    (* Sequential sampling: include this null with probability
       picked/left — uniform over the C(m,j) subsets. *)
    let anchored = Srng.uniform rng (m - i) < !picked in
    digits.(i) <-
      (if anchored then begin
         decr picked;
         anchors.(Srng.uniform rng a)
       end
       else nth_non_anchor anchors k (Srng.uniform rng (k - a)))
  done

let stratified_pass ?jobs ?guard ~db ~sentence ~nulls ~k ~eps ~seed ~base n
    =
  let anchors =
    Array.of_list
      (List.filter
         (fun c -> c >= 1 && c <= k)
         (Support.anchor_set_sentences_split (Kernel.split db) [ sentence ]))
  in
  let plan =
    strata ~m:(List.length nulls) ~anchors:(Array.length anchors) ~k ~n
  in
  Obs.Metrics.add Obs.Metrics.approx_strata (List.length plan);
  let estimate, samples, _ =
    List.fold_left
      (fun (acc, count, offset) (j, weight, alloc) ->
        let chunk lo hi =
          let t = table ~db ~sentences:[ sentence ] ~nulls in
          let hits = ref 0 in
          for i = lo to hi - 1 do
            draw_stratum
              ~rng:(Srng.stream ~seed ~index:(base + offset + i))
              ~anchors ~k ~j t.digits;
            if verdict t land 1 <> 0 then incr hits
          done;
          Obs.Metrics.add Obs.Metrics.approx_samples (hi - lo);
          !hits
        in
        let hits =
          Exec.Pool.fold_range ?jobs ?guard ~min_work ~n:alloc ~chunk
            ~combine:( + ) 0
        in
        ( R.add acc (R.mul weight (R.of_ints hits alloc)),
          count + alloc,
          offset + alloc ))
      (R.zero, 0, 0) plan
  in
  { s_estimate = estimate;
    s_ci_lo = R.max R.zero (R.sub estimate eps);
    s_ci_hi = R.min R.one (R.add estimate eps);
    s_samples = samples;
    s_strata = List.length plan
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let mu_k ?jobs ?guard ?cache ?(stratify = false) inst q tuple ~k ~eps ~delta
    ~seed =
  if k < 1 then invalid_arg "Estimator.mu_k: k must be >= 1";
  let n = sample_size ~eps ~delta in
  let sentence = Query.instantiate q tuple in
  let nulls =
    List.sort_uniq Int.compare (Instance.nulls inst @ Tuple.nulls tuple)
  in
  Obs.Trace.span
    ~attrs:
      [ ("k", string_of_int k); ("samples", string_of_int n);
        ("seed", string_of_int seed);
        ("stratify", if stratify then "true" else "false")
      ]
    "approx.run"
  @@ fun () ->
  let db = Support.kernel_db ?cache inst in
  let space = Enumerate.space_size ~nulls ~k in
  let hits =
    (count_hits ?jobs ?guard ~db ~sentences:[ sentence ] ~nulls ~k
       ~space ~seed ~base:0 n).(0)
  in
  let estimate = R.of_ints hits n in
  let stratified =
    if not stratify then None
    else
      Some
        (stratified_pass ?jobs ?guard ~db ~sentence ~nulls ~k ~eps ~seed
           ~base:n n)
  in
  { estimate;
    ci_lo = R.max R.zero (R.sub estimate eps);
    ci_hi = R.min R.one (R.add estimate eps);
    samples = n;
    hits;
    seed;
    eps;
    delta;
    stratified
  }

let mu_cond_k ?jobs ?guard ?cache ~sigma inst q tuple ~k ~eps ~delta ~seed =
  if k < 1 then invalid_arg "Estimator.mu_cond_k: k must be >= 1";
  check_prob "delta" delta;
  (* δ/2 per Hoeffding event: the numerator and denominator frequencies
     must hold simultaneously (union bound). *)
  let n = sample_size ~eps ~delta:(R.div_int delta 2) in
  let answer = Query.instantiate q tuple in
  let both = F.And (sigma, answer) in
  let nulls =
    List.sort_uniq Int.compare
      (Instance.nulls inst @ Tuple.nulls tuple @ F.nulls sigma)
  in
  Obs.Trace.span
    ~attrs:
      [ ("k", string_of_int k); ("samples", string_of_int n);
        ("seed", string_of_int seed); ("mode", "conditional")
      ]
    "approx.run"
  @@ fun () ->
  let db = Support.kernel_db ?cache inst in
  let space = Enumerate.space_size ~nulls ~k in
  let hits =
    count_hits ?jobs ?guard ~db ~sentences:[ both; sigma ] ~nulls ~k
      ~space ~seed ~base:0 n
  in
  let num = hits.(0) and den = hits.(1) in
  let p_and = R.of_ints num n and p_sig = R.of_ints den n in
  let c_estimate = if den = 0 then R.zero else R.of_ints num den in
  let c_ci_lo =
    R.div (R.max R.zero (R.sub p_and eps)) (R.min R.one (R.add p_sig eps))
  in
  let c_ci_hi =
    let margin = R.sub p_sig eps in
    if R.compare margin R.zero <= 0 then R.one
    else R.min R.one (R.div (R.min R.one (R.add p_and eps)) margin)
  in
  { c_estimate; c_ci_lo; c_ci_hi; c_samples = n; c_hits_num = num;
    c_hits_den = den; c_seed = seed
  }

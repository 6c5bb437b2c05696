module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Query = Logic.Query

type answers = {
  certain : Relation.t;
  possible : Relation.t;
  naive : Relation.t;
}

(* What a candidate's class scan must find out. Certainty is "every
   class satisfies", possibility "some class does". [Possible_only c]
   asks for possibility alone, with [c] standing as the certainty
   verdict: the Pos∀G dispatch passes the naive one, a
   possibility-only call [false]. A candidate that stands as certain
   is possible without a scan, as every class is non-empty. *)
type need = Certain_only | Both | Possible_only of bool

(* One candidate's (certain, possible) verdicts. The scan stops as
   soon as every verdict asked for is known. Representatives are
   checked through [chk], forced at the first check, and [tick] is
   called before each one. The metric counts each early stop that
   skipped at least one checked class. *)
let judge ~tick need reps chk =
  let n = Array.length reps in
  let scan_all, scan_some, all =
    match need with
    | Certain_only -> (true, false, true)
    | Both -> (true, true, true)
    | Possible_only c -> (false, true, c)
  in
  (* Still open: a refutation or a witness that is asked for and not
     yet seen. *)
  let pending all some = (scan_all && all) || (scan_some && not some) in
  let rec go i all some =
    if i = n then (all, some)
    else if not (pending all some) then begin
      if i > 0 then Obs.Metrics.incr Obs.Metrics.short_circuits;
      (all, some)
    end
    else begin
      tick ();
      let holds = Support.check (Lazy.force chk) reps.(i) in
      go (i + 1) (all && (holds || not scan_all)) (some || holds)
    end
  in
  go 0 all (all && not scan_all)

(* The class pass. Every candidate's sentence is decided on the same
   class space, so the representatives are built once; each candidate
   compiles its sentence once, inside the pool chunk that checks it,
   and only if its scan checks a class. [need] says what each
   candidate's scan must find out. Candidates are independent and
   chunk results merge by set union, so the answers are the same for
   any [jobs]. Besides the pool's guard call before
   each chunk, a chunk polls [guard] every 256 classes it checks, as
   the support census does: one candidate's scan can be long. *)
let pass ?jobs ?guard ~db ~space ~need q cands =
  let m = Query.arity q in
  Obs.Trace.span "certain.sweep"
    ~attrs:
      [ ("arity", string_of_int m);
        ("candidates", string_of_int (Array.length cands));
        ("classes", string_of_int (List.length space.Support.classes))
      ]
  @@ fun () ->
  let reps =
    Array.of_list
      (List.map
         (Classes.representative ~anchor_set:space.Support.anchor_set)
         space.Support.classes)
  in
  let poll = Option.value guard ~default:ignore in
  let empty = (Relation.empty m, Relation.empty m) in
  Exec.Pool.fold_range ?jobs ?guard ~min_work:4 ~n:(Array.length cands)
    ~chunk:(fun lo hi ->
      let checked = ref 0 in
      let tick () =
        incr checked;
        if !checked land 255 = 0 then poll ()
      in
      let cert = ref (Relation.empty m) and poss = ref (Relation.empty m) in
      for i = lo to hi - 1 do
        let t = cands.(i) in
        let chk = lazy (Support.checker db (Query.instantiate q t)) in
        let all, some = judge ~tick (need t) reps chk in
        if all then cert := Relation.add t !cert;
        if some then poss := Relation.add t !poss
      done;
      (!cert, !poss))
    ~combine:(fun (c, p) (c', p') -> (Relation.union c c', Relation.union p p'))
    empty

(* Candidates are drawn from adom^m, so their constants and nulls are
   already the database's: the class space of the query body is every
   candidate's. *)
let candidates inst q =
  Array.of_list
    (List.map Tuple.of_list
       (Arith.Combinat.tuples (Relational.Instance.adom inst) (Query.arity q)))

let query_space ?cache inst q =
  let db = Support.kernel_db ?cache inst in
  (db, Support.space db [ q.Query.body ])

let query_pass ?jobs ?guard ?cache ~need inst q =
  let db, space = query_space ?cache inst q in
  pass ?jobs ?guard ~db ~space ~need q (candidates inst q)

(* Fragment dispatch (Corollary 3): for queries within Pos∀G naïve
   evaluation computes certain answers, so no class decides certainty.
   Restricted to constant-free queries so that the naïve evaluation
   domain (adom + query constants) coincides with the candidate space
   adom^m of the class pass. *)
let naive_is_certain q =
  Logic.Fragment.naive_eval_sound (Logic.Fragment.classify q.Query.body)
  && Query.constants q = []

(* Without nulls the one class is the empty valuation, under which
   the database is itself: a candidate is certain, possible and a
   naive answer alike, and naive answer variables range over adom, as
   the candidates do. *)
let answers ?jobs ?guard ?cache inst q =
  let naive = Naive.answers inst q in
  let db, space = query_space ?cache inst q in
  if space.Support.nulls = [] then { certain = naive; possible = naive; naive }
  else
    let need =
      if naive_is_certain q then fun t -> Possible_only (Relation.mem t naive)
      else fun _ -> Both
    in
    let certain, possible =
      pass ?jobs ?guard ~db ~space ~need q (candidates inst q)
    in
    { certain; possible; naive }

let certain_answers_enumerated ?jobs ?guard ?cache inst q =
  fst (query_pass ?jobs ?guard ?cache ~need:(fun _ -> Certain_only) inst q)

let certain_answers ?jobs ?guard ?cache inst q =
  if naive_is_certain q then Naive.answers inst q
  else certain_answers_enumerated ?jobs ?guard ?cache inst q

let certain_answers_null_free ?jobs ?guard ?cache inst q =
  Relation.filter
    (fun t -> not (Tuple.has_null t))
    (certain_answers ?jobs ?guard ?cache inst q)

let possible_answers ?jobs ?guard ?cache inst q =
  snd
    (query_pass ?jobs ?guard ?cache ~need:(fun _ -> Possible_only false) inst q)

(* One candidate on its own class space: a tuple may carry constants
   and nulls beyond the database's, and a sentence nulls of its own. *)
let decide ?cache need inst q tuple =
  let db = Support.kernel_db ?cache inst in
  pass ~db
    ~space:(Support.space db [ Query.instantiate q tuple ])
    ~need:(fun _ -> need) q [| tuple |]

let is_certain ?cache inst q tuple =
  not (Relation.is_empty (fst (decide ?cache Certain_only inst q tuple)))

let is_possible ?cache inst q tuple =
  not
    (Relation.is_empty (snd (decide ?cache (Possible_only false) inst q tuple)))

let is_certain_sentence ?cache inst sentence =
  is_certain ?cache inst (Query.boolean sentence) Tuple.empty

let is_possible_sentence ?cache inst sentence =
  is_possible ?cache inst (Query.boolean sentence) Tuple.empty

module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Query = Logic.Query

type answers = {
  certain : Relation.t;
  possible : Relation.t;
  naive : Relation.t;
}

let representatives space =
  Array.of_list
    (List.map
       (Classes.representative ~anchor_set:space.Support.anchor_set)
       space.Support.classes)

(* What a class pass must find out: certainty is the intersection of
   the classes' preimage sets, possibility their union. *)
type want = { want_certain : bool; want_possible : bool }

module Tuples = Hashtbl.Make (Tuple)

(* A tuple's standing in a chunk: the last class (1-based within the
   chunk) whose preimage set held it, and how many did. *)
type mark = { mutable last : int; mutable hits : int }

(* One chunk of the class pass: the classes [lo, hi) on one open
   kernel. A tuple is in the chunk's intersection iff every class it
   evaluated held it ([hits] = classes seen), and in the union iff it
   was seen at all. A certain-only chunk records no tuple the first
   class missed, and stops once no tuple is in the intersection.
   [None] stands for "no class seen", the whole of adom(D)^m (and for
   an intersection not asked for). *)
let class_chunk ~db ~reps ~want ~poll q lo hi =
  let m = Query.arity q in
  let kern = Kernel.compile_query db q in
  let marks = Tuples.create 64 in
  let seen = ref 0 and alive = ref 0 in
  let hit a =
    match Tuples.find_opt marks a with
    | Some mk ->
        if mk.last <> !seen then begin
          mk.last <- !seen;
          mk.hits <- mk.hits + 1;
          if mk.hits = !seen then incr alive
        end
    | None ->
        if want.want_possible || !seen = 1 then begin
          Tuples.add marks (Tuple.copy a) { last = !seen; hits = 1 };
          if !seen = 1 then incr alive
        end
  in
  let rec go i =
    if i < hi then
      if want.want_possible || !seen = 0 || !alive > 0 then begin
        if (i - lo) land 15 = 15 then poll ();
        Obs.Metrics.incr Obs.Metrics.valuations_evaluated;
        incr seen;
        alive := 0;
        Kernel.answers kern reps.(i) hit;
        go (i + 1)
      end
      else Obs.Metrics.incr Obs.Metrics.short_circuits
  in
  go lo;
  let select keep =
    Relation.of_list m
      (Tuples.fold (fun a mk acc -> if keep mk then a :: acc else acc) marks [])
  in
  ( (if !seen = 0 || not want.want_certain then None
     else Some (select (fun mk -> mk.hits = !seen))),
    if want.want_possible then select (fun _ -> true) else Relation.empty m )

(* The class-major pass. Truth of [v(ā) ∈ Q(v(D))] is constant on a
   class (proof of Theorem 1), so each class representative [v] costs
   one open evaluation on [v(D)] ([Kernel.answers]), which yields
   [P_v = {ā ∈ adom(D)^m : v(ā) ∈ Q(v(D))}] at once; the certain
   answers are [∩_v P_v] and the possible ones [∪_v P_v]. Each pool
   chunk compiles one open kernel on the shared db and folds its range
   of classes; chunks merge by ∩ and ∪, so the sets are the same for
   any [jobs]. Besides the pool's guard call before each chunk, a
   chunk polls [guard] every 16 classes: one open evaluation may visit
   up to |adom|^m bindings, far more work than one sentence check. *)
let class_pass ?jobs ?guard ~db ~space ~want inst q =
  let m = Query.arity q in
  let reps = representatives space in
  Obs.Trace.span "certain.sweep"
    ~attrs:
      [ ("arity", string_of_int m);
        ( "candidates",
          Arith.Bigint.to_string
            (Arith.Combinat.power
               (List.length (Relational.Instance.adom inst))
               m) );
        ( "classes",
          Arith.Bigint.to_string
            (Classes.count ~anchor_set:space.Support.anchor_set
               ~nulls:space.Support.nulls) )
      ]
  @@ fun () ->
  let poll = Option.value guard ~default:ignore in
  let inter a b =
    match (a, b) with
    | None, c | c, None -> c
    | Some a, Some b -> Some (Relation.inter a b)
  in
  let cert, poss =
    Exec.Pool.fold_range ?jobs ?guard ~min_work:4 ~n:(Array.length reps)
      ~chunk:(class_chunk ~db ~reps ~want ~poll q)
      ~combine:(fun (c, p) (c', p') -> (inter c c', Relation.union p p'))
      (None, Relation.empty m)
  in
  (Option.value cert ~default:(Relation.empty m), poss)

let query_space ?cache inst q =
  let db = Support.kernel_db ?cache inst in
  (db, Support.space db [ q.Query.body ])

(* Without nulls the one class is the empty valuation, under which the
   database is itself: certain, possible and naive answers coincide,
   and no class is evaluated. *)
let answers ?jobs ?guard ?cache inst q =
  let db, space = query_space ?cache inst q in
  let naive = Kernel.naive_answers (Kernel.compile_query db q) in
  if space.Support.nulls = [] then { certain = naive; possible = naive; naive }
  else
    let certain, possible =
      class_pass ?jobs ?guard ~db ~space
        ~want:{ want_certain = true; want_possible = true }
        inst q
    in
    { certain; possible; naive }

(* Fragment dispatch (Corollary 3): for queries within Pos∀G naïve
   evaluation computes certain answers, so no class decides certainty.
   Restricted to queries without constants or nulls, the setting of
   the corollary: a null only the query names is no value of D to
   naive evaluation, while every valuation makes it one of v(D)'s
   (`Q(x) := ∃y. y = ⊥1` has no naive answer and every tuple of
   adom(D) as a certain one). *)
let naive_is_certain q =
  Logic.Fragment.naive_eval_sound (Logic.Fragment.classify q.Query.body)
  && Query.constants q = []
  && Logic.Formula.nulls q.Query.body = []

let certain_answers ?jobs ?guard ?cache inst q =
  if naive_is_certain q then Naive.answers ?cache inst q
  else
    let db, space = query_space ?cache inst q in
    fst
      (class_pass ?jobs ?guard ~db ~space
         ~want:{ want_certain = true; want_possible = false }
         inst q)

let possible_answers ?jobs ?guard ?cache inst q =
  let db, space = query_space ?cache inst q in
  snd
    (class_pass ?jobs ?guard ~db ~space
       ~want:{ want_certain = false; want_possible = true }
       inst q)

let certain_answers_null_free ?jobs ?guard ?cache inst q =
  Relation.filter
    (fun t -> not (Tuple.has_null t))
    (certain_answers ?jobs ?guard ?cache inst q)

(* ------------------------------------------------------------------ *)
(* Candidate-major: one sentence per tuple (oracle, single tuples)     *)
(* ------------------------------------------------------------------ *)

(* Whether every class satisfies the compiled sentence ([universal])
   or some class does, scanning until the first class that settles it.
   [tick] is called before each check. The metric counts each early
   stop that skipped at least one class. *)
let judge ~tick ~universal reps chk =
  let n = Array.length reps in
  let rec go i =
    if i = n then universal
    else begin
      tick ();
      if Support.check (Lazy.force chk) reps.(i) <> universal then begin
        if i + 1 < n then Obs.Metrics.incr Obs.Metrics.short_circuits;
        not universal
      end
      else go (i + 1)
    end
  in
  go 0

(* The candidate-major pass over adom^m: every candidate's sentence is
   compiled in the pool chunk that checks it and decided on the query
   body's classes (candidates carry only the database's values). *)
let certain_answers_enumerated ?jobs ?guard ?cache inst q =
  let db, space = query_space ?cache inst q in
  let m = Query.arity q in
  let reps = representatives space in
  let cands =
    Array.of_list
      (List.map Tuple.of_list
         (Arith.Combinat.tuples (Relational.Instance.adom inst) m))
  in
  let poll = Option.value guard ~default:ignore in
  Exec.Pool.fold_range ?jobs ?guard ~min_work:4 ~n:(Array.length cands)
    ~chunk:(fun lo hi ->
      let checked = ref 0 in
      let tick () =
        incr checked;
        if !checked land 255 = 0 then poll ()
      in
      let cert = ref (Relation.empty m) in
      for i = lo to hi - 1 do
        let t = cands.(i) in
        let chk = lazy (Support.checker db (Query.instantiate q t)) in
        if judge ~tick ~universal:true reps chk then cert := Relation.add t !cert
      done;
      !cert)
    ~combine:Relation.union (Relation.empty m)

(* One tuple on its own class space: it may carry constants and nulls
   beyond the database's, and a sentence nulls of its own. *)
let decide ?cache ~universal inst q tuple =
  let db = Support.kernel_db ?cache inst in
  let sentence = Query.instantiate q tuple in
  judge ~tick:ignore ~universal
    (representatives (Support.space db [ sentence ]))
    (lazy (Support.checker db sentence))

let is_certain ?cache inst q tuple = decide ?cache ~universal:true inst q tuple
let is_possible ?cache inst q tuple = decide ?cache ~universal:false inst q tuple

let is_certain_sentence ?cache inst sentence =
  is_certain ?cache inst (Query.boolean sentence) Tuple.empty

let is_possible_sentence ?cache inst sentence =
  is_possible ?cache inst (Query.boolean sentence) Tuple.empty

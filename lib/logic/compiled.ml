module Value = Relational.Value
module Tuple = Relational.Tuple
module Instance = Relational.Instance
module Index = Relational.Index

(* Compilation target: the formula is translated once into a tree of
   closures. All per-evaluation costs that the naive interpreter
   (Eval.holds) pays on every call are hoisted to compile time:

   - variables resolve to slots of a preallocated environment array
     (no List.assoc chains);
   - the evaluation domain is computed once and stored as an array
     (Eval recomputes adom(D) — a fold over the whole instance — on
     every sentence check);
   - atoms probe per-relation hash indexes (O(1) expected) instead of
     TSet membership (O(log n) with a tuple comparison per level), with
     a reused argument buffer so a probe allocates nothing;
   - quantifier blocks run as guarded joins (see [block] below): a
     quantified variable that occurs in a positive atom is bound from
     the rows that match the atom, not by a loop over the domain.

   A compiled formula carries mutable scratch (environment, domain,
   guard buffers) and is therefore single-threaded; compiling is cheap,
   so parallel code compiles one per chunk. *)

type scan = {
  scan_rows : int;
  scan_all : (Tuple.t -> bool) -> bool;
  scan_with : int -> Value.t -> (Tuple.t -> bool) -> bool;
}

type source = {
  src_mem : string -> int -> Value.t array -> bool;
      (* [src_mem r arity] is applied once per atom at compile time;
         the returned closure answers membership probes at eval time.
         The probe buffer is only valid for the duration of the call. *)
  src_scan : string -> int -> scan option;
      (* The live rows of [r], for guards; [None] when [r] is unknown
         or has another arity, which leaves its atoms to [src_mem]. *)
  src_null : int -> unit -> Value.t;
      (* Eval-time meaning of a null constant appearing in the formula.
         The identity [fun n () -> Value.null n] gives naive-evaluation
         semantics; the incomplete-side kernel resolves nulls through
         the current valuation. *)
}

type state = {
  env : Value.t array;
  mutable dom : Value.t array;
  mutable dom_n : int;
}

type t = {
  formula : Formula.t;
  free : string list;
  slots : (string * int) list; (* free variable ↦ env slot *)
  state : state;
  prog : unit -> bool;
  has_quantifier : bool;
  uses_domain : bool;
  sink : (Value.t array -> unit) ref option;
      (* open mode: where the emit step sends each binding; [None]
         for a closed program *)
}

let rec quantifier_depth = function
  | Formula.True | Formula.False | Formula.Atom _ | Formula.Eq _ -> 0
  | Formula.Not g -> quantifier_depth g
  | Formula.And (g, h) | Formula.Or (g, h) | Formula.Implies (g, h) ->
      max (quantifier_depth g) (quantifier_depth h)
  | Formula.Exists (_, g) | Formula.Forall (_, g) -> 1 + quantifier_depth g

let dummy = Value.const 1

(* A block body as a list of conjuncts: conjunctions are flattened and
   negations pushed through ¬, → and ∨, so that the negated body of
   ∀x̄.(A → B), evaluated as ¬∃x̄.¬(A → B), exposes A's atoms as
   guards. *)
let rec conjuncts f acc =
  match f with
  | Formula.True -> acc
  | Formula.And (g, h) -> conjuncts g (conjuncts h acc)
  | Formula.Not g -> negated g acc
  | f -> f :: acc

and negated f acc =
  match f with
  | Formula.False -> acc
  | Formula.Not g -> conjuncts g acc
  | Formula.Or (g, h) -> negated g (negated h acc)
  | Formula.Implies (g, h) -> conjuncts g (negated h acc)
  | f -> Formula.Not f :: acc

let rec peel_exists xs = function
  | Formula.Exists (x, g) -> peel_exists (x :: xs) g
  | g -> (List.rev xs, g)

let rec peel_forall xs = function
  | Formula.Forall (x, g) -> peel_forall (x :: xs) g
  | g -> (List.rev xs, g)

(* A guard: the atom's rows are scanned; a row must match the terms
   bound before the scan ([checks], by position) and repeat its own
   cells where a binder occurs twice ([repeats]: position, position of
   the first occurrence); it then binds the binders ([binds]: position,
   slot). *)
type guard = {
  atom : Formula.t;
  scan : scan;
  checks : (int * Formula.term) list;
  repeats : (int * int) list;
  binds : (int * int) list;
}

type step =
  | Nonempty (* a binder no conjunct mentions: the domain is nonempty *)
  | Let of int * Formula.term (* slot := a term equal to it *)
  | Guard of guard
  | Loop of int (* the slot ranges over the domain *)

(* [rows ≤ n^b], without overflow. *)
let rec fits rows n acc b =
  rows <= acc
  || b > 0
     && ((n > 0 && acc > rows / n) || fits rows n (acc * n) (b - 1))

(* Row tests of a guard step, top-level so that a row costs no
   closure allocation. *)
let rec cells_match row pos want j =
  j >= Array.length pos
  || Value.equal
       (Tuple.get row (Array.unsafe_get pos j))
       (Array.unsafe_get want j)
     && cells_match row pos want (j + 1)

let rec cells_repeat row pos first j =
  j >= Array.length pos
  || Value.equal
       (Tuple.get row (Array.unsafe_get pos j))
       (Tuple.get row (Array.unsafe_get first j))
     && cells_repeat row pos first (j + 1)

(* [~open_:false] compiles a test of [f] under an environment binding
   [free] (slots [0 .. m-1]). [~open_:true] compiles the block
   [∃free. f] whose innermost continuation emits the binding of
   [free] (the same slots) and answers [false], so the join runs to
   exhaustion: the guarded-join plan of a quantifier block, with an
   emit step in place of the early exit. *)
let build ~open_ ?free source f =
  let free = match free with Some xs -> xs | None -> Formula.free_vars f in
  let m = List.length free in
  let nfree = if open_ then 0 else m in
  let nslots = m + quantifier_depth f in
  let st =
    {
      env = Array.make (max nslots 1) dummy;
      dom = [||];
      dom_n = 0;
    }
  in
  let env = st.env in
  let uses_domain = ref false in
  let slot_of vars x =
    match List.assoc_opt x vars with
    | Some s -> s
    | None -> invalid_arg ("Compiled: unbound variable " ^ x)
  in
  let compile_term vars = function
    | Formula.Val (Value.Const _ as v) -> fun () -> v
    | Formula.Val (Value.Null n) -> source.src_null n
    | Formula.Var x ->
        let s = slot_of vars x in
        fun () -> Array.unsafe_get env s
  in
  let loop s next =
    uses_domain := true;
    fun () ->
      let dom = st.dom and n = st.dom_n in
      let rec go i =
        i < n
        && begin
             Array.unsafe_set env s (Array.unsafe_get dom i);
             next () || go (i + 1)
           end
      in
      go 0
  in
  (* [vars] maps in-scope variables to slots; [depth] counts enclosing
     binders, so binder slots never collide with free-variable slots or
     with each other along a path (shadowing gets a fresh slot). *)
  let rec go vars depth = function
    | Formula.True -> fun () -> true
    | Formula.False -> fun () -> false
    | Formula.Atom (r, ts) ->
        let mem = source.src_mem r (List.length ts) in
        let terms = Array.of_list (List.map (compile_term vars) ts) in
        let nt = Array.length terms in
        let buf = Array.make nt dummy in
        fun () ->
          for i = 0 to nt - 1 do
            Array.unsafe_set buf i ((Array.unsafe_get terms i) ())
          done;
          mem buf
    | Formula.Eq (a, b) ->
        let ca = compile_term vars a and cb = compile_term vars b in
        fun () -> Value.equal (ca ()) (cb ())
    | Formula.Not g ->
        let cg = go vars depth g in
        fun () -> not (cg ())
    | Formula.And (g, h) ->
        let cg = go vars depth g and ch = go vars depth h in
        fun () -> cg () && ch ()
    | Formula.Or (g, h) ->
        let cg = go vars depth g and ch = go vars depth h in
        fun () -> cg () || ch ()
    | Formula.Implies (g, h) ->
        let cg = go vars depth g and ch = go vars depth h in
        fun () -> (not (cg ())) || ch ()
    | Formula.Exists _ as g ->
        let xs, body = peel_exists [] g in
        block vars depth xs (conjuncts body []) None
    | Formula.Forall _ as g ->
        let xs, body = peel_forall [] g in
        let cb = block vars depth xs (negated body []) None in
        fun () -> not (cb ())
  (* ∃x̄. c₁ ∧ … ∧ cₙ as a join. The binders take the slots
     [b0 .. b0+n-1]; a plan binds them step by step:

     - [Let]: an equation between an unbound binder and a term whose
       value lies in the domain (a constant, or a variable bound by a
       quantifier) sets the binder;
     - [Guard]: the positive atom with the most bound positions among
       those that mention an unbound binder binds its binders from the
       matching rows, and is not tested again;
     - [Loop]: a binder no atom or equation covers ranges over the
       domain, as in {!Eval};
     - [Nonempty]: a binder no conjunct mentions only needs a nonempty
       domain.

     Every other conjunct is tested as soon as its binders are bound.
     Binding from rows agrees with ranging over the domain because the
     domain contains every row value (the invariant of [of_source]).

     With [emit], the block is open: [emit] replaces the final [true],
     and a binder no conjunct mentions ranges over the domain instead
     of only needing it nonempty, since each of its values is a
     distinct binding. *)
  and block vars depth xs cs emit =
    let n = List.length xs and b0 = nfree + depth in
    let vars = List.rev_append (List.mapi (fun i x -> (x, b0 + i)) xs) vars in
    let depth = depth + n in
    let cs = Array.of_list cs in
    let binder x =
      match List.assoc_opt x vars with
      | Some s when s >= b0 -> Some (s - b0)
      | _ -> None
    in
    let refs =
      Array.map
        (fun c ->
          List.sort_uniq Int.compare
            (List.filter_map binder (Formula.free_vars c)))
        cs
    in
    let scans =
      Array.map
        (function
          | Formula.Atom (r, ts) -> source.src_scan r (List.length ts)
          | _ -> None)
        cs
    in
    (* level.(i): the number of steps after which binder i is bound
       (0 while it is unbound) *)
    let level = Array.make n 0 in
    let used = Array.make (Array.length cs) false in
    let steps = ref [] and nsteps = ref 0 in
    let push step newly =
      incr nsteps;
      List.iter (fun i -> level.(i) <- !nsteps) newly;
      steps := step :: !steps
    in
    let unbound = function
      | Formula.Var x -> (
          match binder x with Some i when level.(i) = 0 -> Some i | _ -> None)
      | Formula.Val _ -> None
    in
    (* Terms whose value lies in the domain: constants and variables
       bound by a quantifier (free variables may hold any value). *)
    let in_domain = function
      | Formula.Val v -> Value.is_const v
      | Formula.Var x as t -> (
          unbound t = None
          &&
          match List.assoc_opt x vars with
          | Some s -> s >= nfree
          | None -> false)
    in
    let rec find_let j =
      if j >= Array.length cs then None
      else
        match cs.(j) with
        | Formula.Eq (a, b) when not used.(j) -> (
            match (unbound a, unbound b) with
            | Some i, None when in_domain b -> Some (j, i, b)
            | None, Some i when in_domain a -> Some (j, i, a)
            | _ -> find_let (j + 1))
        | _ -> find_let (j + 1)
    in
    let find_guard () =
      let best = ref None in
      Array.iteri
        (fun j c ->
          match (c, scans.(j)) with
          | Formula.Atom (_, ts), Some scan
            when (not used.(j)) && List.exists (fun t -> unbound t <> None) ts
            -> (
              let nbound =
                List.length (List.filter (fun t -> unbound t = None) ts)
              in
              match !best with
              | Some (_, b) when b >= nbound -> ()
              | _ -> best := Some ((j, ts, scan), nbound))
          | _ -> ())
        cs;
      Option.map fst !best
    in
    let guard_step j ts scan =
      let checks = ref [] and repeats = ref [] and binds = ref [] in
      List.iteri
        (fun p t ->
          match unbound t with
          | None -> checks := (p, t) :: !checks
          | Some i -> (
              match List.find_opt (fun (_, s) -> s = b0 + i) !binds with
              | Some (q, _) -> repeats := (p, q) :: !repeats
              | None -> binds := (p, b0 + i) :: !binds))
        ts;
      used.(j) <- true;
      push
        (Guard
           { atom = cs.(j);
             scan;
             checks = List.rev !checks;
             repeats = List.rev !repeats;
             binds = List.rev !binds
           })
        (List.map (fun (_, s) -> s - b0) !binds)
    in
    let mentioned =
      Array.init n (fun i -> emit <> None || Array.exists (List.mem i) refs)
    in
    let rec plan () =
      match find_let 0 with
      | Some (j, i, t) ->
          used.(j) <- true;
          push (Let (b0 + i, t)) [ i ];
          plan ()
      | None -> (
          match find_guard () with
          | Some (j, ts, scan) ->
              guard_step j ts scan;
              plan ()
          | None -> (
              match
                List.find_opt
                  (fun i -> mentioned.(i) && level.(i) = 0)
                  (List.init n Fun.id)
              with
              | Some i ->
                  push (Loop (b0 + i)) [ i ];
                  plan ()
              | None -> ()))
    in
    if Array.exists not mentioned then push Nonempty [];
    plan ();
    let steps = Array.of_list (List.rev !steps) in
    let nsteps = Array.length steps in
    (* tests.(k): the conjuncts whose binders are all bound after k steps *)
    let tests = Array.make (nsteps + 1) [] in
    for j = Array.length cs - 1 downto 0 do
      if not used.(j) then begin
        let k = List.fold_left (fun k i -> max k level.(i)) 0 refs.(j) in
        tests.(k) <- go vars depth cs.(j) :: tests.(k)
      end
    done;
    (* Continuations are [None] for "true", so the last test of a
       chain is called directly. *)
    let chain tests next =
      List.fold_right
        (fun test next ->
          Some
            (match next with
            | None -> test
            | Some next -> fun () -> test () && next ()))
        tests next
    in
    let always = function Some k -> k | None -> fun () -> true in
    let compile_step step next =
      match step with
      | Nonempty ->
          uses_domain := true;
          fun () -> st.dom_n > 0 && next ()
      | Let (s, t) ->
          let ct = compile_term vars t in
          fun () ->
            Array.unsafe_set env s (ct ());
            next ()
      | Loop s -> loop s next
      | Guard g ->
          let positions l = Array.of_list (List.map fst l) in
          let check_pos = positions g.checks
          and check_terms =
            Array.of_list
              (List.map (fun (_, t) -> compile_term vars t) g.checks)
          and repeat_pos = positions g.repeats
          and repeat_first = Array.of_list (List.map snd g.repeats)
          and bind_pos = positions g.binds
          and bind_slot = Array.of_list (List.map snd g.binds) in
          let want = Array.make (Array.length check_pos) dummy in
          let on_row row =
            cells_match row check_pos want 0
            && cells_repeat row repeat_pos repeat_first 0
            && begin
                 for j = 0 to Array.length bind_slot - 1 do
                   Array.unsafe_set env
                     (Array.unsafe_get bind_slot j)
                     (Tuple.get row (Array.unsafe_get bind_pos j))
                 done;
                 next ()
               end
          in
          if Array.length check_pos > 0 then begin
            let column = check_pos.(0) in
            fun () ->
              for j = 0 to Array.length want - 1 do
                Array.unsafe_set want j ((Array.unsafe_get check_terms j) ())
              done;
              g.scan.scan_with column (Array.unsafe_get want 0) on_row
          end
          else begin
            (* No bound position: scan every row only when there are no
               more rows than domain tuples for the binders; otherwise
               loop over the domain and probe the atom. *)
            let mem = go vars depth g.atom in
            let fallback =
              Array.fold_right loop bind_slot (fun () -> mem () && next ())
            in
            let nb = Array.length bind_slot in
            fun () ->
              if fits g.scan.scan_rows st.dom_n 1 nb then g.scan.scan_all on_row
              else fallback ()
          end
    in
    let k = ref (chain tests.(nsteps) emit) in
    for i = nsteps - 1 downto 0 do
      k := chain tests.(i) (Some (compile_step steps.(i) (always !k)))
    done;
    always !k
  in
  let slots = List.mapi (fun i x -> (x, i)) free in
  let sink = if open_ then Some (ref ignore) else None in
  let prog =
    match sink with
    | None -> go slots 0 f
    | Some k ->
        let out = Array.make m dummy in
        let emit () =
          Array.blit env 0 out 0 m;
          !k out;
          false
        in
        block [] 0 free (conjuncts f []) (Some emit)
  in
  {
    formula = f;
    free;
    slots;
    state = st;
    prog;
    has_quantifier = quantifier_depth f > 0;
    uses_domain = !uses_domain;
    sink;
  }

let of_source ?free source f = build ~open_:false ?free source f
let of_source_open ~free source f = build ~open_:true ~free source f

let enumerate t k =
  match t.sink with
  | None -> invalid_arg "Compiled.enumerate: formula compiled closed"
  | Some sink ->
      sink := k;
      ignore (t.prog ());
      sink := ignore

let set_domain t dom n =
  if n < 0 || n > Array.length dom then
    invalid_arg "Compiled.set_domain: bad prefix length"
  else begin
    t.state.dom <- dom;
    t.state.dom_n <- n
  end

let formula t = t.formula
let free_vars t = t.free
let has_quantifier t = t.has_quantifier
let uses_domain t = t.uses_domain

let instance_source inst =
  let indexes : (string, Index.t option) Hashtbl.t = Hashtbl.create 8 in
  (* Mirror Eval: an unknown relation only fails if the atom is
     actually evaluated. *)
  let index r =
    match Hashtbl.find_opt indexes r with
    | Some idx -> idx
    | None ->
        let idx =
          match Instance.relation inst r with
          | rel -> Some (Index.of_relation rel)
          | exception Not_found -> None
        in
        Hashtbl.replace indexes r idx;
        idx
  in
  let src_mem r _arity =
    match index r with
    | Some idx -> Index.mem_values idx
    | None -> fun _ -> raise Not_found
  in
  let src_scan r arity =
    match index r with
    | Some idx when Index.arity idx = arity ->
        Some
          {
            scan_rows = Index.cardinal idx;
            scan_all = Index.exists idx;
            scan_with =
              (fun column v f -> Index.exists_posting idx ~column v f);
          }
    | _ -> None
  in
  { src_mem; src_scan; src_null = (fun n () -> Value.null n) }

let compile inst f =
  let t = of_source (instance_source inst) f in
  let dom = Array.of_list (Eval.domain inst f) in
  set_domain t dom (Array.length dom);
  t

let holds t env =
  List.iter
    (fun (x, s) ->
      match List.assoc_opt x env with
      | Some v -> t.state.env.(s) <- v
      | None -> invalid_arg ("Compiled: unbound variable " ^ x))
    t.slots;
  t.prog ()

let sentence_holds t =
  if t.free <> [] then invalid_arg "Compiled.sentence_holds: formula is open"
  else t.prog ()

let run t = t.prog ()

let answers inst (q : Query.t) =
  let t = of_source_open ~free:q.Query.free (instance_source inst) q.Query.body in
  let dom = Array.of_list (Eval.domain inst q.Query.body) in
  set_domain t dom (Array.length dom);
  (* Answer variables range over adom(D) only (as in Eval.answers);
     the join binds them over the whole domain, so bindings that use a
     query constant outside adom(D) are dropped here. *)
  let adom = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace adom v ()) (Instance.adom inst);
  let result = ref (Relational.Relation.empty (Query.arity q)) in
  enumerate t (fun b ->
      if Array.for_all (Hashtbl.mem adom) b then
        result := Relational.Relation.add (Tuple.of_array b) !result);
  !result

module Instance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value

type outcome =
  | Success of Relational.Instance.t
  | Failure of Dependency.fd * Relational.Tuple.t * Relational.Tuple.t

let find_violation inst (fd : Dependency.fd) =
  let rel = Instance.relation inst fd.Dependency.fd_relation in
  let tuples = Relation.to_list rel in
  let key t = List.map (Tuple.get t) fd.Dependency.fd_lhs in
  let rec scan = function
    | [] -> None
    | t :: rest -> (
        let kt = key t in
        match
          List.find_opt
            (fun u ->
              List.for_all2 Value.equal kt (key u)
              && not (Value.equal (Tuple.get t fd.Dependency.fd_rhs)
                        (Tuple.get u fd.Dependency.fd_rhs)))
            rest
        with
        | Some u -> Some (t, u)
        | None -> scan rest)
  in
  scan tuples

(* Replace value [from_v] by [to_v] everywhere in the instance. A
   unification step always rewrites away a null (a constant pair is a
   hard violation, not a step), so relations without a single null
   cannot mention [from_v] and are kept physically — on the typical
   mostly-ground database the rewrite touches only the small
   null-carrying relations instead of rebuilding everything. *)
let substitute from_v to_v inst =
  List.fold_left
    (fun acc name ->
      let r = Instance.relation inst name in
      if Relation.exists Tuple.has_null r then
        Instance.set_relation name
          (Relation.map_values
             (fun v -> if Value.equal v from_v then to_v else v)
             r)
          acc
      else acc)
    inst
    (Relational.Schema.relations (Instance.schema inst))

type step = Dependency.fd * Value.t * Value.t

let rec run fds inst (steps : step list) =
  let violation =
    List.find_map
      (fun fd ->
        match find_violation inst fd with
        | Some (t, u) -> Some (fd, t, u)
        | None -> None)
      fds
  in
  match violation with
  | None -> (List.rev steps, Success inst)
  | Some (fd, t, u) -> (
      let a = Tuple.get t fd.Dependency.fd_rhs in
      let b = Tuple.get u fd.Dependency.fd_rhs in
      match (a, b) with
      | Value.Null _, _ ->
          Obs.Metrics.incr Obs.Metrics.chase_steps;
          run fds (substitute a b inst) ((fd, a, b) :: steps)
      | Value.Const _, Value.Null _ ->
          Obs.Metrics.incr Obs.Metrics.chase_steps;
          run fds (substitute b a inst) ((fd, b, a) :: steps)
      | Value.Const _, Value.Const _ -> (List.rev steps, Failure (fd, t, u)))

let trace fds inst = Obs.Trace.span "chase.run" (fun () -> run fds inst [])
let chase fds inst = snd (trace fds inst)

let chase_constraints schema cs inst =
  chase (Dependency.fds_of_schema schema cs) inst

let successful = function Success i -> Some i | Failure _ -> None

(* ------------------------------------------------------------------ *)
(* Incremental chase under single-tuple insertion                      *)
(* ------------------------------------------------------------------ *)

(* The recorded steps of a finished chase of [D] form a valid prefix of
   a chase sequence of [D + t]: each step fired on a violating pair
   that the insertion cannot remove. So instead of re-chasing from
   scratch we replay the cumulative substitution on the incoming tuple
   alone, add it to the already-chased instance, and resume the
   fixpoint — which, by confluence, agrees with [chase fds (D + t)] up
   to a renaming of nulls (and exactly on success/failure). When no FD
   constrains the touched relation the resume is free: the new tuple
   cannot create a violation, so the chased instance plus the
   substituted tuple already is the fixpoint. *)
let apply_steps (steps : step list) tuple =
  List.fold_left
    (fun t (_, from_v, to_v) ->
      Tuple.map (fun v -> if Value.equal v from_v then to_v else v) t)
    tuple steps

let chase_inc_insert fds ~chased ~steps ~name ~tuple =
  Obs.Trace.span "chase.inc_insert" @@ fun () ->
  let tuple = apply_steps steps tuple in
  let inst = Instance.add_tuple name tuple chased in
  if List.exists (fun fd -> String.equal fd.Dependency.fd_relation name) fds
  then run fds inst (List.rev steps)
  else (steps, Success inst)

let chase_inc fds ~prev ~name ~tuple =
  match prev with
  | _, Failure _ ->
      (* An FD clash between two constant tuples survives any
         insertion: the chase of the grown instance fails too (with
         the same witness pair), so the memo stands as-is. *)
      prev
  | steps, Success chased -> chase_inc_insert fds ~chased ~steps ~name ~tuple

(* ------------------------------------------------------------------ *)
(* Bounded chase with tuple-generating dependencies                    *)
(* ------------------------------------------------------------------ *)

type tgd_outcome =
  | Tgd_fixpoint of Relational.Instance.t
  | Tgd_failed of Dependency.fd * Relational.Tuple.t * Relational.Tuple.t
  | Tgd_budget of Relational.Instance.t

(* The standard chase: alternate EGD repair (the FD chase above, which
   always terminates — each step removes a null or fails) with TGD
   steps that repair an unmatched inclusion by inserting a target
   tuple, exported columns copied, existential columns filled with
   fresh nulls. Only TGD insertions count against [max_steps]: they
   are the only steps a cyclic dependency set can fire forever.
   Weakly acyclic sets ({!Wacyclic.check}) reach a fixpoint within a
   polynomial number of steps on every instance — the certificate the
   property tests hold this oracle against. *)
let inclusions deps =
  List.filter_map
    (function
      | Dependency.Ind i ->
          Some
            ( i.Dependency.ind_src, i.Dependency.ind_src_cols,
              i.Dependency.ind_dst, i.Dependency.ind_dst_cols )
      | Dependency.ForeignKey fk ->
          Some
            ( fk.Dependency.fk_src, fk.Dependency.fk_src_cols,
              fk.Dependency.fk_dst, fk.Dependency.fk_dst_cols )
      | Dependency.Fd _ | Dependency.Key _ -> None)
    deps

let find_ind_violation inst (src, src_cols, dst, dst_cols) =
  let dst_rel = Instance.relation inst dst in
  let matched proj =
    Relation.exists
      (fun u ->
        List.for_all2 Value.equal proj (List.map (Tuple.get u) dst_cols))
      dst_rel
  in
  Relation.fold
    (fun t acc ->
      match acc with
      | Some _ -> acc
      | None ->
          let proj = List.map (Tuple.get t) src_cols in
          if matched proj then None else Some proj)
    (Instance.relation inst src)
    None

let chase_tgds ?(max_steps = 10_000) schema deps inst =
  let fds = Dependency.fds_of_schema schema deps in
  let inds = inclusions deps in
  let fresh =
    ref (List.fold_left max 0 (Instance.nulls inst))
  in
  let fresh_null () =
    incr fresh;
    Value.Null !fresh
  in
  let rec loop inst steps =
    match chase fds inst with
    | Failure (fd, t, u) -> Tgd_failed (fd, t, u)
    | Success inst -> (
        let violation =
          List.find_map
            (fun ind ->
              match find_ind_violation inst ind with
              | Some proj -> Some (ind, proj)
              | None -> None)
            inds
        in
        match violation with
        | None -> Tgd_fixpoint inst
        | Some ((_, _, dst, dst_cols), proj) ->
            if steps >= max_steps then Tgd_budget inst
            else (
              Obs.Metrics.incr Obs.Metrics.chase_steps;
              let arity = Relational.Schema.arity (Instance.schema inst) dst in
              let cells =
                Array.init arity (fun p ->
                    match List.assoc_opt p (List.combine dst_cols proj) with
                    | Some v -> v
                    | None -> fresh_null ())
              in
              loop
                (Instance.add_tuple dst (Tuple.of_array cells) inst)
                (steps + 1)))
  in
  loop inst 0

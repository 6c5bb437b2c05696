module Formula = Logic.Formula
module Factor = Incomplete.Factor
module Split = Incomplete.Split

(* A conjunct's dependency set: the nulls its verdict may read. That
   is every null written in the conjunct itself plus, for each
   relation it mentions, every null occurring in that relation's
   null-carrying tuples — atom membership probes the valuation's image
   of those tuples. Nulls co-occurring in an atom or linked through a
   shared quantified variable always land in the same conjunct after
   normalization, so per-conjunct cliques subsume those finer edges. *)
type node = {
  n_sentence : Formula.t;
  n_relations : string list;
  n_nulls : int list;  (** the dependency set, sorted *)
  n_dsafe : bool;
}

type t = {
  nodes : node list;
  g_all_nulls : int list;
}

let relation_nulls split =
  List.map
    (fun (name, tuples) ->
      ( name,
        List.sort_uniq Int.compare
          (Array.to_list tuples |> List.concat_map Relational.Tuple.nulls) ))
    (Split.null_tuples split)

let build ~all_nulls split sentence =
  let rel_nulls = relation_nulls split in
  let nodes =
    List.map
      (fun conj ->
        let relations = Factor.relations conj in
        let db_nulls =
          List.concat_map
            (fun r ->
              match List.assoc_opt r rel_nulls with
              | Some ns -> ns
              | None -> [])
            relations
        in
        { n_sentence = conj;
          n_relations = relations;
          n_nulls =
            List.sort_uniq Int.compare (Formula.nulls conj @ db_nulls);
          n_dsafe = Factor.dsafe conj
        })
      (Factor.conjuncts sentence)
  in
  { nodes; g_all_nulls = List.sort_uniq Int.compare all_nulls }

let first_unsafe g = List.find_opt (fun n -> not n.n_dsafe) g.nodes

(* ------------------------------------------------------------------ *)
(* Connected components by union-find over conjunct indices            *)
(* ------------------------------------------------------------------ *)

let components g =
  let nodes = Array.of_list g.nodes in
  let n = Array.length nodes in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(max ri rj) <- min ri rj
  in
  (* Conjuncts sharing a null are one component; ground conjuncts
     (empty dependency set) are merged into one zero-null block
     evaluated once. *)
  let owner : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let ground = ref (-1) in
  Array.iteri
    (fun i node ->
      match node.n_nulls with
      | [] ->
          if !ground < 0 then ground := i else union !ground i
      | nulls ->
          List.iter
            (fun nl ->
              match Hashtbl.find_opt owner nl with
              | None -> Hashtbl.add owner nl i
              | Some j -> union i j)
            nulls)
    nodes;
  let groups : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i _ ->
      let r = find i in
      Hashtbl.replace groups r
        (i :: (Option.value ~default:[] (Hashtbl.find_opt groups r))))
    nodes;
  let comps =
    Hashtbl.fold
      (fun root members acc -> (root, List.rev members) :: acc)
      groups []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.map
    (fun (_, members) ->
      let members = List.map (fun i -> nodes.(i)) members in
      { Factor.c_nulls =
          List.sort_uniq Int.compare
            (List.concat_map (fun m -> m.n_nulls) members);
        c_sentence = Formula.conj (List.map (fun m -> m.n_sentence) members);
        c_relations =
          List.sort_uniq String.compare
            (List.concat_map (fun m -> m.n_relations) members);
        c_conjuncts = List.length members
      })
    comps

let free_nulls g comps =
  let covered =
    List.sort_uniq Int.compare
      (List.concat_map (fun (c : Factor.component) -> c.Factor.c_nulls) comps)
  in
  List.filter (fun nl -> not (List.mem nl covered)) g.g_all_nulls

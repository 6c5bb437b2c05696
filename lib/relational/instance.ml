module SMap = Map.Make (String)

type t = {
  gen : int;
  schema : Schema.t;
  relations : Relation.t SMap.t;
  dom : (int list * int list) option Atomic.t;
      (* memoized (Const(D), Null(D)), both sorted: filled on first
         demand, merged through add_tuple, dropped by every other
         update. Identity metadata like [gen] — ignored by equal and
         compare, never shared between instances. *)
  derived : derived option Atomic.t;
      (* the memoized derived structure ({!memo}): set on demand,
         never carried to another instance value *)
}

and derived = ..

(* Monotone generation stamps. Every instance value carries a
   process-unique stamp, allocated from one atomic counter at each
   construction (including every functional update): two instances
   share a stamp only when one IS the other. Caches key derived
   structures (kernel databases, compiled kernels) by the stamp instead
   of by physical equality — a mutation path that produces a new
   instance can never silently reuse state derived from the old one.
   The stamp is identity metadata, not content: {!equal}, {!compare}
   and {!isomorphic} ignore it. *)
let gen_counter = Atomic.make 1
let next_gen () = Atomic.fetch_and_add gen_counter 1

let generation t = t.gen

(* One memo cell per instance value, like the domain memo: a racing
   second writer stores an equal structure, so the last write wins
   harmlessly. *)
let memo t = Atomic.get t.derived
let memoize t d = Atomic.set t.derived (Some d)

(* Active-domain memo. Computing Const(D)/Null(D) is a full scan of
   every tuple; evaluation paths (anchor sets, µ^k null lists, naive
   quantifier ranges) ask for them on every call, so each instance
   value computes them at most once and publishes the result through
   its own atomic cell. An insert merges the parent's memo instead of
   invalidating it — the domain only grows; a delete cannot know
   whether a value still occurs elsewhere and drops the memo, so the
   next demand pays one rescan. *)
let merge_sorted xs ys =
  let rec go xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | x :: xs', y :: ys' ->
        let c = Int.compare x y in
        if c = 0 then x :: go xs' ys'
        else if c < 0 then x :: go xs' ys
        else y :: go xs ys'
  in
  go xs ys

let dom_after_add dom tuple =
  match Atomic.get dom with
  | None -> None
  | Some (cs, ns) ->
      Some
        ( merge_sorted cs (List.sort_uniq Int.compare (Tuple.constants tuple)),
          merge_sorted ns (List.sort_uniq Int.compare (Tuple.nulls tuple)) )

let empty schema =
  let relations =
    List.fold_left
      (fun m name -> SMap.add name (Relation.empty (Schema.arity schema name)) m)
      SMap.empty (Schema.relations schema)
  in
  {
    gen = next_gen ();
    schema;
    relations;
    dom = Atomic.make (Some ([], []));
    derived = Atomic.make None;
  }

let schema t = t.schema

let relation t name =
  match SMap.find_opt name t.relations with
  | Some r -> r
  | None -> raise Not_found

let set_relation name r t =
  match Schema.arity_opt t.schema name with
  | None -> invalid_arg ("Instance.set_relation: unknown relation " ^ name)
  | Some a when a <> Relation.arity r ->
      invalid_arg ("Instance.set_relation: arity mismatch for " ^ name)
  | Some _ ->
      { t with
        gen = next_gen ();
        relations = SMap.add name r t.relations;
        dom = Atomic.make None;
        derived = Atomic.make None
      }

let add_tuple name tuple t =
  match SMap.find_opt name t.relations with
  | None -> invalid_arg ("Instance.add_tuple: unknown relation " ^ name)
  | Some r ->
      { t with
        gen = next_gen ();
        relations = SMap.add name (Relation.add tuple r) t.relations;
        dom = Atomic.make (dom_after_add t.dom tuple);
        derived = Atomic.make None
      }

let remove_tuple name tuple t =
  match SMap.find_opt name t.relations with
  | None -> invalid_arg ("Instance.remove_tuple: unknown relation " ^ name)
  | Some r ->
      { t with
        gen = next_gen ();
        relations = SMap.add name (Relation.remove tuple r) t.relations;
        dom = Atomic.make None;
        derived = Atomic.make None
      }

let of_rows schema rows =
  List.fold_left
    (fun inst (name, tuples) ->
      List.fold_left
        (fun inst row -> add_tuple name (Tuple.of_list row) inst)
        inst tuples)
    (empty schema) rows

let mem t name tuple = Relation.mem tuple (relation t name)

let fold f t acc =
  SMap.fold
    (fun name r acc -> Relation.fold (fun tuple acc -> f name tuple acc) r acc)
    t.relations acc

let total_tuples t = fold (fun _ _ n -> n + 1) t 0

let domains t =
  match Atomic.get t.dom with
  | Some d -> d
  | None ->
      let cs, ns =
        fold
          (fun _ tuple (cs, ns) ->
            (Tuple.constants tuple @ cs, Tuple.nulls tuple @ ns))
          t ([], [])
      in
      let d =
        (List.sort_uniq Int.compare cs, List.sort_uniq Int.compare ns)
      in
      (* A racing demand computes the same value; last write wins. *)
      Atomic.set t.dom (Some d);
      d

let nulls t = snd (domains t)
let constants t = fst (domains t)

let adom t =
  List.map Value.const (constants t) @ List.map Value.null (nulls t)

let null_count t = List.length (nulls t)
let is_complete t = nulls t = []
let max_constant t = List.fold_left max 0 (constants t)
let constant_count t = List.length (constants t)

let map_values f t =
  { t with
    gen = next_gen ();
    relations = SMap.map (Relation.map_values f) t.relations;
    dom = Atomic.make None;
    derived = Atomic.make None
  }

let subst_nulls f t =
  map_values (function Value.Const _ as c -> c | Value.Null i -> f i) t

let union a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Instance.union: different schemas"
  else
    { a with
      gen = next_gen ();
      relations =
        SMap.merge
          (fun _ ra rb ->
            match (ra, rb) with
            | Some ra, Some rb -> Some (Relation.union ra rb)
            | Some r, None | None, Some r -> Some r
            | None, None -> None)
          a.relations b.relations;
      dom = Atomic.make None;
      derived = Atomic.make None
    }

let equal a b = SMap.equal Relation.equal a.relations b.relations

let compare a b =
  SMap.compare Relation.compare a.relations b.relations

let isomorphic a b =
  let na = nulls a and nb = nulls b in
  List.length na = List.length nb
  && begin
       let try_map assoc =
         let f i = Value.null (List.assoc i assoc) in
         equal (subst_nulls f a) b
       in
       List.exists
         (fun perm -> try_map (List.combine na perm))
         (Arith.Combinat.permutations nb)
     end

let pp fmt t =
  let names = Schema.relations t.schema in
  let non_empty = List.filter (fun n -> not (Relation.is_empty (relation t n))) names in
  if non_empty = [] then Format.fprintf fmt "(empty instance)"
  else
    List.iteri
      (fun idx name ->
        if idx > 0 then Format.pp_print_newline fmt ();
        let r = relation t name in
        let rows =
          List.map
            (fun tup -> List.map Value.to_string (Tuple.to_list tup))
            (Relation.to_list r)
        in
        let arity = Relation.arity r in
        let header =
          match Schema.attrs t.schema name with
          | Some attrs -> attrs
          | None -> List.init arity (fun i -> "col" ^ string_of_int i)
        in
        let widths = Array.of_list (List.map String.length header) in
        List.iter
          (fun row ->
            List.iteri
              (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
              row)
          rows;
        let pad i s = s ^ String.make (widths.(i) - String.length s) ' ' in
        Format.fprintf fmt "%s:@." name;
        if arity > 0 then begin
          Format.fprintf fmt "  | %s |@."
            (String.concat " | " (List.mapi pad header));
          Format.fprintf fmt "  |%s|@."
            (String.concat "+"
               (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths)));
          List.iter
            (fun row ->
              Format.fprintf fmt "  | %s |@."
                (String.concat " | " (List.mapi pad row)))
            rows
        end
        else Format.fprintf fmt "  (nullary, %d tuple(s))@." (Relation.cardinal r))
      non_empty

let to_string t = Format.asprintf "%a" pp t

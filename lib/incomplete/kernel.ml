module Value = Relational.Value
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Instance = Relational.Instance
module Index = Relational.Index
module Formula = Logic.Formula
module Compiled = Logic.Compiled

(* The support-check inner loop asks, for thousands of valuations v,
   whether v(D) ⊨ φ[v]. The naive path pays, per valuation: a full
   instance rebuild (Valuation.instance), a formula rewrite
   (Formula.map_values), an active-domain fold (Eval.domain via
   Instance.constants), and an interpretive evaluation. This kernel
   pays all instance- and sentence-dependent costs once:

   - the instance is split (Split) into a ground fragment — indexed
     once, shared by every valuation and every domain — and the few
     null-carrying tuples;
   - the sentence is compiled (Logic.Compiled) with nulls resolved
     through a valuation-image array rewritten in place;
   - the null-carrying tuples are completed *in place*: each becomes a
     fixed row whose constant cells are written at compile time and
     whose null cells are plain array slots, reachable from a
     precomputed null → (row, cell) dependency map. Refreshing a
     valuation is a handful of cell writes — no hash table is cleared
     or repopulated, and nothing is allocated.

   Two refresh entry points share this machinery. [holds] takes a
   {!Valuation.t} and rewrites every null image. [holds_digits] is the
   sweep fast path: it takes the live digit array of an
   [Enumerate.odometer] and, by comparing against the digits of the
   previous call, refreshes only the images, dependent row cells and
   domain suffix that the changed digits touch — an odometer step
   changes the low-order digits only, so consecutive checks degenerate
   to one or two cell writes plus the compiled run.

   The immutable, shareable part is [db]; a [t] adds mutable
   per-valuation scratch and is single-threaded. Parallel folds share
   one [db] and compile one [t] per chunk (see [Support]). *)

type db = {
  split : Split.t;
  indexes : (string * Index.t) list; (* ground fragment, per relation *)
}

let db_of_instance inst =
  let split = Split.of_instance inst in
  let ground = Split.ground split in
  let indexes =
    List.map
      (fun name -> (name, Index.of_relation (Instance.relation ground name)))
      (Schema.relations (Instance.schema inst))
  in
  { split; indexes }

let split t = t.split
let instance t = Split.base t.split

(* The db inherits the generation stamp of the instance it presents:
   Support's kernel-db cache keys on it, so a delta-updated db — whose
   base instance is a new value with a fresh stamp — can never be
   confused with the pre-update one. *)
let db_generation t = Instance.generation (Split.base t.split)

(* Single-tuple deltas: patch the split and, for a ground tuple, the
   touched relation's index (incremental overlay — Index.add/remove);
   indexes of untouched relations are shared physically. Null-carrying
   tuples live outside the ground indexes, so only the split moves.
   Validation (unknown relation, arity, duplicate insert / absent
   delete) is inherited from Split/Instance and raises
   Invalid_argument. *)
let db_update ~index_op ~split_op db ~name ~tuple =
  let split = split_op db.split ~name ~tuple in
  let indexes =
    if Tuple.has_null tuple then db.indexes
    else
      List.map
        (fun (n, idx) ->
          if String.equal n name then (n, index_op idx tuple) else (n, idx))
        db.indexes
  in
  { split; indexes }

let db_insert db ~name ~tuple =
  db_update ~index_op:Index.add ~split_op:Split.insert db ~name ~tuple

let db_delete db ~name ~tuple =
  db_update ~index_op:Index.remove ~split_op:Split.remove db ~name ~tuple

let rec rows_exist rows f i =
  i < Array.length rows
  && (f (Tuple.unsafe_of_array (Array.unsafe_get rows i))
     || rows_exist rows f (i + 1))

let rec rows_exist_with rows column v f i =
  i < Array.length rows
  && ((let row = Array.unsafe_get rows i in
       Value.equal (Array.unsafe_get row column) v
       && f (Tuple.unsafe_of_array row))
     || rows_exist_with rows column v f (i + 1))

type t = {
  db : db;
  sentence : Formula.t;
  knulls : int array; (* Null(D) ∪ nulls(φ), sorted *)
  null_img : Value.t array; (* image of knulls under the current v *)
  ndeps : (Value.t array * int) array array;
      (* knull index → the (completed row, cell) slots its image
         occupies across all mentioned relations *)
  base_codes : int array; (* Const(D) ∪ consts(φ), sorted *)
  dconsts : int array; (* Const(D), sorted *)
  dnulls : int array; (* Null(D), sorted *)
  dnull_pos : int array; (* Null(D) index → knull index *)
  dom : Value.t array; (* base values ++ room for the null images *)
  base_dom_n : int;
  compiled : Compiled.t;
  (* Digit-sweep state ([prepare_digits]/[holds_digits]). *)
  mutable prepared : bool;
  mutable sweep_nulls : int list; (* nulls the map was built for *)
  mutable sweep_map : int array; (* digit position → knull index or -1 *)
  mutable prev_digits : int array; (* digits of the last [holds_digits] *)
  mutable prev_valid : bool;
}

(* [compile_with build db f]: the completed rows, null images and
   domain of [f] on [db]; [build] compiles [f] against the resulting
   source, closed or open. *)
let compile_with build db sentence =
  let knulls =
    Array.of_list
      (List.sort_uniq Int.compare
         (Split.nulls db.split @ Formula.nulls sentence))
  in
  let m = Array.length knulls in
  let null_img = Array.make (max m 1) (Value.null 0) in
  let pos_of =
    let tbl = Hashtbl.create (max m 1) in
    Array.iteri (fun i n -> Hashtbl.replace tbl n i) knulls;
    fun n ->
      match Hashtbl.find_opt tbl n with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "Kernel: unknown null ~%d" n)
  in
  let rels = Formula.relations sentence in
  (* Complete each null tuple into a reusable row: constant cells are
     final; null cells are recorded in the per-null dependency lists
     and overwritten in place at refresh time. *)
  let deps = Array.make (max m 1) [] in
  let rows_by_name =
    List.filter_map
      (fun (name, tuples) ->
        if not (List.mem name rels) then None
        else
          let rows =
            Array.map
              (fun tup ->
                let row = Tuple.to_array tup in
                Array.iteri
                  (fun i v ->
                    match Value.null_id v with
                    | Some n ->
                        let p = pos_of n in
                        deps.(p) <- (row, i) :: deps.(p)
                    | None -> ())
                  row;
                row)
              tuples
          in
          Some (name, rows))
      (Split.null_tuples db.split)
  in
  let ndeps = Array.map (fun l -> Array.of_list (List.rev l)) deps in
  let row_eq row buf =
    let len = Array.length buf in
    Array.length row = len
    && begin
         let rec go i =
           i >= len
           || (Value.equal (Array.unsafe_get row i) (Array.unsafe_get buf i)
              && go (i + 1))
         in
         go 0
       end
  in
  let src_mem r _arity =
    let ground =
      match List.assoc_opt r db.indexes with
      | Some idx -> Some idx
      | None -> None
    in
    let null_rows = List.assoc_opt r rows_by_name in
    match (ground, null_rows) with
    | None, _ ->
        (* Unknown relation: fail only if the atom is evaluated, like
           Instance.relation in the naive path. *)
        fun _ -> raise Not_found
    | Some idx, None -> Index.mem_values idx
    | Some idx, Some rows ->
        (* Null-tuple counts per relation are small (that is the
           regime of the paper's examples and of [Split]); a linear
           scan beats rebuilding a hash table per valuation and
           allocates nothing. *)
        let n = Array.length rows in
        fun buf ->
          Index.mem_values idx buf
          || begin
               let rec go i =
                 i < n && (row_eq (Array.unsafe_get rows i) buf || go (i + 1))
               in
               go 0
             end
  in
  (* Guards scan the ground index, then the completed null rows (a
     null row equal to a ground row is visited twice, which no
     existential can tell apart). *)
  let src_scan r arity =
    match List.assoc_opt r db.indexes with
    | Some idx when Index.arity idx = arity ->
        let rows =
          Option.value ~default:[||] (List.assoc_opt r rows_by_name)
        in
        Some
          {
            Compiled.scan_rows = Index.cardinal idx + Array.length rows;
            scan_all = (fun f -> Index.exists idx f || rows_exist rows f 0);
            scan_with =
              (fun column v f ->
                Index.exists_posting idx ~column v f
                || rows_exist_with rows column v f 0);
          }
    | _ -> None
  in
  let src_null n =
    let p = pos_of n in
    fun () -> Array.unsafe_get null_img p
  in
  let compiled = build { Compiled.src_mem; src_scan; src_null } sentence in
  let base_codes =
    Array.of_list
      (List.sort_uniq Int.compare
         (Split.constants db.split @ Formula.constants sentence))
  in
  let base_dom_n = Array.length base_codes in
  let dom = Array.make (base_dom_n + m + 1) (Value.null 0) in
  Array.iteri (fun i c -> dom.(i) <- Value.const c) base_codes;
  Compiled.set_domain compiled dom base_dom_n;
  {
    db;
    sentence;
    knulls;
    null_img;
    ndeps;
    base_codes;
    dconsts = Array.of_list (Split.constants db.split);
    dnulls = Array.of_list (Split.nulls db.split);
    dnull_pos = Array.of_list (List.map pos_of (Split.nulls db.split));
    dom;
    base_dom_n;
    compiled;
    prepared = false;
    sweep_nulls = [];
    sweep_map = [||];
    prev_digits = [||];
    prev_valid = false;
  }

let compile db sentence =
  if not (Formula.is_sentence sentence) then
    invalid_arg "Kernel.compile: formula is not a sentence";
  compile_with (Compiled.of_source ?free:None) db sentence

let compile_query db (q : Logic.Query.t) =
  compile_with (Compiled.of_source_open ~free:q.Logic.Query.free) db
    q.Logic.Query.body

let sentence t = t.sentence

let base_mem codes c =
  let rec go lo hi =
    lo < hi
    && begin
         let mid = (lo + hi) / 2 in
         let d = Int.compare c codes.(mid) in
         if d = 0 then true else if d < 0 then go lo mid else go (mid + 1) hi
       end
  in
  go 0 (Array.length codes)

(* Set the image of the [ki]-th kernel null and propagate it to every
   completed-row cell that mentions it. *)
let refresh_null t ki img =
  Array.unsafe_set t.null_img ki img;
  Array.iter
    (fun (row, cell) -> Array.unsafe_set row cell img)
    (Array.unsafe_get t.ndeps ki)

(* Evaluation domain of v(D) ⊨ φ[v]: the base constants plus the
   distinct fresh constants among the null images. The suffix is a
   function of the whole image set (deduplication), so it is recomputed
   wholesale whenever any image changed — it is O(m · suffix) on a
   handful of values, dwarfed by the compiled run. A program whose
   quantified variables are all bound from rows never reads it. *)
let refresh_domain t =
  if Compiled.uses_domain t.compiled then begin
    let m = Array.length t.knulls in
    let n = ref t.base_dom_n in
    for i = 0 to m - 1 do
      let img = t.null_img.(i) in
      let c = match img with Value.Const c -> c | Value.Null _ -> assert false in
      if not (base_mem t.base_codes c) then begin
        let dup = ref false in
        for j = t.base_dom_n to !n - 1 do
          if Value.equal t.dom.(j) img then dup := true
        done;
        if not !dup then begin
          t.dom.(!n) <- img;
          incr n
        end
      end
    done;
    Compiled.set_domain t.compiled t.dom !n
  end

(* Complete the rows in place under v. Every compiled support check
   is a refresh: requests minus refreshes are the checks that took the
   naive path. *)
let complete t v =
  Obs.Metrics.incr Obs.Metrics.kernel_refreshes;
  (* Null images under v (raises like Valuation.instance would if a
     null of D or of the sentence is unassigned). *)
  for i = 0 to Array.length t.knulls - 1 do
    refresh_null t i (Value.const (Valuation.find_exn v t.knulls.(i)))
  done;
  refresh_domain t;
  (* The row cells no longer reflect [prev_digits]. *)
  t.prev_valid <- false

let holds t v =
  complete t v;
  Compiled.run t.compiled

(* Open mode. The answers of the completion are mapped back to
   adom(D)^m through [inverse]: the values of adom(D) with a given
   image. Emitted values outside the image of adom(D) have no
   preimage, which is also what keeps answer variables inside the
   active domain. *)
let preimages t inverse f =
  let m = List.length (Compiled.free_vars t.compiled) in
  let cur = Array.make m (Value.null 0) in
  Compiled.enumerate t.compiled (fun b ->
      let rec expand i =
        if i = m then f (Tuple.unsafe_of_array cur)
        else
          List.iter
            (fun a ->
              cur.(i) <- a;
              expand (i + 1))
            (inverse b.(i))
      in
      expand 0)

(* [{ā ∈ adom(D)^m : v(ā) ∈ Q(v(D))}]: a value's preimages are
   itself if it is a constant of D, and the nulls of D it is the
   image of. *)
let answers t v =
  complete t v;
  preimages t (fun b ->
      let from_nulls = ref [] in
      for j = Array.length t.dnulls - 1 downto 0 do
        if Value.equal t.null_img.(t.dnull_pos.(j)) b then
          from_nulls := Value.null t.dnulls.(j) :: !from_nulls
      done;
      match b with
      | Value.Const c when base_mem t.dconsts c -> b :: !from_nulls
      | _ -> !from_nulls)

(* Nulls read as themselves: the images are the nulls, and the
   domain is Const(D) ∪ consts(φ) plus Null(D) — a null only the
   query mentions is no value of the instance, as in Eval. *)
let naive_answers t =
  Array.iteri (fun i n -> refresh_null t i (Value.null n)) t.knulls;
  Array.iteri
    (fun j n -> t.dom.(t.base_dom_n + j) <- Value.null n)
    t.dnulls;
  Compiled.set_domain t.compiled t.dom (t.base_dom_n + Array.length t.dnulls);
  t.prev_valid <- false;
  let acc = ref [] in
  preimages t
    (function
      | Value.Const c as b when base_mem t.dconsts c -> [ b ]
      | Value.Null n as b when base_mem t.dnulls n -> [ b ]
      | _ -> [])
    (fun a -> acc := Tuple.copy a :: !acc);
  Relational.Relation.of_list (List.length (Compiled.free_vars t.compiled)) !acc

let prepare_digits t ~nulls =
  let same =
    t.prepared
    && (t.sweep_nulls == nulls || List.equal Int.equal t.sweep_nulls nulls)
  in
  if not same then begin
    let sweep = Array.of_list nulls in
    let len = Array.length sweep in
    let map = Array.make len (-1) in
    let covered = Array.make (Array.length t.knulls) false in
    let find_knull n =
      let rec go lo hi =
        if lo >= hi then -1
        else
          let mid = (lo + hi) / 2 in
          let d = Int.compare n t.knulls.(mid) in
          if d = 0 then mid else if d < 0 then go lo mid else go (mid + 1) hi
      in
      go 0 (Array.length t.knulls)
    in
    Array.iteri
      (fun p n ->
        let ki = find_knull n in
        if ki >= 0 then begin
          if covered.(ki) then
            invalid_arg
              (Printf.sprintf "Kernel.prepare_digits: duplicate null ~%d" n);
          covered.(ki) <- true;
          map.(p) <- ki
        end)
      sweep;
    Array.iteri
      (fun ki c ->
        if not c then
          invalid_arg
            (Printf.sprintf
               "Kernel.prepare_digits: sweep misses null ~%d of the instance \
                or sentence"
               t.knulls.(ki)))
      covered;
    t.sweep_nulls <- nulls;
    t.sweep_map <- map;
    t.prev_digits <- Array.make len 0;
    t.prev_valid <- false;
    t.prepared <- true
  end

let holds_digits t digits =
  let len = Array.length t.sweep_map in
  if not t.prepared || Array.length digits <> len then
    invalid_arg
      "Kernel.holds_digits: prepare_digits with the sweep's nulls first";
  let prev = t.prev_digits in
  let fresh = not t.prev_valid in
  let changed = ref fresh in
  for p = 0 to len - 1 do
    let d = Array.unsafe_get digits p in
    if fresh || Array.unsafe_get prev p <> d then begin
      let ki = Array.unsafe_get t.sweep_map p in
      if ki >= 0 then begin
        if d < 1 then invalid_arg "Kernel.holds_digits: code < 1";
        refresh_null t ki (Value.const d);
        changed := true
      end;
      Array.unsafe_set prev p d
    end
  done;
  if !changed then refresh_domain t;
  t.prev_valid <- true;
  Compiled.run t.compiled

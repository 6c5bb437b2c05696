module Combinat = Arith.Combinat
module Poly = Arith.Poly

type t = { partition : int list list; anchors : int option list }

let enumerate ~anchor_set ~nulls =
  let partitions = Combinat.set_partitions nulls in
  List.concat_map
    (fun partition ->
      let maps =
        Combinat.injective_partial_maps (List.length partition) anchor_set
      in
      List.map (fun m -> { partition; anchors = Array.to_list m }) maps)
    partitions

(* A class is a partition into j blocks (S(m,j) of them) and an
   injective partial map of the blocks into A: choose the i anchored
   blocks (C(j,i)) and inject them (P(|A|,i)). *)
let count ~anchor_set ~nulls =
  let a = List.length anchor_set and m = List.length nulls in
  let sum lo hi f =
    List.fold_left (fun acc x -> Arith.Bigint.add acc (f x)) Arith.Bigint.zero
      (Combinat.range lo hi)
  in
  sum 0 m (fun j ->
      Arith.Bigint.mul (Combinat.stirling2 m j)
        (sum 0 j (fun i ->
             Arith.Bigint.mul (Combinat.binomial j i)
               (Combinat.falling_factorial a i))))

let free_block_count c =
  List.length (List.filter Option.is_none c.anchors)

let representative ~anchor_set c =
  let used = List.filter_map Fun.id c.anchors in
  let base = List.fold_left max 0 (anchor_set @ used) in
  let next = ref base in
  let assignments =
    List.map2
      (fun block anchor ->
        let code =
          match anchor with
          | Some code -> code
          | None ->
              incr next;
              !next
        in
        List.map (fun n -> (n, code)) block)
      c.partition c.anchors
  in
  Valuation.of_list (List.concat assignments)

let count_poly ~anchor_set c =
  Poly.falling_factorial ~shift:(List.length anchor_set) (free_block_count c)

let classify ~anchor_set ~nulls v =
  if not (Valuation.defined_on v nulls) then
    invalid_arg "Classes.classify: valuation misses a null"
  else begin
    (* Group nulls by their image, blocks ordered by first occurrence
       of the image. *)
    let images = List.map (fun n -> (n, Valuation.find_exn v n)) nulls in
    let codes =
      List.fold_left
        (fun acc (_, c) -> if List.mem c acc then acc else acc @ [ c ])
        [] images
    in
    let partition =
      List.map
        (fun c ->
          List.filter_map (fun (n, c') -> if c' = c then Some n else None) images)
        codes
    in
    let anchors =
      List.map (fun c -> if List.mem c anchor_set then Some c else None) codes
    in
    { partition; anchors }
  end

let canonical c =
  (* Sort blocks (with their anchors) by smallest null id, and sort
     null ids inside blocks, for order-insensitive comparison. *)
  let entries =
    List.map2
      (fun block anchor -> (List.sort Int.compare block, anchor))
      c.partition c.anchors
  in
  List.sort compare entries

let same_class a b = canonical a = canonical b

let total_poly ~anchor_set ~nulls =
  Poly.sum (List.map (count_poly ~anchor_set) (enumerate ~anchor_set ~nulls))

let pp fmt c =
  Format.pp_print_string fmt "[";
  List.iteri
    (fun i (block, anchor) ->
      if i > 0 then Format.pp_print_string fmt "; ";
      Format.fprintf fmt "{%s}"
        (String.concat "," (List.map (fun n -> "~" ^ string_of_int n) block));
      match anchor with
      | Some code -> Format.fprintf fmt "->%s" (Relational.Names.to_string code)
      | None -> Format.pp_print_string fmt "->*")
    (List.combine c.partition c.anchors);
  Format.pp_print_string fmt "]"

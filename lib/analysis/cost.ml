module Instance = Relational.Instance
module Tuple = Relational.Tuple
module Enumerate = Incomplete.Enumerate
module B = Arith.Bigint

type t = {
  nulls : int;
  k : int;
  space : B.t;
  machine : int option;
}

let big_space_threshold = 1_000_000

let analyse ?k ?tuple inst =
  let nulls =
    List.sort_uniq Int.compare
      (Instance.nulls inst
      @ match tuple with None -> [] | Some t -> Tuple.nulls t)
  in
  (* Content-determined default: |Const(D)| + 16, never the max intern
     code. Intern codes are assigned in process arrival order, so a
     max-code default would make the reported cost depend on what else
     the process has served — a long-lived daemon (or a differently
     loaded shard behind a router) would report different k, space and
     machine figures for the very same database. *)
  let k =
    match k with Some k -> max 1 k | None -> Instance.constant_count inst + 16
  in
  { nulls = List.length nulls;
    k;
    space = Enumerate.count ~nulls ~k;
    machine = Enumerate.space_size ~nulls ~k
  }

(* The largest independent sweep a sound decomposition leaves: what
   enumeration cost the engine actually pays. [None] when the
   certificate is indecomposable (or absent) — then the monolithic
   k^m stands. *)
let largest_component (d : Decomp.t) =
  match d.Decomp.verdict with
  | Decomp.Indecomposable _ -> None
  | Decomp.Decomposable | Decomp.Trivial ->
      let largest =
        List.fold_left
          (fun acc ((c : Incomplete.Factor.component), (space, machine)) ->
            let nulls = List.length c.Incomplete.Factor.c_nulls in
            match acc with
            | Some (n, _, _) when n >= nulls -> acc
            | _ -> Some (nulls, space, machine))
          None
          (List.combine d.Decomp.components
             (List.combine d.Decomp.spaces d.Decomp.machines))
      in
      (* No components: the sentence reads no nulls; one sweep of the
         empty valuation decides it. *)
      Some (Option.value largest ~default:(0, B.one, Some 1))

let diagnostics ?certificate c =
  let post = Option.bind certificate largest_component in
  match (c.machine, post) with
  | None, None ->
      [ Diag.warning ~code:"ANL201" ~loc:"cost"
          ~hint:
            "no sweep can enumerate it; measure and conditional count \
             valuation classes instead, exactly at every k, at a cost that \
             does not grow with k"
          (Printf.sprintf
             "valuation space blows up: k^m = %d^%d = %s overflows machine \
              integers"
             c.k c.nulls (B.to_string c.space))
      ]
  | None, Some (nulls, space, None) ->
      (* Decomposed, but the largest component alone still overflows
         (ANL403 names it). *)
      [ Diag.warning ~code:"ANL201" ~loc:"cost"
          ~hint:
            "no sweep can enumerate that component; measure and \
             conditional count valuation classes instead, exactly at every k"
          (Printf.sprintf
             "valuation space blows up even after decomposition: largest \
              component k^m_i = %d^%d = %s overflows machine integers"
             c.k nulls (B.to_string space))
      ]
  | None, Some (nulls, _, Some n) ->
      (* The decomposition rescued an exact sweep the monolithic bound
         had written off. *)
      if n > big_space_threshold then
        [ Diag.hint ~code:"ANL202" ~loc:"cost"
            ~hint:"pass --jobs 0 to sweep valuations on parallel domains"
            (Printf.sprintf
               "large valuation space: largest component k^m_i = %d^%d = %d \
                valuations per sweep (monolithic k^%d overflows)"
               c.k nulls n c.nulls)
        ]
      else []
  | Some _, Some (nulls, _, Some n) when n > big_space_threshold ->
      [ Diag.hint ~code:"ANL202" ~loc:"cost"
          ~hint:"pass --jobs 0 to sweep valuations on parallel domains"
          (Printf.sprintf
             "large valuation space: largest component k^m_i = %d^%d = %d \
              valuations per sweep"
             c.k nulls n)
      ]
  | Some _, Some _ -> []
  | Some n, None when n > big_space_threshold ->
      [ Diag.hint ~code:"ANL202" ~loc:"cost"
          ~hint:"pass --jobs 0 to sweep valuations on parallel domains"
          (Printf.sprintf
             "large valuation space: k^m = %d^%d = %d valuations per sweep"
             c.k c.nulls n)
      ]
  | Some _, None -> []

let to_json c =
  Printf.sprintf
    "{\"nulls\": %d, \"k\": %d, \"space\": %s, \"overflow\": %b%s}" c.nulls
    c.k
    (Diag.json_string (B.to_string c.space))
    (c.machine = None)
    (match c.machine with
    | None -> ""
    | Some n -> Printf.sprintf ", \"machine\": %d" n)

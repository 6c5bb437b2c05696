type severity = Error | Warning | Hint

type span = { span_start : int; span_stop : int }

type t = {
  code : string;
  severity : severity;
  loc : string;
  span : span option;
  message : string;
  hint : string option;
}

let make severity ~code ?span ?hint ~loc message =
  { code; severity; loc; span; message; hint }

let error ~code = make Error ~code
let warning ~code = make Warning ~code
let hint ~code = make Hint ~code

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let severity_rank = function Error -> 0 | Warning -> 1 | Hint -> 2

let compare a b =
  match Int.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (
      match String.compare a.code b.code with
      | 0 -> String.compare a.message b.message
      | c -> c)
  | c -> c

let sort ds = List.sort compare ds

let has_errors = List.exists (fun d -> d.severity = Error)
let count sev = List.fold_left (fun n d -> if d.severity = sev then n + 1 else n) 0

let registry =
  [ ("ANL001", Error, "unsafe query: answer variable not range-restricted");
    ("ANL002", Error, "non-generic query: constants void the unconditional 0-1 law (Thm 1)");
    ("ANL003", Error, "schema conformance: unknown relation or arity mismatch");
    ("ANL101", Warning, "unused quantified variable");
    ("ANL102", Warning, "trivially true/false subformula");
    ("ANL103", Warning, "implication query: degenerate measure (Prop 3); prefer µ(Q|Σ)");
    ("ANL301", Hint, "fragment ⊆ Pos∀G: naive evaluation computes certain answers (Cor 3)");
    ("ANL302", Hint, "fragment ⊆ UCQ: polynomial-time comparisons and best answers (Thm 8)");
    ("ANL303", Hint, "FD-only constraints: chase shortcut applies (Thm 5)");
    ("ANL304", Hint, "unary keys + foreign keys: polynomial satisfiability (Prop 6)");
    ("ANL305", Hint, "constraint set needs the generic exponential procedures");
    ("ANL306", Hint, "weakly acyclic dependencies: chase terminates on every instance");
    ("ANL307", Warning, "special-edge cycle: chase termination not guaranteed, bounded run only");
    ("ANL401", Hint, "support sentence decomposes: µ^k is the product of independent parts' measures");
    ("ANL402", Hint, "support sentence does not decompose (single component or unguarded quantifier)")
  ]

(* ------------------------------------------------------------------ *)
(* Text rendering                                                       *)
(* ------------------------------------------------------------------ *)

let to_string d =
  let span =
    match d.span with
    | None -> ""
    | Some s -> Printf.sprintf " [%d-%d]" s.span_start s.span_stop
  in
  let head =
    Printf.sprintf "%s[%s] %s%s: %s"
      (severity_string d.severity)
      d.code d.loc span d.message
  in
  match d.hint with
  | None -> head
  | Some h -> head ^ "\n  = " ^ h

(* ------------------------------------------------------------------ *)
(* JSON rendering (hand-rolled; no JSON library in the build)           *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let to_json d =
  let fields =
    [ ("code", json_string d.code);
      ("severity", json_string (severity_string d.severity));
      ("loc", json_string d.loc);
      ("message", json_string d.message)
    ]
    @ (match d.span with
      | None -> []
      | Some s ->
          [ ("span", Printf.sprintf "[%d, %d]" s.span_start s.span_stop) ])
    @ match d.hint with None -> [] | Some h -> [ ("hint", json_string h) ]
  in
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let render_json ds =
  "[" ^ String.concat ", " (List.map to_json (sort ds)) ^ "]"

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Runs of bytes that pass through unchanged are copied whole. *)
let add_escaped b s =
  let n = String.length s in
  let rec go start i =
    if i = n then Buffer.add_substring b s start (i - start)
    else
      let c = String.unsafe_get s i in  (* i < n *)
      if not (needs_escape c) then go start (i + 1)
      else begin
        Buffer.add_substring b s start (i - start);
        (match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c)));
        go (i + 1) (i + 1)
      end
  in
  go 0 0

let escape s =
  let b = Buffer.create (String.length s) in
  add_escaped b s;
  Buffer.contents b

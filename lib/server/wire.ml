(* Wire protocol: strict single-line flat-JSON requests, compact
   one-line responses. The parser accepts exactly the documented
   grammar — a flat object of string/integer fields — and reports the
   first offence with its byte position, so malformed traffic gets a
   deterministic [parse_error] message instead of a best-effort
   guess. *)

type value = Str of string | Int of int

type request = {
  id : string option;
  op : string;
  fields : (string * value) list;
}

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

type state = { line : string; mutable pos : int }

let peek st = if st.pos < String.length st.line then Some st.line.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.line
    && (match st.line.[st.pos] with ' ' | '\t' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> bad "expected '%c' at byte %d, found '%c'" c st.pos d
  | None -> bad "expected '%c' at byte %d, found end of line" c st.pos

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> bad "invalid hex digit '%c'" c

(* Decode \uXXXX to UTF-8 bytes. Surrogates are rejected: the protocol
   has no surrogate pairs (the emitter only ever escapes bytes below
   0x20), so accepting lone halves would only smuggle in invalid
   UTF-8. *)
let add_unicode st b =
  if st.pos + 4 > String.length st.line then
    bad "truncated \\u escape at byte %d" st.pos;
  let v =
    (hex_digit st.line.[st.pos] lsl 12)
    lor (hex_digit st.line.[st.pos + 1] lsl 8)
    lor (hex_digit st.line.[st.pos + 2] lsl 4)
    lor hex_digit st.line.[st.pos + 3]
  in
  st.pos <- st.pos + 4;
  if v >= 0xD800 && v <= 0xDFFF then
    bad "surrogate \\u escape at byte %d" (st.pos - 6);
  if v < 0x80 then Buffer.add_char b (Char.chr v)
  else if v < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (v lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (v land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xE0 lor (v lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((v lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (v land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let b = Buffer.create 32 in
  let rec go () =
    match peek st with
    | None -> bad "unterminated string at end of line"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | None -> bad "trailing backslash at end of line"
        | Some c ->
            st.pos <- st.pos + 1;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' -> add_unicode st b
            | c -> bad "unknown escape '\\%c' at byte %d" c (st.pos - 2));
            go ())
    | Some c when Char.code c < 0x20 ->
        bad "raw control byte 0x%02x inside string at byte %d" (Char.code c)
          st.pos
    | Some _ ->
        (* Copy the whole run of plain bytes up to the next quote,
           backslash or control byte at once. *)
        let line = st.line and start = st.pos in
        let n = String.length line in
        let j = ref start in
        while
          !j < n
          && (match String.unsafe_get line !j with
             | '"' | '\\' -> false
             | c -> Char.code c >= 0x20)
        do
          incr j
        done;
        Buffer.add_substring b line start (!j - start);
        st.pos <- !j;
        go ()
  in
  go ();
  Buffer.contents b

let parse_int st =
  let start = st.pos in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  let digits = ref 0 in
  let rec go () =
    match peek st with
    | Some ('0' .. '9') ->
        incr digits;
        st.pos <- st.pos + 1;
        go ()
    | _ -> ()
  in
  go ();
  if !digits = 0 then bad "expected a value at byte %d" start;
  match int_of_string (String.sub st.line start (st.pos - start)) with
  | n -> n
  | exception _ -> bad "integer out of range at byte %d" start

let parse_value st =
  match peek st with
  | Some '"' -> Str (parse_string st)
  | Some ('-' | '0' .. '9') -> Int (parse_int st)
  | Some c -> bad "expected a string or integer at byte %d, found '%c'" st.pos c
  | None -> bad "expected a value at byte %d, found end of line" st.pos

let parse_request line =
  let st = { line; pos = 0 } in
  match
    skip_ws st;
    expect st '{';
    skip_ws st;
    let fields = ref [] in
    (if peek st = Some '}' then st.pos <- st.pos + 1
     else
       let rec pairs () =
         let key = parse_string st in
         skip_ws st;
         expect st ':';
         skip_ws st;
         let v = parse_value st in
         if List.mem_assoc key !fields then bad "duplicate field %S" key;
         fields := (key, v) :: !fields;
         skip_ws st;
         match peek st with
         | Some ',' ->
             st.pos <- st.pos + 1;
             skip_ws st;
             pairs ()
         | Some '}' -> st.pos <- st.pos + 1
         | Some c -> bad "expected ',' or '}' at byte %d, found '%c'" st.pos c
         | None -> bad "unterminated object at end of line"
       in
       pairs ());
    skip_ws st;
    (match peek st with
    | Some c -> bad "trailing byte '%c' after object at byte %d" c st.pos
    | None -> ());
    List.rev !fields
  with
  | exception Bad msg -> Error msg
  | fields -> (
      let str name =
        match List.assoc_opt name fields with
        | Some (Str s) -> Some s
        | Some (Int n) -> Some (string_of_int n)
        | None -> None
      in
      match str "op" with
      | None -> Error "missing field \"op\""
      | Some op -> Ok { id = str "id"; op; fields })

let str_field r name =
  match List.assoc_opt name r.fields with
  | Some (Str s) -> Some s
  | Some (Int n) -> Some (string_of_int n)
  | None -> None

let int_field r name =
  match List.assoc_opt name r.fields with
  | Some (Int n) -> Some n
  | Some (Str s) -> int_of_string_opt s
  | None -> None

(* ------------------------------------------------------------------ *)
(* Response emission                                                   *)
(* ------------------------------------------------------------------ *)

type json = S of string | I of int | B of bool | Raw of string

type error =
  | Parse_error
  | Bad_request
  | Unsupported_op
  | Analysis_error
  | Overloaded
  | Deadline_exceeded
  | Shutting_down
  | Shard_unavailable
  | Unknown_session
  | Internal_error

let error_code = function
  | Parse_error -> "parse_error"
  | Bad_request -> "bad_request"
  | Unsupported_op -> "unsupported_op"
  | Analysis_error -> "analysis_error"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Shutting_down -> "shutting_down"
  | Shard_unavailable -> "shard_unavailable"
  | Unknown_session -> "unknown_session"
  | Internal_error -> "internal_error"

let obj fields =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Obs.Json.add_escaped b k;
      Buffer.add_string b "\":";
      match v with
      | S s ->
          Buffer.add_char b '"';
          Obs.Json.add_escaped b s;
          Buffer.add_char b '"'
      | I n -> Buffer.add_string b (string_of_int n)
      | B v -> Buffer.add_string b (if v then "true" else "false")
      | Raw s -> Buffer.add_string b s)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let id_prefix id = match id with None -> [] | Some id -> [ ("id", S id) ]

let ok_line ~id ~op payload =
  obj (id_prefix id @ [ ("ok", B true); ("op", S op) ] @ payload)

let error_line ~id err msg =
  obj
    (id_prefix id
    @ [ ("ok", B false); ("error", S (error_code err)); ("message", S msg) ])

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec matches_at i k =
    k = nn || (hay.[i + k] = needle.[k] && matches_at i (k + 1))
  in
  let rec go i = i + nn <= nh && (matches_at i 0 || go (i + 1)) in
  go 0

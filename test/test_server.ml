(* The query service: wire-protocol parsing, the session store, the
   request handlers (gated on identity with the direct engine calls),
   deadline propagation, and an end-to-end exercise of a live daemon
   over a Unix socket — admission control, parse-error survival,
   health, and graceful drain. *)

module W = Server.Wire
module Session = Server.Session
module Service = Server.Service
module Daemon = Server.Daemon
module Client = Server.Client

module Listener = Server.Listener

let check = Alcotest.check
let contains = W.contains

(* --- wire: requests ----------------------------------------------- *)

let parse_ok line =
  match W.parse_request line with
  | Ok r -> r
  | Error msg -> Alcotest.failf "expected %s to parse, got: %s" line msg

let parse_err line =
  match W.parse_request line with
  | Ok _ -> Alcotest.failf "expected %s to be rejected" line
  | Error msg -> msg

let test_parse_good () =
  let r = parse_ok {|{"op":"health"}|} in
  check Alcotest.string "op" "health" r.W.op;
  check Alcotest.(option string) "no id" None r.W.id;
  let r =
    parse_ok {|  { "id" : "r1" , "op" : "certain" , "deadline_ms" : 250 }  |}
  in
  check Alcotest.(option string) "id echoed" (Some "r1") r.W.id;
  check Alcotest.(option int) "int field" (Some 250)
    (W.int_field r "deadline_ms");
  (* Lenient cross-coercion between the two value forms. *)
  check Alcotest.(option string) "int read as string" (Some "250")
    (W.str_field r "deadline_ms");
  let r = parse_ok {|{"op":"certain","k":"42"}|} in
  check Alcotest.(option int) "digit string read as int" (Some 42)
    (W.int_field r "k");
  check Alcotest.(option int) "absent field" None (W.int_field r "nope")

let test_parse_escapes () =
  let r = parse_ok {|{"op":"certain","query":"Q() := \"a\\b\"\n\t"}|} in
  check Alcotest.(option string) "standard escapes decoded"
    (Some "Q() := \"a\\b\"\n\t")
    (W.str_field r "query");
  let r = parse_ok {|{"op":"x","s":"µA⊥"}|} in
  check Alcotest.(option string) "\\u decoded to UTF-8" (Some "µA⊥")
    (W.str_field r "s")

let test_parse_bad () =
  let rejects label line = ignore (parse_err line); ignore label in
  rejects "empty" "";
  rejects "not an object" {|"health"|};
  rejects "truncated" {|{"op":"health"|};
  rejects "missing op" {|{"id":"r1"}|};
  rejects "nested object" {|{"op":"x","v":{"a":1}}|};
  rejects "array value" {|{"op":"x","v":[1]}|};
  rejects "boolean value" {|{"op":"x","v":true}|};
  rejects "float value" {|{"op":"x","v":1.5}|};
  rejects "bad escape" {|{"op":"x","v":"\q"}|};
  rejects "lone surrogate" {|{"op":"x","v":"\ud800"}|};
  rejects "raw control byte" "{\"op\":\"x\",\"v\":\"a\tb\"}";
  (* Positions in diagnostics and the two strictness rules the daemon
     counts on: duplicates and trailing bytes. *)
  check Alcotest.bool "duplicate key named" true
    (contains (parse_err {|{"op":"x","op":"y"}|}) "duplicate");
  check Alcotest.bool "trailing bytes named" true
    (contains (parse_err {|{"op":"x"} extra|}) "trailing");
  check Alcotest.bool "byte position reported" true
    (contains (parse_err {|{oops|}) "byte")

(* Plain runs are copied whole; escapes and diagnostics around them
   must come out as they did byte by byte. *)
let test_parse_long_runs () =
  let run = String.make 70_000 'a' in
  let r =
    parse_ok
      (Printf.sprintf {|{"op":"x","s":"%s\n%s\u00e9%s"}|} run run run)
  in
  check Alcotest.(option string) "runs around escapes"
    (Some (run ^ "\n" ^ run ^ "\xc3\xa9" ^ run))
    (W.str_field r "s");
  check Alcotest.string "control byte after a run, at its position"
    "raw control byte 0x09 inside string at byte 70015"
    (parse_err (Printf.sprintf "{\"op\":\"x\",\"s\":\"%s\tb\"}" run));
  check Alcotest.string "unterminated after a run"
    "unterminated string at end of line"
    (parse_err (Printf.sprintf {|{"op":"x","s":"%s|} run))

(* The shared escaper against its byte-by-byte definition. *)
let test_escape_runs () =
  let reference s =
    let b = Buffer.create 16 in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b {|\"|}
        | '\\' -> Buffer.add_string b {|\\|}
        | '\n' -> Buffer.add_string b {|\n|}
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let all_bytes = String.init 256 Char.chr in
  List.iter
    (fun s ->
      check Alcotest.string "escape = byte-by-byte escape" (reference s)
        (Obs.Json.escape s);
      (* And the parser reads every escaped string back. *)
      check Alcotest.(option string) "escape round-trips" (Some s)
        (W.str_field (parse_ok (W.obj [ ("op", W.S "x"); ("s", W.S s) ])) "s"))
    [ ""; "plain"; "\""; "a\"b\\c\n"; "\n\n"; all_bytes;
      String.make 5000 'x' ^ all_bytes ^ String.make 5000 'y' ^ "\001"
    ]

let test_contains () =
  let yes hay needle =
    check Alcotest.bool (Printf.sprintf "%S in %S" needle hay) true
      (W.contains hay needle)
  and no hay needle =
    check Alcotest.bool (Printf.sprintf "%S not in %S" needle hay) false
      (W.contains hay needle)
  in
  yes {|"ok":true,"op":"x"|} {|"ok":true|};
  yes {|{"op":"x","ok":true|} {|"ok":true|};
  yes "abc" "";
  yes "" "";
  yes "aab" "ab";
  no {|{"ok":false}|} {|"ok":true|};
  no "ok" {|"ok":true|};
  no "" "a";
  no "abab" "abb"

let test_wire_responses () =
  check Alcotest.string "ok line"
    {|{"id":"r1","ok":true,"op":"health","n":3,"b":false,"raw":[1]}|}
    (W.ok_line ~id:(Some "r1") ~op:"health"
       [ ("n", W.I 3); ("b", W.B false); ("raw", W.Raw "[1]") ]);
  check Alcotest.string "error line, no id"
    {|{"ok":false,"error":"overloaded","message":"queue full"}|}
    (W.error_line ~id:None W.Overloaded "queue full");
  (* Hostile content is escaped with the shared Obs.Json encoder:
     quotes, backslashes, newlines, and control bytes all come out as
     standard JSON escapes, one line per response. *)
  check Alcotest.string "hostile content escaped"
    {|{"id":"a\"b\n","ok":true,"op":"x","s":"\\\u0009"}|}
    (W.ok_line ~id:(Some "a\"b\n") ~op:"x" [ ("s", W.S "\\\t") ])

(* --- session store ------------------------------------------------ *)

let schema_a = "R(a,b); S(a,b)"
let db_a = "R = { ('c1', ~1), ('c2', 'v') }; S = { ('c1', 'v') }"

let test_session_sharing_and_eviction () =
  let s = Session.create ~max_sessions:2 () in
  let e1 = Result.get_ok (Session.get s ~schema:schema_a ~db:db_a) in
  let e1' = Result.get_ok (Session.get s ~schema:schema_a ~db:db_a) in
  check Alcotest.bool "same entry shared" true (e1 == e1');
  check Alcotest.int "one session" 1 (Session.count s);
  let db2 = "R = { ('c9', ~7) }; S = { }" in
  let db3 = "R = { }; S = { ('c8', 'w') }" in
  ignore (Result.get_ok (Session.get s ~schema:schema_a ~db:db2));
  check Alcotest.int "two sessions" 2 (Session.count s);
  ignore (Result.get_ok (Session.get s ~schema:schema_a ~db:db3));
  check Alcotest.int "capped at two" 2 (Session.count s);
  (* The first pair was the least recently used, so it was evicted:
     reloading it is a fresh entry, not the one we held. *)
  let e1'' = Result.get_ok (Session.get s ~schema:schema_a ~db:db_a) in
  check Alcotest.bool "first session was evicted" false (e1 == e1'');
  match Session.get s ~schema:"R(" ~db:db_a with
  | Ok _ -> Alcotest.fail "bad schema text accepted"
  | Error _ -> ()

(* --- service handlers --------------------------------------------- *)

let run_service ?guard line =
  let sessions = Session.create () in
  Service.handle ~sessions ~jobs:1 ?guard (parse_ok line)

let expect_ok = function
  | Ok payload -> payload
  | Error (err, msg) ->
      Alcotest.failf "expected success, got %s: %s" (W.error_code err) msg

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected %s" (W.error_code expected)
  | Error (err, msg) ->
      check Alcotest.string "typed error" (W.error_code expected)
        (W.error_code err);
      msg

let payload_str payload k =
  match List.assoc_opt k payload with
  | Some (W.S s) -> s
  | Some (W.I n) -> string_of_int n
  | _ -> Alcotest.failf "payload field %s missing or non-scalar" k

let certain_line =
  W.obj
    [ ("op", W.S "certain"); ("schema", W.S schema_a); ("db", W.S db_a);
      ("query", W.S "Q(x,y) := R(x,y) & !S(x,y)")
    ]

(* The endpoint must agree exactly with the sequential engine run on
   the same parsed inputs — the same identity [bench --serve] gates on
   at scale. *)
let test_service_certain_identity () =
  let payload = expect_ok (run_service certain_line) in
  let sch = Result.get_ok (Logic.Parser.schema schema_a) in
  let inst = Result.get_ok (Logic.Parser.instance sch db_a) in
  let q = Logic.Parser.query_exn "Q(x,y) := R(x,y) & !S(x,y)" in
  let expected = Incomplete.Certain.certain_answers inst q in
  let rel_string r =
    String.concat "; "
      (List.map Relational.Tuple.to_string (Relational.Relation.to_list r))
  in
  check Alcotest.string "certain identical to engine" (rel_string expected)
    (payload_str payload "certain");
  check Alcotest.string "certain count"
    (string_of_int (Relational.Relation.cardinal expected))
    (payload_str payload "certain_count")

let test_service_measure () =
  let line =
    W.obj
      [ ("op", W.S "measure"); ("schema", W.S schema_a); ("db", W.S db_a);
        ("query", W.S "Q(x,y) := R(x,y)"); ("tuple", W.S "('c1', ~1)");
        ("ks", W.S "2,3")
      ]
  in
  let payload = expect_ok (run_service line) in
  check Alcotest.string "verdict is the 0-1 limit" "almost certainly true"
    (payload_str payload "verdict");
  check Alcotest.string "mu" "1" (payload_str payload "mu");
  check Alcotest.string "exact series" "2=1;3=1" (payload_str payload "series")

let test_service_bad_requests () =
  let msg =
    expect_err W.Bad_request
      (run_service (W.obj [ ("op", W.S "certain"); ("schema", W.S schema_a) ]))
  in
  check Alcotest.bool "names the missing field" true (contains msg "db");
  ignore
    (expect_err W.Unsupported_op (run_service (W.obj [ ("op", W.S "frob") ])));
  (* The analysis gate: a non-generic query (names a constant) is
     refused with the stable diagnostic code, never evaluated. *)
  let msg =
    expect_err W.Analysis_error
      (run_service
         (W.obj
            [ ("op", W.S "certain"); ("schema", W.S schema_a);
              ("db", W.S db_a); ("query", W.S "Q(x) := R(x, 'c1')")
            ]))
  in
  check Alcotest.bool "carries the ANL code" true (contains msg "ANL")

let test_service_deadline () =
  (* A guard that trips immediately: the sweep must abort with the
     typed error, whatever progress it had made. *)
  let msg =
    expect_err W.Deadline_exceeded
      (run_service ~guard:(fun () -> raise Service.Deadline) certain_line)
  in
  check Alcotest.string "fixed message" "deadline exceeded" msg;
  (* And a guard that never trips changes nothing. *)
  let p1 = expect_ok (run_service certain_line) in
  let p2 = expect_ok (run_service ~guard:(fun () -> ()) certain_line) in
  check Alcotest.bool "guard presence is invisible in the result" true
    (p1 = p2)

(* An analyze report is a function of the request alone: renaming the
   constants, and interning other names in between, changes no byte.
   Constant codes are process-global, so a k derived from the largest
   code would move with what the process served before. *)
let test_service_analyze_content_determined () =
  let report db =
    let line =
      W.obj
        [ ("op", W.S "analyze"); ("schema", W.S "R(a,b); S(a,b)");
          ("db", W.S db);
          ("query", W.S "Q() := (exists x. R(x,x)) & (exists y. S(y,y))")
        ]
    in
    match List.assoc_opt "report" (expect_ok (run_service line)) with
    | Some (W.Raw json) -> json
    | _ -> Alcotest.fail "analyze answered no report"
  in
  let first = report "R = { (~1,'ae1'), (~2,'ae2') }; S = { (~3,'af1') }" in
  let unrelated =
    Printf.sprintf "R = { %s }; S = { }"
      (String.concat ", "
         (List.init 12 (fun i -> Printf.sprintf "('au%d', ~1)" i)))
  in
  ignore
    (Result.get_ok
       (Session.get (Session.create ()) ~schema:schema_a ~db:unrelated));
  let renamed = report "R = { (~1,'ag1'), (~2,'ag2') }; S = { (~3,'ah1') }" in
  check Alcotest.string "same report after renaming" first renamed;
  check Alcotest.bool "k counts the constants" true
    (contains first "\"k\": 19")

(* The update op, end to end at the service layer: a session mutated
   in place must answer exactly like a fresh session loaded from the
   updated database text — and the original (schema, db) pair keeps
   addressing the mutated state. *)
let test_service_update () =
  let sessions = Session.create () in
  let handle line = Service.handle ~sessions ~jobs:1 (parse_ok line) in
  let certain_for db =
    W.obj
      [ ("op", W.S "certain"); ("schema", W.S schema_a); ("db", W.S db);
        ("query", W.S "Q(x,y) := R(x,y) & !S(x,y)")
      ]
  in
  let update_line fields =
    W.obj
      ([ ("op", W.S "update"); ("schema", W.S schema_a); ("db", W.S db_a) ]
      @ List.map (fun (k, v) -> (k, W.S v)) fields)
  in
  let before = expect_ok (handle (certain_for db_a)) in
  (* block R('c2','v') by inserting it into S *)
  let up =
    expect_ok
      (handle
         (update_line
            [ ("action", "insert"); ("relation", "S");
              ("tuple", "('c2', 'v')")
            ]))
  in
  check Alcotest.string "applied echoed" "insert" (payload_str up "applied");
  check Alcotest.string "new cardinality" "2" (payload_str up "cardinality");
  let after = expect_ok (handle (certain_for db_a)) in
  check Alcotest.bool "update changed the certain answers" false
    (before = after);
  (* bit-identity with a rebuilt session on the updated text *)
  let rebuilt = Session.create () in
  let db_updated = "R = { ('c1', ~1), ('c2', 'v') }; S = { ('c1', 'v'), ('c2', 'v') }" in
  let expected =
    expect_ok
      (Service.handle ~sessions:rebuilt ~jobs:1 (parse_ok (certain_for db_updated)))
  in
  check Alcotest.bool "mutated session = rebuilt session" true
    (after = expected);
  (* deleting the tuple again restores the original answers exactly *)
  ignore
    (expect_ok
       (handle
          (update_line
             [ ("action", "delete"); ("relation", "S");
               ("tuple", "('c2', 'v')")
             ])));
  let restored = expect_ok (handle (certain_for db_a)) in
  check Alcotest.bool "delete restored the original answers" true
    (before = restored)

let test_service_update_errors () =
  let sessions = Session.create () in
  let handle line = Service.handle ~sessions ~jobs:1 (parse_ok line) in
  let line fields =
    W.obj
      ([ ("op", W.S "update"); ("schema", W.S schema_a); ("db", W.S db_a) ]
      @ List.map (fun (k, v) -> (k, W.S v)) fields)
  in
  let expect_bad label fields needle =
    let msg = expect_err W.Bad_request (handle (line fields)) in
    check Alcotest.bool label true (contains msg needle)
  in
  expect_bad "missing action"
    [ ("relation", "R"); ("tuple", "('c1', ~1)") ]
    "action";
  expect_bad "unknown action"
    [ ("action", "upsert"); ("relation", "R"); ("tuple", "('c1', ~1)") ]
    "upsert";
  expect_bad "unknown relation"
    [ ("action", "insert"); ("relation", "T"); ("tuple", "('c1', ~1)") ]
    "unknown relation";
  expect_bad "arity mismatch"
    [ ("action", "insert"); ("relation", "R"); ("tuple", "('c1')") ]
    "arity";
  expect_bad "deleting an absent tuple"
    [ ("action", "delete"); ("relation", "R"); ("tuple", "('c9', 'z')") ]
    "not in";
  expect_bad "inserting a duplicate"
    [ ("action", "insert"); ("relation", "R"); ("tuple", "('c2', 'v')") ]
    "already";
  expect_bad "unparseable tuple"
    [ ("action", "insert"); ("relation", "R"); ("tuple", "(oops") ]
    "tuple";
  (* the failed updates left the session byte-identical *)
  let fresh = Session.create () in
  let certain =
    W.obj
      [ ("op", W.S "certain"); ("schema", W.S schema_a); ("db", W.S db_a);
        ("query", W.S "Q(x,y) := R(x,y)")
      ]
  in
  check Alcotest.bool "session unchanged by refused updates" true
    (expect_ok (handle certain)
    = expect_ok (Service.handle ~sessions:fresh ~jobs:1 (parse_ok certain)))

(* --- sessions named by digest --------------------------------------- *)

let render (r : W.request) = function
  | Ok payload -> W.ok_line ~id:r.W.id ~op:r.W.op payload
  | Error (err, msg) -> W.error_line ~id:r.W.id err msg

(* The request of [fields] that names its session by digest alone. *)
let named_line ~digest fields =
  W.obj (("session", W.S digest) :: fields)

let text_line fields =
  W.obj (("schema", W.S schema_a) :: ("db", W.S db_a) :: fields)

(* Every op answers a [session] request exactly as its text form, and
   updates through the digest land in the same session as through the
   text. Each request runs against its own store: the text form in
   one, the digest form in another loaded from the same text. *)
let test_service_session_form () =
  let by_text = Session.create () and by_digest = Session.create () in
  let digest = Session.digest ~schema:schema_a ~db:db_a in
  let entry =
    Result.get_ok (Session.get by_digest ~schema:schema_a ~db:db_a)
  in
  check Alcotest.string "entry carries its digest" digest entry.Session.digest;
  check Alcotest.int "hex MD5" 32 (String.length digest);
  let requests =
    [ [ ("id", W.S "c1"); ("op", W.S "certain");
        ("query", W.S "Q(x,y) := R(x,y) & !S(x,y)")
      ];
      [ ("id", W.S "m1"); ("op", W.S "measure");
        ("query", W.S "Q(x,y) := R(x,y)"); ("tuple", W.S "('c1', ~1)");
        ("ks", W.S "1,2,3")
      ];
      [ ("id", W.S "d1"); ("op", W.S "conditional");
        ("constraints", W.S "fd R : a -> b");
        ("query", W.S "Q(x,y) := R(x,y)"); ("tuple", W.S "('c1', 'v')")
      ];
      [ ("id", W.S "a1"); ("op", W.S "approx");
        ("query", W.S "Q(x,y) := R(x,y)"); ("tuple", W.S "('c1', 'v')");
        ("k", W.I 3); ("eps", W.S "1/4"); ("delta", W.S "1/4");
        ("seed", W.I 7)
      ];
      [ ("id", W.S "n1"); ("op", W.S "analyze");
        ("query", W.S "Q(x) := exists y. R(x,y) & !S(x,y)");
        ("scheme", W.S "sql")
      ];
      [ ("id", W.S "u1"); ("op", W.S "update"); ("action", W.S "insert");
        ("relation", W.S "S"); ("tuple", W.S "('c2', 'v')")
      ];
      [ ("id", W.S "c2"); ("op", W.S "certain");
        ("query", W.S "Q(x,y) := R(x,y) & !S(x,y)")
      ];
      [ ("id", W.S "u2"); ("op", W.S "update"); ("action", W.S "delete");
        ("relation", W.S "S"); ("tuple", W.S "('c2', 'v')")
      ];
      [ ("id", W.S "u3"); ("op", W.S "update"); ("action", W.S "delete");
        ("relation", W.S "S"); ("tuple", W.S "('c2', 'v')")
      ]
    ]
  in
  List.iter
    (fun fields ->
      let answer sessions line =
        let r = parse_ok line in
        render r (Service.handle ~sessions ~jobs:1 r)
      in
      let want = answer by_text (text_line fields) in
      check Alcotest.bool ("text form answers " ^ want) true
        (contains want {|"ok":true|} || contains want "not in S");
      check Alcotest.string "session form answers the same bytes" want
        (answer by_digest (named_line ~digest fields)))
    requests

let test_service_unknown_session () =
  let sessions = Session.create ~max_sessions:1 () in
  let handle line = Service.handle ~sessions ~jobs:1 (parse_ok line) in
  let certain =
    [ ("op", W.S "certain"); ("query", W.S "Q(x,y) := R(x,y)") ]
  in
  let msg =
    expect_err W.Unknown_session
      (handle (named_line ~digest:(String.make 32 '0') certain))
  in
  check Alcotest.bool "says to resend the text" true (contains msg "\"db\"");
  ignore (expect_ok (handle (text_line certain)));
  let digest = Session.digest ~schema:schema_a ~db:db_a in
  ignore (expect_ok (handle (named_line ~digest certain)));
  (* Loading a second session evicts the first from a one-entry store:
     its digest names nothing any more. *)
  let other = "R = { ('c9', ~7) }; S = { }" in
  ignore
    (expect_ok
       (handle
          (W.obj (("schema", W.S schema_a) :: ("db", W.S other) :: certain))));
  ignore (expect_err W.Unknown_session (handle (named_line ~digest certain)));
  (* A request names its session one way only. *)
  List.iter
    (fun extra ->
      let msg =
        expect_err W.Bad_request
          (handle (W.obj ((("session", W.S digest) :: extra) @ certain)))
      in
      check Alcotest.bool "names both ways" true (contains msg "not both"))
    [ [ ("db", W.S db_a) ]; [ ("schema", W.S schema_a); ("db", W.S db_a) ] ]

(* A digest that names one pair is never handed to another: with a
   digest function that collides on every pair, the second pair is
   refused while the first is live, and loads once it is evicted. *)
let test_session_digest_collision () =
  let s =
    Session.create ~max_sessions:1 ~digest:(fun ~schema:_ ~db:_ -> "same") ()
  in
  let e1 = Result.get_ok (Session.get s ~schema:schema_a ~db:db_a) in
  let db2 = "R = { ('c9', ~7) }; S = { }" in
  (match Session.get s ~schema:schema_a ~db:db2 with
  | Ok _ -> Alcotest.fail "a colliding pair was loaded"
  | Error msg ->
      check Alcotest.bool "refusal names the digest" true
        (contains msg "digest"));
  (match Session.find s "same" with
  | Some e ->
      check Alcotest.bool "digest still names the first pair" true (e == e1)
  | None -> Alcotest.fail "first pair lost its digest");
  check Alcotest.int "no load, no eviction" 1 (Session.count s)

(* --- daemon end-to-end -------------------------------------------- *)

let temp_sock tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "certainty-test-%s-%d.sock" tag (Unix.getpid ()))

let with_daemon ?(config = fun c -> c) tag f =
  let sock = temp_sock tag in
  if Sys.file_exists sock then Sys.remove sock;
  let t = Daemon.start (config (Daemon.default_config (Daemon.Unix_sock sock))) in
  Fun.protect
    ~finally:(fun () ->
      Daemon.drain t;
      Daemon.wait t)
    (fun () -> f (Daemon.Unix_sock sock))

let request_exn c line =
  match Client.request c line with
  | Some resp -> resp
  | None -> Alcotest.fail "server hung up"

let test_daemon_end_to_end () =
  with_daemon "e2e" @@ fun addr ->
  Client.with_conn addr @@ fun c ->
  (* Health answers inline. *)
  let h = request_exn c (W.obj [ ("op", W.S "health"); ("id", W.S "h1") ]) in
  check Alcotest.bool "health ok" true (contains h {|"ok":true|});
  check Alcotest.bool "health echoes id" true (contains h {|"id":"h1"|});
  check Alcotest.bool "health reports serving" true
    (contains h {|"status":"serving"|});
  (* A real evaluation matches the sequential engine byte-for-byte. *)
  let sessions = Session.create () in
  let r = parse_ok certain_line in
  let expected =
    match Service.handle ~sessions ~jobs:1 r with
    | Ok payload -> W.ok_line ~id:r.W.id ~op:r.W.op payload
    | Error (err, msg) -> W.error_line ~id:r.W.id err msg
  in
  check Alcotest.string "daemon response identical to sequential engine"
    expected
    (request_exn c certain_line);
  (* A malformed line gets a typed parse_error and the connection
     survives to serve the next request. *)
  let bad = request_exn c "{oops" in
  check Alcotest.bool "parse error typed" true
    (contains bad {|"error":"parse_error"|});
  check Alcotest.bool "connection survives a parse error" true
    (contains (request_exn c (W.obj [ ("op", W.S "health") ])) {|"ok":true|})

let test_daemon_overload () =
  let config c = { c with Daemon.service_threads = 1; max_queue = 0 } in
  with_daemon ~config "sat" @@ fun addr ->
  (* max_queue = 0: the queue admits nothing, so every evaluating
     request is shed with the typed response... *)
  let before = Obs.Metrics.value Obs.Metrics.serve_overloaded in
  Client.with_conn addr @@ fun c ->
  let resp = request_exn c certain_line in
  check Alcotest.bool "overloaded" true (contains resp {|"error":"overloaded"|});
  (* ...the counter records the shed... *)
  check Alcotest.bool "serve_overloaded counter bumped" true
    (Obs.Metrics.value Obs.Metrics.serve_overloaded > before);
  (* ...and the server stays responsive: health is answered inline,
     off-queue. *)
  check Alcotest.bool "health still served" true
    (contains (request_exn c (W.obj [ ("op", W.S "health") ])) {|"ok":true|})

let test_daemon_deadline () =
  let config c = { c with Daemon.deadline_ms = Some 1 } in
  with_daemon ~config "dl" @@ fun addr ->
  let before = Obs.Metrics.value Obs.Metrics.serve_deadline_exceeded in
  Client.with_conn addr @@ fun c ->
  (* Nine nulls give 21 147 valuation classes: the class pass cannot
     finish in 1ms; the guard trips inside it and the typed error comes
     back. *)
  let slow =
    W.obj
      [ ("op", W.S "measure"); ("schema", W.S "U(a,b,c,d,e,f,g,h,i)");
        ("db", W.S "U = { (~1, ~2, ~3, ~4, ~5, ~6, ~7, ~8, ~9) }");
        ("query", W.S "Q() := exists x. U(x, x, x, x, x, x, x, x, x)");
        ("ks", W.S "60")
      ]
  in
  let resp = request_exn c slow in
  check Alcotest.bool "deadline exceeded" true
    (contains resp {|"error":"deadline_exceeded"|});
  check Alcotest.bool "counter bumped" true
    (Obs.Metrics.value Obs.Metrics.serve_deadline_exceeded > before);
  (* A per-request deadline_ms overrides the server default upward:
     the same connection can still run a real query to completion. *)
  let ok_line =
    W.obj
      [ ("op", W.S "certain"); ("schema", W.S schema_a); ("db", W.S db_a);
        ("query", W.S "Q(x,y) := R(x,y) & !S(x,y)"); ("deadline_ms", W.I 60_000)
      ]
  in
  check Alcotest.bool "override lets the request finish" true
    (contains (request_exn c ok_line) {|"ok":true|})

let test_daemon_pipelined_order () =
  with_daemon "pipe" @@ fun addr ->
  Client.with_conn addr @@ fun c ->
  (* A queued evaluation followed immediately by an inline-answerable
     health, written without reading in between: the health result is
     ready first (the reader answers it while the evaluation sits with
     a worker), but the wire must deliver responses in request
     order. *)
  Client.send_line c
    (W.obj
       [ ("op", W.S "certain"); ("id", W.S "p1"); ("schema", W.S schema_a);
         ("db", W.S db_a); ("query", W.S "Q(x,y) := R(x,y) & !S(x,y)")
       ]);
  Client.send_line c (W.obj [ ("op", W.S "health"); ("id", W.S "p2") ]);
  let recv () =
    match Client.recv_line c with
    | Some l -> l
    | None -> Alcotest.fail "server hung up mid-pipeline"
  in
  let r1 = recv () in
  let r2 = recv () in
  check Alcotest.bool "first response answers the first request" true
    (contains r1 {|"id":"p1"|} && contains r1 {|"op":"certain"|});
  check Alcotest.bool "second response answers the second request" true
    (contains r2 {|"id":"p2"|} && contains r2 {|"op":"health"|})

let test_daemon_rejects_nonpositive_deadline () =
  (* A client must not be able to cancel the operator's budget cap by
     sending deadline_ms <= 0 ("no deadline"). *)
  let config c = { c with Daemon.deadline_ms = Some 1 } in
  with_daemon ~config "dl0" @@ fun addr ->
  Client.with_conn addr @@ fun c ->
  List.iter
    (fun ms ->
      let line =
        W.obj
          [ ("op", W.S "certain"); ("schema", W.S schema_a); ("db", W.S db_a);
            ("query", W.S "Q(x,y) := R(x,y)"); ("deadline_ms", W.I ms)
          ]
      in
      let resp = request_exn c line in
      check Alcotest.bool "typed bad_request" true
        (contains resp {|"error":"bad_request"|});
      check Alcotest.bool "names the field" true (contains resp "deadline_ms"))
    [ 0; -1 ]

let test_daemon_caps_line_length () =
  with_daemon "cap" @@ fun addr ->
  Client.with_conn addr @@ fun c ->
  (* One line just past the 1 MiB cap: a typed parse_error, then the
     connection is closed (mid-line there is nothing to resync to). *)
  Client.send_line c (String.make ((1 lsl 20) + 16) 'x');
  (match Client.recv_line c with
  | Some resp ->
      check Alcotest.bool "typed parse_error" true
        (contains resp {|"error":"parse_error"|});
      check Alcotest.bool "says the line was too long" true
        (contains resp "exceeds")
  | None -> Alcotest.fail "no response to the over-long line");
  match Client.recv_line c with
  | None -> ()
  | Some l -> Alcotest.failf "connection should be closed, got %s" l

(* The reader, driven through a bare socket so that writes split (or
   join) lines exactly as the test says. *)
let raw_connect addr =
  let sa = Listener.sockaddr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  Unix.connect fd sa;
  (fd, Unix.in_channel_of_descr fd)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let recv_exn ic =
  match input_line ic with
  | l -> l
  | exception End_of_file -> Alcotest.fail "server hung up"

let expect_eof ic =
  match input_line ic with
  | exception End_of_file -> ()
  | l -> Alcotest.failf "expected EOF, got %s" l

let health ~id = W.obj [ ("op", W.S "health"); ("id", W.S id) ]

let test_daemon_one_write_many_lines () =
  with_daemon "batch" @@ fun addr ->
  let fd, ic = raw_connect addr in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* Every fifth line waits for a worker; the rest answer inline. *)
  let line i =
    let id = Printf.sprintf "b%d" i in
    if i mod 5 = 0 then
      W.obj
        [ ("op", W.S "certain"); ("id", W.S id); ("schema", W.S schema_a);
          ("db", W.S db_a); ("query", W.S "Q(x,y) := R(x,y) & !S(x,y)")
        ]
    else health ~id
  in
  write_all fd (String.concat "" (List.init 50 (fun i -> line i ^ "\n")));
  for i = 0 to 49 do
    let resp = recv_exn ic in
    check Alcotest.bool
      (Printf.sprintf "response %d answers line %d" i i)
      true
      (contains resp (Printf.sprintf {|"id":"b%d"|} i)
      && contains resp {|"ok":true|})
  done

let test_daemon_trickled_long_line () =
  with_daemon "trickle" @@ fun addr ->
  let fd, ic = raw_connect addr in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* A ~300 KB line (its id is echoed back, so every byte is checked)
     and a short one behind it, cut into uneven writes that straddle
     the 64 KiB read blocks and the newline between the two. *)
  let id = String.init 300_000 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let stream = health ~id ^ "\n" ^ health ~id:"after" ^ "\n" in
  let sizes = [| 1; 7_000; 65_535; 65_537; 100; 90_000; 3; 40_000 |] in
  let rec go off k =
    if off < String.length stream then begin
      let n = min sizes.(k mod Array.length sizes) (String.length stream - off) in
      write_all fd (String.sub stream off n);
      Thread.delay 0.002;
      go (off + n) (k + 1)
    end
  in
  go 0 0;
  let echoed = Printf.sprintf {|{"id":"%s","ok":true,"op":"health",|} id in
  check Alcotest.bool "long line arrives whole" true
    (String.starts_with ~prefix:echoed (recv_exn ic));
  check Alcotest.bool "the line behind it is answered next" true
    (contains (recv_exn ic) {|"id":"after"|})

(* A health line of exactly [n] bytes: its id pads it out. *)
let health_of_length n =
  let shell = health ~id:"" in
  health ~id:(String.make (n - String.length shell) 'p')

let test_daemon_cap_is_exact () =
  with_daemon "exact" @@ fun addr ->
  Client.with_conn addr (fun c ->
      let line = health_of_length (1 lsl 20) in
      check Alcotest.int "line length" (1 lsl 20) (String.length line);
      check Alcotest.bool "2^20 bytes accepted" true
        (contains (request_exn c line) {|"ok":true|});
      check Alcotest.bool "connection stays open" true
        (contains (request_exn c (health ~id:"x")) {|"id":"x"|}));
  Client.with_conn addr @@ fun c ->
  let resp = request_exn c (health_of_length ((1 lsl 20) + 1)) in
  check Alcotest.bool "2^20 + 1 bytes refused" true
    (contains resp {|"error":"parse_error"|} && contains resp "exceeds");
  match Client.recv_line c with
  | None -> ()
  | Some l -> Alcotest.failf "connection should be closed, got %s" l

let test_daemon_last_line_without_newline () =
  with_daemon "noeol" @@ fun addr ->
  let fd, ic = raw_connect addr in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  write_all fd (health ~id:"first" ^ "\n" ^ health ~id:"last");
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  check Alcotest.bool "first line answered" true
    (contains (recv_exn ic) {|"id":"first"|});
  check Alcotest.bool "unterminated last line answered" true
    (contains (recv_exn ic) {|"id":"last"|});
  expect_eof ic

let test_daemon_skips_blank_lines () =
  with_daemon "blank" @@ fun addr ->
  let fd, ic = raw_connect addr in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  write_all fd
    ("\n\n" ^ health ~id:"a" ^ "\n\n\n" ^ health ~id:"b" ^ "\n\n");
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  check Alcotest.bool "first request answered first" true
    (contains (recv_exn ic) {|"id":"a"|});
  check Alcotest.bool "second request answered second" true
    (contains (recv_exn ic) {|"id":"b"|});
  (* A blank line taken for a request would have drawn a parse_error. *)
  expect_eof ic

let test_resolve_ipv4 () =
  check Alcotest.string "literal address passes through" "127.0.0.1"
    (Unix.string_of_inet_addr (Daemon.resolve_ipv4 "127.0.0.1"));
  match Daemon.resolve_ipv4 "definitely.not.a.host.invalid" with
  | _ -> Alcotest.fail "bogus host resolved"
  | exception Failure msg ->
      check Alcotest.bool "diagnostic names the host" true
        (contains msg "definitely.not.a.host.invalid")

let test_daemon_drain () =
  let sock = temp_sock "drain" in
  if Sys.file_exists sock then Sys.remove sock;
  let t = Daemon.start (Daemon.default_config (Daemon.Unix_sock sock)) in
  let addr = Daemon.Unix_sock sock in
  let c = Client.connect addr in
  check Alcotest.bool "serving before drain" true
    (contains (request_exn c (W.obj [ ("op", W.S "health") ])) "serving");
  Daemon.drain t;
  Daemon.drain t;
  (* idempotent *)
  Daemon.wait t;
  check Alcotest.bool "socket path unlinked" false (Sys.file_exists sock);
  (* The old connection was shut down; a new connect is refused. *)
  (match Client.recv_line c with
  | None -> ()
  | Some l -> Alcotest.failf "expected EOF after drain, got %s" l);
  Client.close c;
  match Client.connect addr with
  | exception Unix.Unix_error _ -> ()
  | c2 ->
      Client.close c2;
      Alcotest.fail "connect after drain should fail"

let () =
  Obs.Metrics.enable ();
  Alcotest.run "server"
    [ ( "wire",
        [ Alcotest.test_case "parses well-formed requests" `Quick
            test_parse_good;
          Alcotest.test_case "decodes escapes" `Quick test_parse_escapes;
          Alcotest.test_case "rejects malformed requests" `Quick test_parse_bad;
          Alcotest.test_case "emits parseable responses" `Quick
            test_wire_responses;
          Alcotest.test_case "long plain runs parse whole" `Quick
            test_parse_long_runs;
          Alcotest.test_case "escaping copies runs" `Quick test_escape_runs;
          Alcotest.test_case "substring test in place" `Quick test_contains
        ] );
      ( "session",
        [ Alcotest.test_case "sharing and LRU eviction" `Quick
            test_session_sharing_and_eviction
        ] );
      ( "service",
        [ Alcotest.test_case "certain identical to engine" `Quick
            test_service_certain_identity;
          Alcotest.test_case "measure verdict and series" `Quick
            test_service_measure;
          Alcotest.test_case "typed bad requests" `Quick
            test_service_bad_requests;
          Alcotest.test_case "deadline guard" `Quick test_service_deadline;
          Alcotest.test_case "analyze report is content-determined" `Quick
            test_service_analyze_content_determined;
          Alcotest.test_case "update mutates the session in place" `Quick
            test_service_update;
          Alcotest.test_case "update validation" `Quick
            test_service_update_errors;
          Alcotest.test_case "session form answers as the text form" `Quick
            test_service_session_form;
          Alcotest.test_case "unknown and evicted digests" `Quick
            test_service_unknown_session;
          Alcotest.test_case "a digest names one pair" `Quick
            test_session_digest_collision
        ] );
      ( "daemon",
        [ Alcotest.test_case "end to end over a unix socket" `Quick
            test_daemon_end_to_end;
          Alcotest.test_case "admission control sheds load" `Quick
            test_daemon_overload;
          Alcotest.test_case "deadlines trip mid-sweep" `Quick
            test_daemon_deadline;
          Alcotest.test_case "pipelined responses keep request order" `Quick
            test_daemon_pipelined_order;
          Alcotest.test_case "non-positive deadline_ms is refused" `Quick
            test_daemon_rejects_nonpositive_deadline;
          Alcotest.test_case "request lines are length-capped" `Quick
            test_daemon_caps_line_length;
          Alcotest.test_case "host resolution fails readably" `Quick
            test_resolve_ipv4;
          Alcotest.test_case "graceful drain" `Quick test_daemon_drain;
          Alcotest.test_case "many lines in one write, in order" `Quick
            test_daemon_one_write_many_lines;
          Alcotest.test_case "a long line trickled across blocks" `Quick
            test_daemon_trickled_long_line;
          Alcotest.test_case "line cap is exact at 2^20 bytes" `Quick
            test_daemon_cap_is_exact;
          Alcotest.test_case "last line without a newline" `Quick
            test_daemon_last_line_without_newline;
          Alcotest.test_case "blank lines are skipped" `Quick
            test_daemon_skips_blank_lines
        ] )
    ]

(* bench --update: single-tuple mutation vs session rebuild, gated on
   bit-identity.

   The claim being certified is the update path's reason to exist: on
   a session holding a few thousand ground tuples, applying one
   insert/delete through Session.update and re-answering — certain
   answers, the µ^k series, and the chase-backed conditional value —
   must be much cheaper than handing the server the updated database
   text and letting it rebuild the session from scratch (re-parse,
   re-split, re-index, re-chase).

   Both sides answer the same three queries after every step of the
   same update sequence, and every answer string must be byte-equal
   between the live session and the rebuilt one; any divergence is a
   stale cache (kernel db, chase memo) and the bench
   FATALs, exactly like the --parallel digest gate.

   The update mix is deliberately the common case the delta machinery
   targets: mutations hit the big ground relation R while the small
   null-carrying relation S (and the FD set on it) stay put, so the
   delta-maintained kernel db and the resumed chase survive every step
   on the live side, while the rebuilt side pays for everything each
   time. Mixed-relation sequences are correctness-tested in
   test/test_update.ml; this file is the performance gate. *)

module Instance = Relational.Instance
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value
module Names = Relational.Names
module Support = Incomplete.Support
module Dependency = Constraints.Dependency
module Session = Server.Session
module Parser = Logic.Parser
module Rat = Arith.Rat

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let schema_text = "R(a,b); S(a,b)"

(* Named constants round-trip through the parser ('g7'); bare ints and
   Tuple.to_string's display form (_|_1) would not. 96 constants give
   9216 distinct pairs — room for the full-mode relation plus the
   update stream.

   Everything that interns a name or parses a query is lazy, forced on
   first use inside [run]: this module links into bench/main.exe next
   to every other mode, Names codes come from one global counter, and
   µ^k valuation spaces range over codes 1..k — interning 96 pool
   constants at module init would push the constants of every workload
   built after startup (e.g. the approx gate's section-4 example) past
   any usable k and silently empty their support counts. *)
let n_consts = 96

let const_pool =
  lazy
    (Array.init n_consts (fun i ->
         Value.const (Names.intern (Printf.sprintf "g%d" i))))

let pool i = (Lazy.force const_pool).(i)

let render_value = function
  | Value.Const c -> "'" ^ Names.to_string c ^ "'"
  | Value.Null n -> Printf.sprintf "~%d" n

let render_tuple t =
  "(" ^ String.concat ", " (List.map render_value (Tuple.to_list t)) ^ ")"

let render_db rows_r rows_s =
  let body rows = String.concat ", " (List.map render_tuple rows) in
  Printf.sprintf "R = { %s }; S = { %s }" (body rows_r) (body rows_s)

(* S: the stable, null-carrying core. One null, not more: every class
   sweep (certain answers, the naive evaluation inside the chase
   answer) enumerates |anchors|^|nulls| classes {e on both sides}, and
   anchors grow with the constant pool — a second null would add an
   O(rows) term to both sides of the ratio and measure query
   evaluation instead of session maintenance. The two 'g0' rows make
   the FD fire a real unification step (~1 := 'g5'), so the resumed
   chase memo is exercised with a nonempty substitution. *)
let rows_s =
  lazy
    [ Tuple.of_list [ pool 0; Value.null 1 ];
      Tuple.of_list [ pool 0; pool 5 ];
      Tuple.of_list [ pool 2; pool 3 ]
    ]

let fds_s = [ { Dependency.fd_relation = "S"; fd_lhs = [ 0 ]; fd_rhs = 1 } ]

(* [rows] distinct ground pairs over the pool, plus [updates] fresh
   pairs held back as the insert stream. Deterministic: the bench must
   emit the same JSON on every run. *)
let gen_pairs st ~rows ~updates =
  let seen = Hashtbl.create (4 * (rows + updates)) in
  let rec fresh () =
    let i = Random.State.int st n_consts in
    let j = Random.State.int st n_consts in
    if Hashtbl.mem seen (i, j) then fresh ()
    else begin
      Hashtbl.add seen (i, j) ();
      Tuple.of_list [ pool i; pool j ]
    end
  in
  let take n = List.rev (List.fold_left (fun acc _ -> fresh () :: acc) []
                           (List.init n Fun.id)) in
  let base = take rows in
  let stream = take updates in
  (base, stream)

(* Alternating insert/delete of the same fresh tuple keeps the model
   at [rows] tuples and — because every pool constant keeps occurring
   elsewhere — keeps the active domain stable. *)
let update_steps stream =
  List.concat_map
    (fun t -> [ (Session.Insert, t); (Session.Delete, t) ])
    stream

(* ------------------------------------------------------------------ *)
(* The three answers                                                   *)
(* ------------------------------------------------------------------ *)

(* The re-queries are deliberately cheap to {e answer} — one
   quantifier, not a quantifier-pair scan over adom² — so that what
   the clock sees is the cost of {e getting ready} to answer: parse,
   split, index, kernel build and chase on the rebuilt side, against
   delta maintenance on the live side. A heavyweight query would add
   the same evaluation time to both sides and flatten the ratio
   without testing anything the oracle tests don't. *)
let q_cert = lazy (Parser.query_exn "Q() := exists x. S(x, x)")

let q_series =
  lazy (Parser.query_exn "Q() := exists x. R('g0', x) & S('g0', x)")

let ks = [ 2; 3 ]

let rel_string rel =
  String.concat "; " (List.map Tuple.to_string (Relation.to_list rel))

let series_string series =
  String.concat ";"
    (List.map (fun (k, v) -> Printf.sprintf "%d=%s" k (Rat.to_string v)) series)

let t_certain = ref 0.
let t_series = ref 0.
let t_chase = ref 0.

let timed acc f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  acc := !acc +. (Unix.gettimeofday () -. t0);
  r

(* One snapshot of the entry, three answers, one digest string. *)
let answers (entry : Session.entry) =
  let inst = entry.Session.inst and cache = entry.Session.cache in
  let q_cert = Lazy.force q_cert and q_series = Lazy.force q_series in
  let certain =
    timed t_certain @@ fun () ->
    rel_string (Incomplete.Certain.certain_answers ~cache inst q_cert)
  in
  let series =
    timed t_series @@ fun () ->
    series_string (Support.mu_k_series ~cache inst q_series Tuple.empty ~ks)
  in
  let chase =
    timed t_chase @@ fun () ->
    Rat.to_string
      (Zeroone.Conditional.mu_cond_chased
         (Session.chase_outcome entry ~inst fds_s)
         q_cert Tuple.empty)
  in
  certain ^ " | " ^ series ^ " | " ^ chase

let get_exn store ~db =
  match Session.get store ~schema:schema_text ~db with
  | Ok entry -> entry
  | Error msg ->
      Printf.eprintf "FATAL: bench db does not parse: %s\n" msg;
      exit 1

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type side = { total_s : float; digests : string list (* in step order *) }

(* Each side runs the full update sequence [passes] times and keeps
   the fastest pass — one pass per side would let a scheduler hiccup
   flip the CI gate. The stream is insert-then-delete pairs, so a
   complete pass returns the model (and the live session) to its
   starting state and every pass computes the same digests; digests
   from all passes feed the identity check. *)
let passes = 3

let best_of_passes run =
  let first = run () in
  let rec go best n =
    if n = 0 then best
    else begin
      let next = run () in
      if next.digests <> first.digests then begin
        prerr_endline "FATAL: update bench digests differ between passes";
        exit 1
      end;
      go (if next.total_s < best.total_s then next else best) (n - 1)
    end
  in
  go first (passes - 1)

(* Live side: one store, one session; each step is Session.update plus
   the three re-answers, against warm generation-keyed caches. *)
let run_live ~db0 steps =
  let store = Session.create () in
  let entry = get_exn store ~db:db0 in
  ignore (answers entry);
  (* warm: steady-state cost, not first-query cost *)
  best_of_passes @@ fun () ->
  let digests = ref [] in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (action, tuple) ->
      (match
         Session.update store ~schema:schema_text ~db:db0 ~action ~relation:"R"
           ~tuple
       with
      | Ok (entry, _gen) -> digests := answers entry :: !digests
      | Error msg ->
          Printf.eprintf "FATAL: live update refused: %s\n" msg;
          exit 1))
    steps;
  { total_s = Unix.gettimeofday () -. t0; digests = List.rev !digests }

(* Rebuild side: every step hands a fresh store the re-rendered
   database text — parse, split, index, chase and evaluation all run
   from zero. Rendering happens before the clock starts: the
   rebuild cost charged here is the server's, not the client's
   string-building. *)
let run_rebuild ~base_rows steps =
  let rows_r = ref base_rows and rows_s = Lazy.force rows_s in
  let texts =
    List.map
      (fun (action, tuple) ->
        (match action with
        | Session.Insert -> rows_r := !rows_r @ [ tuple ]
        | Session.Delete ->
            rows_r := List.filter (fun u -> not (Tuple.equal u tuple)) !rows_r);
        render_db !rows_r rows_s)
      steps
  in
  best_of_passes @@ fun () ->
  let digests = ref [] in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun db ->
      let store = Session.create () in
      digests := answers (get_exn store ~db) :: !digests)
    texts;
  { total_s = Unix.gettimeofday () -. t0; digests = List.rev !digests }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let emit_json ~smoke ~rows ~updates ~identical ~rebuild_ns ~live_ns ~speedup
    path =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema_version\": 1,\n";
  out "  \"generated_by\": \"bench/main.exe --update%s\",\n"
    (if smoke then " --smoke" else "");
  out "  \"rows\": %d,\n" rows;
  out "  \"updates\": %d,\n" updates;
  out "  \"identical\": %b,\n" identical;
  out "  \"results\": [\n";
  out "    { \"mode\": \"rebuild\", \"ns_per_update\": %.0f },\n" rebuild_ns;
  out
    "    { \"mode\": \"incremental\", \"ns_per_update\": %.0f, \
     \"speedup_vs_rebuild\": %.2f }\n"
    live_ns speedup;
  out "  ]\n";
  out "}\n";
  close_out oc

(* ------------------------------------------------------------------ *)

let run ~smoke ~out () =
  let rows = if smoke then 2500 else 6000 in
  let n_stream = if smoke then 8 else 20 in
  let st = Random.State.make [| 0x5eed; 7 |] in
  let base_rows, stream = gen_pairs st ~rows ~updates:n_stream in
  let steps = update_steps stream in
  let updates = List.length steps in
  let db0 = render_db base_rows (Lazy.force rows_s) in
  Printf.printf
    "\n== update vs rebuild (%d ground rows, %d single-tuple updates) ==\n%!"
    rows updates;
  let live = run_live ~db0 steps in
  Printf.printf "  live components: certain=%.1fms series=%.1fms chase=%.1fms\n"
    (!t_certain *. 1e3) (!t_series *. 1e3) (!t_chase *. 1e3);
  t_certain := 0.; t_series := 0.; t_chase := 0.;
  let rebuild = run_rebuild ~base_rows steps in
  Printf.printf "  rebuild components: certain=%.1fms series=%.1fms chase=%.1fms\n"
    (!t_certain *. 1e3) (!t_series *. 1e3) (!t_chase *. 1e3);
  let diverging =
    List.filter
      (fun (l, r) -> not (String.equal l r))
      (List.combine live.digests rebuild.digests)
  in
  let identical = diverging = [] in
  let per side = side.total_s /. float_of_int updates *. 1e9 in
  let rebuild_ns = per rebuild and live_ns = per live in
  let speedup = if live_ns > 0. then rebuild_ns /. live_ns else 0. in
  Printf.printf
    "  rebuild:     %8.1f us/update   (parse + split + index + chase + cold \
     sweep)\n"
    (rebuild_ns /. 1e3);
  Printf.printf "  incremental: %8.1f us/update   (Session.update + re-query)\n"
    (live_ns /. 1e3);
  Printf.printf "  speedup: %.1fx   %s\n" speedup
    (if identical then "[answers identical]" else "[ANSWERS DIFFER!]");
  List.iteri
    (fun i (l, r) ->
      if i < 3 then Printf.printf "    live:    %s\n    rebuilt: %s\n" l r)
    diverging;
  emit_json ~smoke ~rows ~updates ~identical ~rebuild_ns ~live_ns ~speedup out;
  Printf.printf "wrote %s\n%!" out;
  if not identical then begin
    prerr_endline
      "FATAL: update bench diverged from the rebuilt session (stale cache)";
    exit 1
  end

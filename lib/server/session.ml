module Parser = Logic.Parser
module Instance = Relational.Instance
module Tuple = Relational.Tuple
module Support = Incomplete.Support
module Kernel = Incomplete.Kernel
module Chase = Constraints.Chase
module Dependency = Constraints.Dependency

type chase_memo =
  Dependency.fd list
  * ((Dependency.fd * Relational.Value.t * Relational.Value.t) list
    * Chase.outcome)

type entry = {
  digest : string;
  schema : Relational.Schema.t;
  cache : Incomplete.Support.cache;
  ulock : Mutex.t;
  mutable inst : Relational.Instance.t;
  mutable chase_gen : int;
  mutable chase_memos : chase_memo list;
  mutable updates : int;
  mutable last_used : int;
}

type t = {
  lock : Mutex.t;
  table : (string * string, entry) Hashtbl.t;
  by_digest : (string, entry) Hashtbl.t;  (* the same entries *)
  mutable clock : int;
  max_sessions : int;
  digest_of : schema:string -> db:string -> string;
}

let digest ~schema ~db = Digest.to_hex (Digest.string (schema ^ "\000" ^ db))

let create ?(max_sessions = 16) ?(digest = digest) () =
  { lock = Mutex.create ();
    table = Hashtbl.create 16;
    by_digest = Hashtbl.create 16;
    clock = 0;
    max_sessions = max 1 max_sessions;
    digest_of = digest
  }

let count t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)

(* Callers hold [t.lock]. *)
let touch t entry =
  t.clock <- t.clock + 1;
  entry.last_used <- t.clock

let evict_over_cap t =
  while Hashtbl.length t.table > t.max_sessions do
    let victim =
      Hashtbl.fold
        (fun key entry acc ->
          match acc with
          | Some (_, best) when best.last_used <= entry.last_used -> acc
          | _ -> Some (key, entry))
        t.table None
    in
    match victim with
    | None -> assert false (* table over cap is non-empty *)
    | Some (key, entry) ->
        Hashtbl.remove t.table key;
        Hashtbl.remove t.by_digest entry.digest;
        Obs.Metrics.incr Obs.Metrics.serve_session_evictions
  done

let load t ~schema ~db =
  match Parser.schema schema with
  | Error msg -> Error ("schema: " ^ msg)
  | Ok sch -> (
      match Parser.instance sch db with
      | Error msg -> Error ("db: " ^ msg)
      | Ok inst ->
          Ok
            { digest = t.digest_of ~schema ~db;
              schema = sch;
              cache = Incomplete.Support.create_cache ();
              ulock = Mutex.create ();
              inst;
              chase_gen = Instance.generation inst;
              chase_memos = [];
              updates = 0;
              last_used = 0
            })

let get t ~schema ~db =
  let key = (schema, db) in
  let hit =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some entry ->
            touch t entry;
            Some entry
        | None -> None)
  in
  match hit with
  | Some entry -> Ok entry
  | None -> (
      (* Parse outside the lock. Two connections racing on the same new
         pair may both parse; the first insert wins and the loser adopts
         it, so caches are never split across requests. Only the winning
         insert counts as a load — the loser's parse produced nothing
         the store keeps. *)
      match load t ~schema ~db with
      | Error _ as e -> e
      | Ok fresh ->
          Mutex.protect t.lock (fun () ->
              match Hashtbl.find_opt t.table key with
              | Some winner ->
                  touch t winner;
                  Ok winner
              | None when Hashtbl.mem t.by_digest fresh.digest ->
                  (* Another pair holds this digest: refuse rather than
                     let a [session] request reach the wrong data. *)
                  Error
                    (Printf.sprintf
                       "session digest %s already names another (schema, \
                        db) pair"
                       fresh.digest)
              | None ->
                  Obs.Metrics.incr Obs.Metrics.serve_session_loads;
                  Hashtbl.add t.table key fresh;
                  Hashtbl.add t.by_digest fresh.digest fresh;
                  touch t fresh;
                  evict_over_cap t;
                  Ok fresh))

let find t digest =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.by_digest digest with
      | Some entry ->
          touch t entry;
          Some entry
      | None -> None)

(* ------------------------------------------------------------------ *)
(* Single-tuple updates                                                *)
(* ------------------------------------------------------------------ *)

type action = Insert | Delete

let apply entry ~action ~relation ~tuple =
  Mutex.protect entry.ulock @@ fun () ->
  let inst = entry.inst in
  match Relational.Schema.arity_opt entry.schema relation with
  | None -> Error (Printf.sprintf "unknown relation %S" relation)
  | Some arity ->
      if Tuple.arity tuple <> arity then
        Error
          (Printf.sprintf "arity mismatch: %s expects %d values, got %d"
             relation arity (Tuple.arity tuple))
      else begin
        let present = Instance.mem inst relation tuple in
        match action with
        | Insert when present ->
            Error
              (Printf.sprintf "tuple %s already in %s" (Tuple.to_string tuple)
                 relation)
        | Delete when not present ->
            Error
              (Printf.sprintf "tuple %s not in %s" (Tuple.to_string tuple)
                 relation)
        | Insert | Delete ->
            (* Delta-maintain the kernel db (split partition + indexes)
               of the current instance rather than rebuilding either;
               [kernel_db] is a generation-keyed cache hit for every
               update after the first query. *)
            let db = Support.kernel_db ~cache:entry.cache inst in
            let db' =
              match action with
              | Insert -> Kernel.db_insert db ~name:relation ~tuple
              | Delete -> Kernel.db_delete db ~name:relation ~tuple
            in
            let inst' = Kernel.instance db' in
            Support.install_kernel_db entry.cache db';
            (match action with
            | Insert when entry.chase_gen = Instance.generation inst ->
                (* Advance every finished chase by resuming it with the
                   substituted tuple (chase_inc); the memos stay valid
                   for the new generation. *)
                entry.chase_memos <-
                  List.map
                    (fun (fds, prev) ->
                      (fds, Chase.chase_inc fds ~prev ~name:relation ~tuple))
                    entry.chase_memos;
                entry.chase_gen <- Instance.generation inst'
            | Insert | Delete ->
                (* A deletion can retract a forced merge — no shortcut;
                   drop the memos and re-chase lazily on next use. *)
                entry.chase_memos <- [];
                entry.chase_gen <- Instance.generation inst');
            entry.inst <- inst';
            entry.updates <- entry.updates + 1;
            Obs.Metrics.incr Obs.Metrics.serve_updates;
            Ok entry.updates
      end

let update t ~schema ~db ~action ~relation ~tuple =
  match get t ~schema ~db with
  | Error msg -> Error msg
  | Ok entry -> (
      match apply entry ~action ~relation ~tuple with
      | Error msg -> Error msg
      | Ok gen -> Ok (entry, gen))

let chase_outcome entry ~inst fds =
  let gen = Instance.generation inst in
  Mutex.protect entry.ulock @@ fun () ->
  if entry.chase_gen = gen then (
    match List.assoc_opt fds entry.chase_memos with
    | Some (_, outcome) -> outcome
    | None ->
        let prev = Chase.trace fds inst in
        entry.chase_memos <- (fds, prev) :: entry.chase_memos;
        snd prev)
  else
    (* The caller's snapshot predates a concurrent update; answer it
       from scratch without touching the memos of the current state. *)
    snd (Chase.trace fds inst)

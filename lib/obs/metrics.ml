(* One process-wide registry of atomic counters. Counters are atomics,
   not mutexed ints, because the hot increments happen inside pool
   chunks running on several domains at once: a lock would serialize
   the very loops the pool exists to parallelize, while a contended
   atomic increment costs tens of nanoseconds — and nothing at all
   when metrics are disabled, since every entry point first reads the
   [enabled] flag and leaves. *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

type t = { cname : string; cell : int Atomic.t }

let make cname = { cname; cell = Atomic.make 0 }
let valuations_evaluated = make "valuations_evaluated"
let kernel_refreshes = make "kernel_refreshes"
let short_circuits = make "short_circuits"
let cache_hits = make "cache_hits"
let cache_misses = make "cache_misses"
let cache_evictions = make "cache_evictions"
let pool_tasks_queued = make "pool_tasks_queued"
let pool_tasks_stolen = make "pool_tasks_stolen"
let pool_tasks_completed = make "pool_tasks_completed"
let chase_steps = make "chase_steps"
let approx_samples = make "approx_samples"
let approx_strata = make "approx_strata"
let serve_connections = make "serve_connections"
let serve_requests = make "serve_requests"
let serve_parse_errors = make "serve_parse_errors"
let serve_overloaded = make "serve_overloaded"
let serve_deadline_exceeded = make "serve_deadline_exceeded"
let serve_session_loads = make "serve_session_loads"
let serve_session_evictions = make "serve_session_evictions"
let serve_updates = make "serve_updates"
let decomp_plans = make "decomp_plans"
let decomp_components = make "decomp_components"
let decomp_indecomposable = make "decomp_indecomposable"
let router_requests = make "router_requests"
let router_forwards = make "router_forwards"
let router_retries = make "router_retries"
let router_replica_forwards = make "router_replica_forwards"
let router_shard_unavailable = make "router_shard_unavailable"
let router_ring_remaps = make "router_ring_remaps"
let router_probe_failures = make "router_probe_failures"

let all =
  [ valuations_evaluated; kernel_refreshes; short_circuits; cache_hits;
    cache_misses; cache_evictions; pool_tasks_queued; pool_tasks_stolen;
    pool_tasks_completed; chase_steps; approx_samples; approx_strata;
    serve_connections; serve_requests;
    serve_parse_errors; serve_overloaded; serve_deadline_exceeded;
    serve_session_loads; serve_session_evictions; serve_updates;
    decomp_plans; decomp_components; decomp_indecomposable;
    router_requests; router_forwards; router_retries;
    router_replica_forwards; router_shard_unavailable; router_ring_remaps;
    router_probe_failures
  ]

let name c = c.cname
let value c = Atomic.get c.cell
let incr c = if Atomic.get enabled then Atomic.incr c.cell

let add c n =
  if Atomic.get enabled then ignore (Atomic.fetch_and_add c.cell n)

(* ------------------------------------------------------------------ *)
(* Span histograms                                                     *)
(* ------------------------------------------------------------------ *)

let hist_buckets = 63

type hist = {
  buckets : int Atomic.t array;
  hcount : int Atomic.t;
  total_ns : int Atomic.t;
  max_ns : int Atomic.t;
}

(* The table itself is touched rarely (once per span completion) and
   is guarded by a mutex; the cells inside a histogram are atomics, so
   concurrent observations of the same span name never lose counts. *)
let hists : (string, hist) Hashtbl.t = Hashtbl.create 16
let hists_lock = Mutex.create ()

let hist_for name =
  Mutex.protect hists_lock (fun () ->
      match Hashtbl.find_opt hists name with
      | Some h -> h
      | None ->
          let h =
            { buckets = Array.init hist_buckets (fun _ -> Atomic.make 0);
              hcount = Atomic.make 0;
              total_ns = Atomic.make 0;
              max_ns = Atomic.make 0
            }
          in
          Hashtbl.add hists name h;
          h)

let bucket_of ns =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  if ns <= 1 then 0 else Stdlib.min (hist_buckets - 1) (go 0 ns)

let rec store_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then store_max cell v

let observe_span name ns =
  if Atomic.get enabled && ns >= 0 then begin
    let h = hist_for name in
    Atomic.incr h.hcount;
    ignore (Atomic.fetch_and_add h.total_ns ns);
    Atomic.incr h.buckets.(bucket_of ns);
    store_max h.max_ns ns
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type span_stats = {
  count : int;
  total_ns : int;
  max_ns : int;
  buckets : int array;
}

type snapshot = {
  counters : (string * int) list;
  spans : (string * span_stats) list;
}

let snapshot () =
  let counters = List.map (fun c -> (c.cname, value c)) all in
  let spans =
    Mutex.protect hists_lock (fun () ->
        Hashtbl.fold
          (fun name h acc ->
            ( name,
              { count = Atomic.get h.hcount;
                total_ns = Atomic.get h.total_ns;
                max_ns = Atomic.get h.max_ns;
                buckets = Array.map Atomic.get h.buckets
              } )
            :: acc)
          hists [])
  in
  { counters;
    spans = List.sort (fun (a, _) (b, _) -> String.compare a b) spans
  }

let reset () =
  List.iter (fun c -> Atomic.set c.cell 0) all;
  Mutex.protect hists_lock (fun () -> Hashtbl.reset hists)

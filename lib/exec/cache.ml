type ('k, 'v) t = {
  table : ('k, 'v) Hashtbl.t;
  lock : Mutex.t;
  max_entries : int option;
  order : 'k Queue.t; (* insertion order; maintained only when capped *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; entries : int; evictions : int }

let create ?(size = 256) ?max_entries () =
  (match max_entries with
  | Some m when m < 0 -> invalid_arg "Cache.create: negative max_entries"
  | _ -> ());
  { table = Hashtbl.create size;
    lock = Mutex.create ();
    max_entries;
    order = Queue.create ();
    hits = 0;
    misses = 0;
    evictions = 0
  }

let find_or_add t key compute =
  let cached =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some v ->
            t.hits <- t.hits + 1;
            Obs.Metrics.incr Obs.Metrics.cache_hits;
            Some v
        | None ->
            t.misses <- t.misses + 1;
            Obs.Metrics.incr Obs.Metrics.cache_misses;
            None)
  in
  match cached with
  | Some v -> v
  | None ->
      let v = compute () in
      (* Double-checked insert: another domain may have stored [key]
         while [compute] ran outside the lock; the first store wins.
         The eviction scan runs under the same lock, so the FIFO queue
         and the table never disagree. *)
      Mutex.protect t.lock (fun () ->
          if not (Hashtbl.mem t.table key) then begin
            Hashtbl.add t.table key v;
            match t.max_entries with
            | None -> ()
            | Some cap ->
                Queue.add key t.order;
                while Hashtbl.length t.table > cap do
                  let victim = Queue.pop t.order in
                  Hashtbl.remove t.table victim;
                  t.evictions <- t.evictions + 1;
                  Obs.Metrics.incr Obs.Metrics.cache_evictions
                done
          end);
      v

let stats t =
  Mutex.protect t.lock (fun () ->
      { hits = t.hits;
        misses = t.misses;
        entries = Hashtbl.length t.table;
        evictions = t.evictions
      })

(* The intern tables are global mutable state shared by every domain of
   a parallel fold (Exec.Pool), so all access goes through one mutex.
   The evaluation hot paths only handle integer codes and never intern,
   so the lock is uncontended where performance matters. *)

let table : (string, int) Hashtbl.t = Hashtbl.create 64
let reverse : (int, string) Hashtbl.t = Hashtbl.create 64
let next = ref 1
let lock = Mutex.create ()

let intern name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table name with
      | Some code -> code
      | None ->
          let code = !next in
          incr next;
          Hashtbl.add table name code;
          Hashtbl.add reverse code name;
          code)

let name_of code = Mutex.protect lock (fun () -> Hashtbl.find_opt reverse code)

let to_string code =
  match name_of code with Some n -> n | None -> "#" ^ string_of_int code

let fresh () =
  Mutex.protect lock (fun () ->
      let code = !next in
      incr next;
      code)

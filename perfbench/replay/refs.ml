(* Reference answers for one workload.

   Usage: refs.exe WARMUP_FILE

   The first line printed labels the runtime (OCaml version and
   Domain.recommended_domain_count) as one JSON object. Then every line
   of WARMUP_FILE goes through Service.handle with jobs = 1 on a fresh
   session store, in file order; one response line per request line is
   printed. It runs as a process of its own so that the constant-name
   table holds the workload's names and nothing else, interned in the
   order the warm-up pass later gives the servers: µ^k answers depend on
   that order (constant codes are process-global). *)

let () =
  match Sys.argv with
  | [| _; path |] ->
      Printf.printf "{\"ocaml_version\":\"%s\",\"recommended_domain_count\":%d}\n"
        Sys.ocaml_version
        (Domain.recommended_domain_count ());
      let sessions = Server.Session.create () in
      Array.iter
        (fun line ->
          print_string (Respond.handle ~sessions ~jobs:1 line);
          print_char '\n')
        (Respond.read_lines path)
  | _ ->
      prerr_endline "usage: refs.exe WARMUP_FILE";
      exit 2

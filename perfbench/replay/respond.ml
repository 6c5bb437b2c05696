(* Shared by refs.exe and trace.exe: line files, and the daemon's rule
   for turning one request line into one response line. *)

module W = Server.Wire

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  Array.of_list (go [])

let line_of_outcome (req : W.request) = function
  | Ok payload -> W.ok_line ~id:req.W.id ~op:req.W.op payload
  | Error (err, msg) -> W.error_line ~id:req.W.id err msg

(* Daemon.handle_line answers an unparseable line inline with a
   parse_error; every other line the workloads send (no health, no
   deadline_ms) goes through Service.handle. *)
let handle ~sessions ?jobs line =
  match W.parse_request line with
  | Error msg -> W.error_line ~id:None W.Parse_error msg
  | Ok req -> line_of_outcome req (Server.Service.handle ~sessions ?jobs req)

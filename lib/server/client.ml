type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect addr =
  let sa = Listener.sockaddr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa
   with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* The deterministic backoff schedule, kept separate from the jittered
   sleep so tests can check growth and cap without racing a clock. *)
let retry_delays ?(delay = 0.1) ?(backoff = 2.0) ?(cap = 2.0) attempts =
  List.init (max 0 attempts) (fun i ->
      Float.min cap (delay *. (backoff ** float_of_int i)))

let jitter =
  (* One lazily seeded PRNG per process: jitter only has to decorrelate
     concurrent reconnectors, not be reproducible. *)
  let st = lazy (Random.State.make_self_init ()) in
  let lock = Mutex.create () in
  fun d ->
    Mutex.protect lock (fun () ->
        d *. (0.75 +. (0.5 *. Random.State.float (Lazy.force st) 1.0)))

let connect_retry ?(attempts = 50) ?(delay = 0.1) ?(backoff = 2.0) ?(cap = 2.0)
    addr =
  let rec go i n =
    match connect addr with
    | conn -> conn
    | exception Unix.Unix_error _ when n > 1 ->
        Unix.sleepf (jitter (Float.min cap (delay *. (backoff ** float_of_int i))));
        go (i + 1) (n - 1)
  in
  go 0 (max 1 attempts)

let set_timeout c seconds =
  Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO seconds;
  Unix.setsockopt_float c.fd Unix.SO_SNDTIMEO seconds

let shutdown c =
  try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let send_line c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv_line c =
  match input_line c.ic with
  | line -> Some line
  | exception (End_of_file | Sys_error _) -> None

let request c line =
  send_line c line;
  recv_line c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let with_conn addr f =
  let c = connect addr in
  Fun.protect ~finally:(fun () -> close c) (fun () -> f c)

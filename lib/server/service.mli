(** Request execution for the query service.

    [handle] maps one parsed {!Wire.request} to a response payload,
    running the same engine entry points as the CLI subcommands —
    [certain], [measure], [conditional], [analyze]; the exact path of
    [measure] and [conditional] is {!Zeroone.Pipeline} — against a shared
    {!Session} store; the [update] op mutates a session in place by
    one tuple ({!Session.update}), with the kernel db and chase memos
    maintained incrementally rather than rebuilt. It is deliberately
    transport-free: the daemon
    calls it from worker threads, and [bench --serve] calls it
    directly (with [jobs = 1] and a fresh store) to build the expected
    responses its identity gate compares against. All payload values
    are deterministic strings — exact rationals, polynomials, and
    semicolon-joined tuple lists; never floats or timings — which is
    what makes the bit-identity gate possible.

    A request names its session by its [schema] and [db] texts or, once
    the store holds that pair, by the pair's {!Session.digest} in a
    [session] field; a digest the store does not hold is answered
    {!Wire.Unknown_session}, and a request naming both ways is a
    {!Wire.Bad_request}. Either way the answer is the same bytes.

    Evaluating requests pass the static-analysis precheck gate first:
    analysis errors come back as {!Wire.Analysis_error} with the
    stable diagnostic codes in the message, and no evaluation runs. *)

exception Deadline
(** Raised by the daemon's deadline guards at a pool-chunk boundary
    or, within a class pass, every 256 classes; [handle] turns it into
    {!Wire.Deadline_exceeded}, discarding the partial count. *)

val handle :
  sessions:Session.t ->
  ?jobs:int ->
  ?guard:(unit -> unit) ->
  Wire.request ->
  ((string * Wire.json) list, Wire.error * string) result
(** Execute one request. [?jobs] is the chunk count handed to the
    parallel sweeps (the server's [--jobs]); [?guard] is threaded into
    every brute-force enumeration. Exceptions do not escape: guard
    aborts map to [Deadline_exceeded], valuation-space overflows to
    [Bad_request], anything else to [Internal_error]. The [health] op
    is served by the daemon, not here — unknown ops (including
    [health]) return [Unsupported_op]. *)

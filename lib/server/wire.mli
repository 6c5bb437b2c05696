(** The query service's wire protocol: newline-delimited JSON.

    A client sends one request per line — a {e flat} JSON object whose
    values are strings or integers (no nesting, no floats, no
    booleans); the server answers with exactly one JSON object line
    per request, in request order. The full schema is specified in
    [docs/PROTOCOL.md].

    Requests are parsed with a strict single-line parser (the same
    spirit as {!Obs.Trace}'s validator: reject anything unexpected
    rather than accept all of JSON); responses are emitted with
    {!Obs.Json} escaping, so every line the server writes is parseable
    by the same reader. *)

(** {1 Requests} *)

type value = Str of string | Int of int

type request = {
  id : string option;  (** echoed verbatim in the response *)
  op : string;
      (** [certain], [measure], [conditional], [approx], [analyze],
          [health] *)
  fields : (string * value) list;  (** every field, including [op]/[id] *)
}

val parse_request : string -> (request, string) result
(** Parse one request line. The grammar: a single flat JSON object;
    keys are strings; values are strings (with the standard escapes —
    [\uXXXX] is decoded to UTF-8, surrogates rejected) or integers;
    whitespace between tokens is allowed; duplicate keys and trailing
    bytes are errors. [Error msg] is a deterministic description of
    the first offence. *)

val str_field : request -> string -> string option
(** String value of a field (integers are read back as their digits). *)

val int_field : request -> string -> int option
(** Integer value of a field (strings holding digits are accepted). *)

(** {1 Responses} *)

type json =
  | S of string  (** JSON string, escaped on emission *)
  | I of int
  | B of bool
  | Raw of string  (** pre-rendered JSON, embedded verbatim *)

type error =
  | Parse_error  (** the request line is not a well-formed request *)
  | Bad_request  (** well-formed, but fields are missing or invalid *)
  | Unsupported_op
  | Analysis_error  (** the static-analysis gate rejected the query *)
  | Overloaded  (** admission queue full — load shed, retry later *)
  | Deadline_exceeded  (** partial work discarded *)
  | Shutting_down  (** server is draining; no new work accepted *)
  | Shard_unavailable
      (** router tier only: no live backend shard can serve the
          session right now — retry after the prober re-admits one *)
  | Unknown_session
      (** the request's [session] digest names no session this daemon
          holds (never loaded, or evicted) — resend [schema] and [db] *)
  | Internal_error

val error_code : error -> string
(** The stable wire identifier, e.g. ["deadline_exceeded"]. *)

val obj : (string * json) list -> string
(** One compact JSON object (no trailing newline). *)

val ok_line : id:string option -> op:string -> (string * json) list -> string
(** [{"id":…,"ok":true,"op":…,…payload}] *)

val error_line : id:string option -> error -> string -> string
(** [{"id":…,"ok":false,"error":…,"message":…}] *)

val contains : string -> string -> bool
(** [contains line needle]: substring test, for scanning response lines
    (e.g. for ["\"ok\":false"]) without parsing them — exact enough on
    this emitter's own output. *)

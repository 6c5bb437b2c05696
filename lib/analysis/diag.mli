(** The diagnostics engine: stable error codes, severities, optional
    source spans, and text + JSON renderers.

    Every check in this library reports through this module so that the
    CLI, the pre-evaluation gate of [certain]/[measure]/[conditional],
    and the CI lint job all speak the same language. Codes are {e
    stable}: scripts may match on them, so a code is never reused for a
    different condition (retired codes are retired forever).

    {2 Code registry}

    Errors (fail the [--strict] gate):
    - [ANL001] — unsafe query: an answer variable is not
      range-restricted, so answers are domain-dependent.
    - [ANL002] — non-generic query: the query mentions constants, so
      the 0–1 law of Theorem 1 only holds relative to the genericity
      set [C].
    - [ANL003] — schema conformance: unknown relation or arity
      mismatch.

    Warnings:
    - [ANL101] — unused quantified variable.
    - [ANL102] — trivially true/false subformula.
    - [ANL103] — implication query: [µ(Σ → Q)] degenerates to 1
      whenever [µ(Σ) = 0] (Proposition 3); prefer the conditional
      measure.
    - [ANL307] — the dependency set has a cycle through a special
      edge of the position graph: the chase may not terminate; only
      bounded runs are available.

    Hints (dispatch consequences; never gate):
    - [ANL301] — fragment within Pos∀G: naïve evaluation computes
      certain answers (Corollary 3).
    - [ANL302] — fragment within UCQ: polynomial-time comparisons and
      best answers (Theorem 8).
    - [ANL303] — FD-only constraint set: chase shortcut available
      (Theorem 5).
    - [ANL304] — unary keys + foreign keys: polynomial-time
      satisfiability (Proposition 6).
    - [ANL305] — constraint set outside both tractable classes: only
      the generic exponential procedures apply.
    - [ANL306] — the dependency set is weakly acyclic (no special-edge
      cycle in the position graph): the chase terminates on every
      instance — a static termination certificate, no step budget.
    - [ANL401] — the support sentence decomposes into independent
      components: [µ^k] is the product of their measures.
    - [ANL402] — no decomposition: a single interaction component
      spans every null, or a conjunct fails the guardedness check.

    Retired: [ANL201] and [ANL202] (the [k^m] valuation-space cost
    bound) and [ANL403] (a decomposition component past the
    machine-integer frontier). Every exact measure is read off a class
    census whose cost is set by the number of valuation classes, not
    by [k^m], so nothing they described limits a request. *)

type severity = Error | Warning | Hint

type span = { span_start : int; span_stop : int }
(** Character offsets into the source text, when the parser provides
    them (none of the current parsers do; the field is part of the
    stable interface so renderers need not change when they start to). *)

type t = {
  code : string;  (** stable code, e.g. ["ANL001"] *)
  severity : severity;
  loc : string;  (** which input: ["query"], ["constraints"], … *)
  span : span option;
  message : string;
  hint : string option;  (** remediation or paper pointer *)
}

val error : code:string -> ?span:span -> ?hint:string -> loc:string -> string -> t
val warning : code:string -> ?span:span -> ?hint:string -> loc:string -> string -> t
val hint : code:string -> ?span:span -> ?hint:string -> loc:string -> string -> t

val severity_string : severity -> string
(** ["error"], ["warning"], ["hint"]. *)

val compare : t -> t -> int
(** Errors before warnings before hints; then by code, then message. *)

val sort : t list -> t list

val has_errors : t list -> bool
val count : severity -> t list -> int

val registry : (string * severity * string) list
(** All stable codes with their default severity and a one-line
    description — the source of the README table. *)

(** {1 Rendering} *)

val to_string : t -> string
(** One line: [severity[CODE] loc: message] followed, on an indented
    second line, by the hint if present. *)

val json_string : string -> string
(** A JSON string literal with the necessary escapes — shared by every
    JSON renderer in this library (there is no JSON dependency). *)

val to_json : t -> string
val render_json : t list -> string
(** A JSON array of diagnostic objects. *)

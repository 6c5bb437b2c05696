(** Static checks on queries: safety/range-restriction, genericity,
    schema conformance, and formula hygiene.

    Safety here is the classical syntactic safe-range analysis
    (Abiteboul–Hull–Vianu): a free variable is {e range-restricted}
    when every way of satisfying the formula forces it into the active
    domain — bound by a relational atom, equated with a value, or
    equated (within a conjunction) with a variable that is itself
    restricted. Disjunction restricts only what both branches restrict;
    negation, implication and universal quantification restrict
    nothing. An answer variable that is not range-restricted makes the
    query domain-dependent: its answers change with the domain the
    quantifiers range over, so certain answers and the measures [µ^k]
    are only meaningful relative to the active-domain semantics this
    engine uses. *)

val restricted : Logic.Formula.t -> string list
(** The range-restricted free variables, sorted. *)

val unsafe_answer_vars : Logic.Query.t -> string list
(** Answer variables that are not range-restricted (the witnesses for
    code ANL001), sorted. *)

val is_safe : Logic.Query.t -> bool

val check_query :
  Relational.Schema.t -> Logic.Query.t -> Diag.t list
(** All query diagnostics: ANL001 (safety), ANL002 (genericity),
    ANL003 (schema conformance), ANL101 (unused quantified variables),
    ANL102 (trivially true/false subformulas), ANL103 (top-level
    implication). The list is unsorted; callers render through
    {!Diag.render_json}, which sorts, or sort with {!Diag.sort}. *)

(** First-order formulas over a relational schema.

    This is the query language of the paper's Section 5 (relational
    calculus with Boolean connectives and both quantifiers) and the
    carrier for constraints compiled to logic. Terms are variables or
    values; values may be nulls so that formulas can also express
    membership of specific tuples (e.g. [Q(ā)] for a tuple [ā] with
    nulls, used by the comparison machinery of §5). *)

type term =
  | Var of string
  | Val of Relational.Value.t

type t =
  | True
  | False
  | Atom of string * term list  (** [R(t̄)] *)
  | Eq of term * term
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Exists of string * t
  | Forall of string * t

(** {1 Smart constructors} *)

val atom : string -> term list -> t
val eq : term -> term -> t
val neq : term -> term -> t
val conj : t list -> t
(** [And]-fold; [True] for the empty list. *)

val disj : t list -> t
(** [Or]-fold; [False] for the empty list. *)

val exists : string list -> t -> t
val forall : string list -> t -> t
val var : string -> term
val cst : string -> term
(** A named constant term. *)

val vl : Relational.Value.t -> term

(** {1 Structure} *)

val free_vars : t -> string list
(** Free variables in order of first occurrence, deduplicated. *)

val is_sentence : t -> bool

val constants : t -> int list
(** Codes of constants mentioned (the finite set [C] witnessing
    [C]-genericity — Definition 1), sorted, deduplicated. *)

val nulls : t -> int list
(** Nulls mentioned (normally empty for user queries; nonempty after
    instantiating free variables with null-carrying tuples). *)

val relations : t -> string list
(** Relation names appearing in atoms, sorted, deduplicated. *)

val subst : (string * term) list -> t -> t
(** Capture-avoiding substitution of free variables. Bound variables
    shadow; substituting a term containing a variable that would be
    captured renames the binder. *)

val instantiate : string list -> Relational.Tuple.t -> t -> t
(** [instantiate free ā φ] replaces the free variables [free]
    (positionally) by the values of [ā].
    @raise Invalid_argument on arity mismatch. *)

val map_values : (Relational.Value.t -> Relational.Value.t) -> t -> t
(** Applies a function to every value occurring in the formula. *)

val size : t -> int
(** Number of connectives, atoms and quantifiers. *)

val well_formed : Relational.Schema.t -> t -> (unit, string) result
(** Checks that every atom uses a declared relation with the right
    arity. *)

val equal : t -> t -> bool

(** {1 Printing} *)

val pp_term : Format.formatter -> term -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

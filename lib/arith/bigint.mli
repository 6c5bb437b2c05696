(** Arbitrary-precision signed integers.

    Vendored because the sealed build environment provides no [zarith].
    The representation is sign–magnitude with little-endian digit arrays
    in base [10^9], which keeps every intermediate product within the
    63-bit native integer range and makes decimal printing trivial.

    All values are immutable and all operations are purely functional.
    Sizes arising in this project (counts of valuations, polynomial
    coefficients) stay small — at most a few hundred digits — so the
    schoolbook algorithms used here are entirely adequate. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int_opt : t -> int option
(** [None] if the value does not fit in a native [int]. *)

exception Overflow of t
(** Raised by {!to_int_exn} with the offending value, so callers (the
    CLI in particular) can report {e which} space size overflowed
    instead of dying on an anonymous [Failure]. A printer is
    registered, so uncaught it still shows the value. *)

val to_int_exn : t -> int
(** @raise Overflow if the value does not fit in a native [int]. *)

val of_string : string -> t
(** Parses an optionally-signed decimal literal.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val to_float : t -> float
(** Approximate conversion, for display only. *)

(** {1 Predicates and comparisons} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** Truncated division: [divmod a b = (q, r)] with [a = q*b + r],
    [|r| < |b|] and [r] carrying the sign of [a] (as for OCaml's
    [(/)] and [(mod)]).
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val pow : t -> int -> t
(** [pow b n] is [b] raised to the non-negative power [n].
    @raise Invalid_argument if [n < 0]. *)

val gcd : t -> t -> t
(** Greatest common divisor; always non-negative; [gcd 0 0 = 0]. *)

val mul_int : t -> int -> t
val add_int : t -> int -> t

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
  val ( ~- ) : t -> t
end

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit

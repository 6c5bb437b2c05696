(** Interning of display names for constants.

    The theory works with an abstract countably infinite set [Const]
    enumerated as [c1, c2, …]; only the *number* of available constants
    matters for generic queries (paper, §3.2). We therefore represent
    constants as positive integers, and this module maintains a global
    bijection between human-readable names and constant codes so that
    examples can speak of ["Alice"] or ["c1"] while all counting
    machinery works over [1..k].

    The registry is global and monotone. *)

val intern : string -> int
(** Returns the code for this name, allocating the next free positive
    code on first use. *)

val name_of : int -> string option
(** The display name registered for a code, if any. *)

val to_string : int -> string
(** The display name if registered, otherwise ["#<code>"]. *)

val fresh : unit -> int
(** Allocates a constant code with no display name (useful as a "brand
    new constant not occurring anywhere", e.g. for bijective
    valuations). *)

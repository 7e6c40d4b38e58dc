(** Arbitrary-precision signed integers, pure OCaml.

    Substrate for {!Rational}.  Sign/magnitude representation with base-2^20
    limbs; schoolbook multiplication, limb-wise fast division for small
    divisors, binary gcd. *)

type t

val zero : t
val one : t
val two : t
val ten : t
val of_int : int -> t

val to_int_opt : t -> int option
(** [None] when the value does not fit a native [int]. *)

val to_float : t -> float
(** Rounded conversion (exact below 2^53). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val abs : t -> t

val sign : t -> int
(** [-1], [0] or [1]. *)

val divmod : t -> t -> t * t
(** Truncated division: quotient rounded toward zero, remainder carries the
    dividend's sign (OCaml's [/]/[mod] convention).
    @raise Division_by_zero on zero divisor. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Non-negative gcd; [gcd 0 b = |b|]. *)

val is_zero : t -> bool

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shifts on the magnitude (sign preserved). *)

val nbits : t -> int
(** Bit-length of the magnitude; 0 for zero. *)

val pow2 : int -> t
(** [pow2 k] is 2{^k}. *)

val to_string : t -> string
val of_string : string -> t
(** Decimal. @raise Invalid_argument on malformed input. *)

val pp : Format.formatter -> t -> unit

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t

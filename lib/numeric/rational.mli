(** Exact rationals in lowest terms over {!Bigint}.

    {!Field} is the exact instance of {!Field.S}: the flow substrate and the
    offline scheduler run on it to certify the float fast path. *)

type t

val zero : t
val one : t
val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints p q] is [p/q]. @raise Division_by_zero when [q = 0]. *)

val make : Bigint.t -> Bigint.t -> t
(** Normalized constructor. @raise Division_by_zero on zero denominator. *)

val num : t -> Bigint.t
(** Numerator (sign carrier). *)

val den : t -> Bigint.t
(** Denominator, always positive. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val inv : t -> t
val neg : t -> t
val abs : t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val is_zero : t -> bool
val sign : t -> int
val to_float : t -> float

val of_float : float -> t
(** Exact embedding of a finite IEEE-754 double.
    @raise Invalid_argument on NaN or infinities. *)

val to_string : t -> string
(** ["p/q"], or ["p"] when the denominator is 1. *)

val of_string : string -> t
val pp : Format.formatter -> t -> unit

module Field : Field.S with type t = t

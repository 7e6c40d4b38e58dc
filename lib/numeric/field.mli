(** Ordered-field abstraction.

    The offline scheduler and the max-flow substrate are each written once
    against this signature and compiled once per instance, so that the
    same algorithm runs on floats (fast) and on exact rationals
    (certification).  See {!Rational.Field} for the exact instance. *)

module type S = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t

  val of_float : float -> t
  (** Best-effort embedding; exact fields convert via the IEEE-754 bit
      pattern so dyadic floats embed exactly. *)

  val to_float : t -> float

  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t

  val div : t -> t -> t
  (** Division by [zero] raises [Division_by_zero]. *)

  val neg : t -> t
  val abs : t -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool

  val leq_approx : t -> t -> bool
  (** [leq_approx a b] holds when [a <= b] up to the field's tolerance
      (exact comparison on exact fields, relative slack on floats).  Used
      for capacity-saturation decisions. *)

  val equal_approx : t -> t -> bool
  (** Tolerance-aware equality; exact on exact fields. *)

  val slack : t -> t
  (** [slack x] is the tolerance around a quantity of magnitude [x]: the
      slack {!leq_approx} and {!equal_approx} allow, [zero] on exact
      fields and [float_rel_tolerance * max 1 |x|] on floats. *)

  val min : t -> t -> t
  val max : t -> t -> t
  val is_zero : t -> bool

  val sign : t -> int
  (** [-1], [0] or [1]; [0] exactly when {!is_zero}. *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

val float_rel_tolerance : float
(** Relative tolerance used by the {!Float} instance ([1e-9]). *)

module Float : S with type t = float
(** The IEEE-754 double instance with relative-tolerance comparisons. *)

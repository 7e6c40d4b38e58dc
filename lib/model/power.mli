(** Power functions [P(s)], convex and non-decreasing on [s >= 0].

    The offline optimum is independent of the particular convex [P]; energy
    accounting and the online bounds use it. *)

type t =
  | Alpha of float  (** [s^alpha], [alpha > 1] *)
  | Poly of (float * float) list  (** [sum c_i * s^e_i] with [c_i >= 0], [e_i >= 1] or [0] *)
  | Custom of {
      name : string;
      eval : float -> float;
      deriv : float -> float;
    }

val alpha : float -> t
(** @raise Invalid_argument unless [alpha > 1]. *)

val poly : (float * float) list -> t
(** @raise Invalid_argument on convexity-breaking terms. *)

val custom : name:string -> eval:(float -> float) -> deriv:(float -> float) -> t

val cube : t
(** [s^3], the CMOS cube-root rule. *)

val eval : t -> float -> float
val deriv : t -> float -> float

val waterfill_level : t -> float -> float
(** [g(s) = s·P'(s) − P(s)], the non-decreasing marginal level driving the
    per-interval convex optimum. *)

val energy : t -> speed:float -> duration:float -> float

val name : t -> string

val exponent : t -> float option
(** [Some a] exactly for [Alpha a]. *)

val plausible_convex : t -> bool
(** Sampling-based convexity/monotonicity check for [Custom] functions
    (64 samples over speeds [\[0, 16\]]). *)

val pp : Format.formatter -> t -> unit

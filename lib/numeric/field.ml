(* Ordered-field abstraction shared by the max-flow substrate and the offline
   scheduler.  Two instances exist: [Float] (fast path) and
   [Rational.Field] (exact certification path).  Algorithms that must decide
   saturation of capacities are written once against this signature, in
   templates that dune compiles once per instance (lib/flow/flow_body.ml,
   lib/core/offline_solver.ml), so the same code runs both approximately
   and exactly, and the float copy inlines [Float]'s operations. *)

module type S = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val of_float : float -> t
  val to_float : t -> float

  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val abs : t -> t

  val compare : t -> t -> int
  val equal : t -> t -> bool

  (** [leq_approx a b] holds when [a <= b] up to the field's notion of
      tolerance.  Exact fields implement it as [a <= b]; the float field
      allows a relative slack so that capacity saturation tests are robust
      against round-off. *)
  val leq_approx : t -> t -> bool

  (** [equal_approx a b] is tolerance-aware equality; exact on exact
      fields. *)
  val equal_approx : t -> t -> bool

  (** [slack x] is the tolerance the field allows around a quantity of
      magnitude [x]: zero on exact fields, relative on floats. *)
  val slack : t -> t

  val min : t -> t -> t
  val max : t -> t -> t
  val is_zero : t -> bool
  val sign : t -> int
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

(* Relative tolerance used by the float instance.  1e-9 is far below any
   meaningful energy/time difference in our instances (whose values live in
   [1e-3, 1e6]) and far above accumulated round-off of the flow pipeline. *)
let float_rel_tolerance = 1e-9

module Float : S with type t = float = struct
  type t = float

  let zero = 0.
  let one = 1.
  let of_int = float_of_int
  let of_float x = x
  let to_float x = x
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let neg x = -.x
  let abs = Float.abs
  let compare = Float.compare
  let equal = Float.equal

  (* The one-line tolerance tests are inlined, so that at a call site
     that knows this module they allocate no more than the formula
     written out: no boxed argument, no boxed intermediate. *)
  let[@inline] slack x = float_rel_tolerance *. Float.max 1. (Float.abs x)
  let[@inline] tol a b = slack (Float.max (Float.abs a) (Float.abs b))

  let[@inline] leq_approx a b = a <= b +. tol a b
  let[@inline] equal_approx a b = Float.abs (a -. b) <= tol a b
  let min = Float.min
  let max = Float.max
  let[@inline] is_zero x = Float.abs x <= float_rel_tolerance

  let[@inline] sign x =
    if is_zero x then 0 else if x > 0. then 1 else -1

  let pp ppf x = Format.fprintf ppf "%.12g" x
  let to_string = Printf.sprintf "%.12g"
end

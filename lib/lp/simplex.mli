(** Dense two-phase primal simplex (Bland's rule).

    The generic-LP baseline for experiment E2 (the route the paper argues
    is impractical compared to its combinatorial algorithm), also used to
    cross-check the max-flow substrate.  Suitable for small/medium dense
    problems; not a production LP solver. *)

type relation = Le | Ge | Eq

type problem = {
  objective : float array;  (** maximized *)
  rows : (float array * relation * float) array;
}

type solution = { x : float array; value : float }
type outcome = Optimal of solution | Infeasible | Unbounded

val solve : problem -> outcome
(** Maximize [objective . x] s.t. rows and [x >= 0].
    @raise Invalid_argument on row width mismatch. *)

val minimize :
  objective:float array -> rows:(float array * relation * float) array -> unit -> outcome
(** Minimization convenience wrapper; the returned [value] is the minimum. *)

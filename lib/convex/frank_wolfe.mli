(** Independent offline-optimum solver: Frank–Wolfe over per-job work
    allocations with the {!Oracle} per-interval energy.

    Produces an upper bound (the feasible allocation's energy) and a
    certified lower bound (via the Frank–Wolfe duality gap); the true
    optimum lies inside the band.  Used to validate the combinatorial
    algorithm of the paper without shared code. *)

type report = {
  energy : float;        (** objective at the final allocation ([>= OPT]) *)
  lower_bound : float;   (** best certified lower bound on OPT *)
  gap : float;           (** final relative duality gap *)
  iterations : int;
}

val solve :
  ?iterations:int ->
  ?tol:float ->
  Ss_model.Power.t ->
  Ss_model.Job.instance ->
  report
(** Defaults: 300 iterations, relative-gap tolerance [1e-6]; every step
    takes an exact line search.  @raise Invalid_argument on invalid
    instances. *)

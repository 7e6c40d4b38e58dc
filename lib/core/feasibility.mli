(** Feasibility under a maximum-speed cap (the speed-bounded related-work
    setting), answered by one max-flow on the Fig. 1 network in work
    units, with a min-cut witness on failure. *)

type witness = {
  jobs : int list;       (** over-demanding job set *)
  intervals : int list;  (** grid intervals available to them *)
  demand : float;
  capacity : float;
}

type verdict = Feasible | Infeasible of witness

val check : speed_cap:float -> Ss_model.Job.instance -> verdict
(** A cap of [infinity] is accepted and answers [Feasible].
    @raise Invalid_argument on invalid instances or a cap that is not
    positive (zero, negative or NaN). *)

val feasible : speed_cap:float -> Ss_model.Job.instance -> bool

val min_peak_speed : Ss_model.Job.instance -> float
(** The smallest feasible cap: the optimum's peak speed (first phase speed
    of the offline algorithm). *)

(** Optimal Available for m processors — OA(m) (Section 3.1).

    Recomputes an optimal schedule for the remaining work at every arrival
    (via the paper's offline algorithm) and follows it until the next
    arrival.  Theorem 2: [alpha^alpha]-competitive for [P(s) = s^alpha]. *)

type plan = {
  at : float;
  upto : float;
  job_speeds : (int * float) list;
      (** planned constant speed of every live job at this replan,
          sorted by job id *)
}

type info = {
  replans : int;
  total_rounds : int;  (** max-flow computations across all replans *)
  grouped_rounds : int;
      (** failed rounds that removed more than one job at once *)
  arena_grows : int;  (** replans that had to grow the session arena *)
}

val run_detailed :
  ?stats:Engine.counters ->
  Ss_model.Job.instance ->
  Ss_model.Schedule.t * info * plan list
(** Full simulation plus the replanning history: the planned speeds in
    it are what the Lemma 7/8 checks and the {!Potential} audit read.
    Replans run on one cross-arrival solver session — a persistent flow
    arena and workspace, grouped removals, slice-only
    materialization — driven by {!Engine.replan_fold}.  [stats]
    accumulates {!Engine.counters} in place. *)

val run :
  ?stats:Engine.counters ->
  Ss_model.Job.instance ->
  Ss_model.Schedule.t * info
(** @raise Invalid_argument on invalid instances. *)

val schedule : Ss_model.Job.instance -> Ss_model.Schedule.t

val energy : Ss_model.Power.t -> Ss_model.Job.instance -> float

val competitive_bound : alpha:float -> float
(** [alpha ** alpha]. *)

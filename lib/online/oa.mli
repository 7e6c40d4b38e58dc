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
  resumes : int;
      (** rounds answered by in-place arena rewinds instead of network
          rebuilds (session path only) *)
  grouped_rounds : int;
      (** failed rounds that cleared more than one Lemma 4 victim at once
          (session path only) *)
  carried_jobs : int;
      (** live jobs carried over from an earlier replan (session path) *)
  monotone_carried : int;
      (** carried jobs whose planned speed never decreased — Lemma 7
          predicts [monotone_carried = carried_jobs] *)
  arena_grows : int;  (** replans that had to grow the session arena *)
}

val run_detailed :
  ?tol:float ->
  ?incremental:bool ->
  ?streaming:bool ->
  ?stats:Engine.counters ->
  ?decompose:bool ->
  ?compress:bool ->
  Ss_model.Job.instance ->
  Ss_model.Schedule.t * info * plan list
(** Full simulation plus the replanning history (consumed by the
    Lemma 7/8 checks and the {!Potential} audit).  [incremental] (default
    [true]) replans on a cross-arrival solver session — one persistent
    flow arena and workspace, grouped Lemma 4 removals, slice-only
    materialization; [false] replays the scratch path (a fresh solver per
    arrival).  Both produce identical schedules and plans.  [streaming]
    (default [true]) drives the simulation on the streaming engine
    ({!Engine.replan_fold}'s calendar + incremental live set); [false]
    replays the legacy O(n)-per-event rescan — schedules are bit-identical
    either way, and the flag is independent of [incremental] (it selects
    the simulation loop, not the planner).  [stats] accumulates
    {!Engine.counters} in place.  [decompose] is forwarded to the offline
    solver's decomposition layer; replanning sub-instances share one
    release time, hence form a single component, so it never changes
    results here.  [compress] is forwarded to the solver's choice of
    round oracle, dense network or sweep (default: size-triggered per
    replan); plans are identical either way. *)

val run :
  ?tol:float ->
  ?incremental:bool ->
  ?streaming:bool ->
  ?stats:Engine.counters ->
  ?decompose:bool ->
  ?compress:bool ->
  Ss_model.Job.instance ->
  Ss_model.Schedule.t * info
(** @raise Invalid_argument on invalid instances. *)

val schedule :
  ?tol:float ->
  ?incremental:bool ->
  ?streaming:bool ->
  ?decompose:bool ->
  ?compress:bool ->
  Ss_model.Job.instance ->
  Ss_model.Schedule.t

val energy :
  ?tol:float ->
  ?incremental:bool ->
  ?streaming:bool ->
  ?decompose:bool ->
  ?compress:bool ->
  Ss_model.Power.t ->
  Ss_model.Job.instance ->
  float

val competitive_bound : alpha:float -> float
(** [alpha ** alpha]. *)

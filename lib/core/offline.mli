(** The paper's combinatorial offline algorithm (Section 2, Fig. 2).

    Computes an energy-optimal multi-processor schedule with migration for
    any convex non-decreasing power function, in polynomial time, using
    repeated maximum-flow computations — no linear programming.

    The solver is written once (lib/core/offline_solver.ml, whose
    interface documents every operation) and compiled once per ordered
    field: {!F} on floats and {!Exact} on exact rationals.  {!solve} runs
    the float instance and returns the run with the
    {!Ss_model.Schedule.t} it materializes; {!solve_exact} replays it on
    exact rationals for certification.  Both instances hold the one
    Lemma 2 packer ([wrap_pack], laid over the grid by [pack]), so the
    exact replay packs with the code every float schedule uses; the test
    suite audits what the exact instance's [pack] emits at zero
    tolerance. *)

module F : module type of Offline_float
(** The float instance ([num = float]), on {!Ss_flow.Maxflow.Float}. *)

module Exact : module type of Offline_exact
(** The exact-rational instance ([num = Ss_numeric.Rational.t]), on
    {!Ss_flow.Maxflow.Exact}. *)

val float_jobs : Ss_model.Job.instance -> F.job array
(** The instance's jobs in the float solver's record, in input order (no
    validation). *)

val component_count : Ss_model.Job.instance -> int
(** Number of independent sub-instances the decomposition layer splits the
    instance into (1 = nothing to gain from decomposition). *)

val run : Ss_model.Job.instance -> F.run
(** The algorithm ({!F.solve}) on the float field: the raw phase
    structure, no schedule materialization.
    @raise Invalid_argument on an instance {!Ss_model.Job.validate}
    rejects. *)

val solve : Ss_model.Job.instance -> Ss_model.Schedule.t * F.run
(** Full pipeline: {!run}, then the schedule through the Lemma 2
    wrap-packing ({!schedule_of_run}).  The schedule is feasible and
    optimal for every convex non-decreasing power function; the run
    carries the phases, their speeds ({!F.speeds}) and the round
    counters ([stats]).
    @raise Invalid_argument as {!run}. *)

val optimal_schedule : Ss_model.Job.instance -> Ss_model.Schedule.t
val optimal_energy : Ss_model.Power.t -> Ss_model.Job.instance -> float

val energy_of_run : Ss_model.Power.t -> F.run -> float
(** Energy from the phase structure alone; equals the schedule energy. *)

val schedule_of_run : machines:int -> F.run -> Ss_model.Schedule.t
(** Materialize a whole run with the Lemma 2 packer ({!F.pack}).
    The segments are collected per processor, in the order the packer
    emits them, which is the schedule's stored order, so
    {!Ss_model.Schedule.make} does not sort them.  The collection grows
    with the processors the packer uses (at most [min m n]), so its cost
    does not grow with [machines].
    @raise Failure as {!F.pack}. *)

val slice_of_run :
  machines:int -> F.run -> lo:float -> hi:float -> Ss_model.Schedule.segment list
(** Materialize only the part of a run overlapping [\[lo, hi)]: wrap-packs
    just the grid intervals meeting the window and clips the result.
    Equals clipping the full {!schedule_of_run} segments to the window,
    in the same (proc, t0) order, but skips packing everything outside —
    the hot path of online replanning, where each plan is only followed
    until the next arrival. *)

val solve_exact : Ss_model.Job.instance -> Exact.run
(** Exact-rational replay of the entire algorithm (floats embed exactly).
    @raise Invalid_argument as {!run}. *)

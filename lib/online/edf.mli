(** Earliest-Deadline-First executor for a single processor.

    Turns a speed policy (constant per caller-provided slice) into a
    concrete schedule by always running the released unfinished job with
    the earliest deadline.  EDF is feasibility-optimal on one processor:
    if the speed profile admits any feasible order, it admits EDF. *)

type outcome = {
  schedule : Ss_model.Schedule.t;
  unfinished : (int * float) list;
      (** jobs whose deadline passed with work remaining, with the
          residual amount (empty when the profile suffices) *)
}

val run :
  slices:float list ->
  speed_at:(float -> float) ->
  Ss_model.Job.instance ->
  outcome
(** @raise Invalid_argument on invalid instances or [machines <> 1]. *)

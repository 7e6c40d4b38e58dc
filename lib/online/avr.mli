(** Average Rate for m processors — AVR(m) (Section 3.2, Fig. 3).

    Per unit interval, each active job receives its density δ_i of work;
    over-dense jobs are peeled onto dedicated processors and the rest run
    balanced at Δ'/|M|.  Theorem 3: [((2α)^α)/2 + 1]-competitive. *)

type info = {
  intervals : int;
  peeled : int;
}

val schedule_interval :
  machines:int ->
  density:float array ->
  emit:(Ss_model.Schedule.segment -> unit) ->
  t0:float ->
  t1:float ->
  int list ->
  int
(** One step of Fig. 3: give every job of the active list (ascending ids)
    [density.(i) * (t1 - t0)] work inside [\[t0, t1)], peeling over-dense
    jobs onto dedicated processors and wrap-packing the rest at the
    balanced speed with {!Ss_core.Offline.F.wrap_pack}.  Segments go to
    [emit]; returns the number of peeled jobs.  {!run} calls it once per
    unit interval. *)

val run :
  ?stats:Engine.counters ->
  Ss_model.Job.instance ->
  Ss_model.Schedule.t * info
(** Runs on the shared event calendar and incremental active set
    ({!Engine.Calendar} / {!Engine.Active}), handing its segments to
    {!Ss_model.Schedule.make} in emission order —
    O((n + g) log n + output) for g unit intervals, with idle
    stretches skipped in O(1).  [stats] accumulates {!Engine.counters} in
    place.
    @raise Invalid_argument on invalid instances or non-integral
    release/deadline times. *)

val schedule : Ss_model.Job.instance -> Ss_model.Schedule.t
val energy : Ss_model.Power.t -> Ss_model.Job.instance -> float

val single_processor_energy : Ss_model.Power.t -> Ss_model.Job.instance -> float
(** Energy of classical single-processor AVR (speed [Δ_t]); consumed by
    the Theorem 3 inequality-chain experiment. *)

val competitive_bound : alpha:float -> float
(** [((2α)^α)/2 + 1] (Theorem 3). *)

val single_processor_bound : alpha:float -> float
(** [((2α)^α)/2] (Yao et al., used inside the proof). *)

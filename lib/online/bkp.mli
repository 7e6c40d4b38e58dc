(** Single-processor BKP (Bansal–Kimbrel–Pruhs) — the algorithm whose
    multi-processor extension the paper's conclusion leaves open.
    Discretized simulation; extension material, not part of the headline
    experiments. *)

type outcome = {
  schedule : Ss_model.Schedule.t;
  max_residue : float;
      (** largest unfinished work fraction at a deadline caused by
          discretization; shrinks as [steps_per_event] grows *)
}

val slices : steps_per_event:int -> Ss_model.Job.instance -> float list
(** The simulation grid: release and deadline times, each inter-event
    span cut into [steps_per_event] equal slices, ascending. *)

val run :
  ?steps_per_event:int ->
  Ss_model.Job.instance ->
  outcome
(** Speed e·v(t) on each slice of {!slices} (default 64 steps per event),
    executed by {!Edf.run}.  The distinct deadlines are interned once, so
    each v(t) sample binary-searches its candidate suffix.
    @raise Invalid_argument unless [machines = 1]. *)

val energy : ?steps_per_event:int -> Ss_model.Power.t -> Ss_model.Job.instance -> float

val competitive_bound : alpha:float -> float
(** [2 (α/(α−1))^α e^α]. *)

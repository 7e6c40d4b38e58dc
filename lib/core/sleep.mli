(** Idle-period management with a sleep state (Irani–Shukla–Gupta model) on
    top of any schedule — the multi-processor combination the paper's
    conclusion asks about.

    Static energy only: combine with {!Ss_model.Schedule.energy} under a
    power function with [P(0) = 0]. *)

type device = {
  idle_power : float;
  wake_energy : float;
}

val device : idle_power:float -> wake_energy:float -> device
(** @raise Invalid_argument on non-positive idle power or negative wake
    energy. *)

val break_even : device -> float
(** Gap length at which sleeping pays for the wake-up. *)

val gaps : ?horizon:float * float -> Ss_model.Schedule.t -> (int * float list) list
(** Per-processor idle gap lengths over the horizon (default: the
    schedule's extent), including edge gaps, one entry per processor.
    One pass over the stored segment order, [O(S + machines)] for [S]
    segments. *)

type policy = Always_on | Optimal | Ski_rental

val gap_cost : device -> policy -> float -> float
(** Static energy charged for one gap. *)

type report = {
  dynamic : float;
  always_on : float;
  optimal : float;
  ski_rental : float;
}

val analyze :
  ?horizon:float * float -> Ss_model.Power.t -> device -> Ss_model.Schedule.t -> report
(** @raise Invalid_argument when [P(0) > 0]. *)

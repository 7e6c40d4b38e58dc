(** Discrete speed levels (finite DVFS frequency menus).

    Quantizes the continuous optimum onto a finite speed menu by the
    classical two-adjacent-levels split; the result is optimal among all
    discrete-speed schedules because the continuous schedule is optimal
    for the piecewise-linear interpolation of [P] as well. *)

type levels

exception Speed_out_of_range of float
(** A schedule speed exceeds the menu's maximum. *)

val make_levels : float list -> levels
(** Sorted, de-duplicated; all levels must be positive.
    @raise Invalid_argument otherwise. *)

val bracket : levels -> float -> float * float
(** Adjacent menu levels around a speed ([0] below the menu).
    @raise Speed_out_of_range above the menu. *)

val quantize : levels -> Ss_model.Schedule.t -> Ss_model.Schedule.t
(** Work-preserving quantization; feasibility is preserved.
    @raise Speed_out_of_range if any segment exceeds the menu. *)

val interpolated_power : Ss_model.Power.t -> levels -> Ss_model.Power.t
(** The piecewise-linear interpolation of [P] through the menu: the
    effective power of duty-cycling. *)

type comparison = {
  continuous : float;
  discrete : float;
  penalty : float;  (** [discrete/continuous - 1] *)
}

val compare_energy : Ss_model.Power.t -> levels -> Ss_model.Schedule.t -> comparison

val geometric_menu : lo:float -> hi:float -> count:int -> levels
(** Geometric frequency table spanning [[lo, hi]]. *)

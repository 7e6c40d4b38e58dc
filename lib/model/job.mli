(** Jobs and problem instances of the speed-scaling scheduling model.

    A job must receive [work] units of processing inside
    [[release, deadline)); an instance is a job array plus the number of
    parallel processors [machines].  Job ids are array positions. *)

type t = {
  release : float;
  deadline : float;
  work : float;
}

type instance = {
  jobs : t array;
  machines : int;
}

val make : release:float -> deadline:float -> work:float -> t

val density : t -> float
(** [work / (deadline - release)] — the δ_i of the paper. *)

val span : t -> float

type error =
  | Empty_instance
  | No_machines
  | Bad_window of int
  | Bad_work of int
  | Not_finite of int
  | Bad_density of int
      (** the job's density [work / (deadline - release)] is 0 or infinite
          in floating point (it underflows or overflows, or the window
          width does) *)

val validate : instance -> error list
val is_valid : instance -> bool

val instance : machines:int -> t list -> instance
(** Validating constructor. @raise Invalid_argument on the first error. *)

val num_jobs : instance -> int

val horizon : instance -> float * float
(** Earliest release and latest deadline. *)

val total_work : instance -> float

val integral_times : instance -> bool
(** All releases/deadlines integral — precondition of AVR(m). *)

val load_factor : instance -> float
(** Total density divided by [machines]; descriptive only. *)

val scale_work : float -> t -> t
val scale_time : float -> t -> t
val shift_time : float -> t -> t
val pp : Format.formatter -> t -> unit
val pp_instance : Format.formatter -> instance -> unit

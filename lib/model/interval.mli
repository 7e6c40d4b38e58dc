(** The interval grid of the paper: the scheduling horizon cut at every
    release time and deadline, so the active job set is constant inside
    each interval. *)

type grid

val make : Job.t array -> grid
(** Grid from all job releases and deadlines.
    @raise Invalid_argument on an empty job array or a degenerate
    horizon. *)

val length : grid -> int
(** Number of intervals. *)

val width : grid -> int -> float

val active : grid -> int -> int list
(** Ids of jobs active in (i.e. whose window contains) the interval,
    ascending. *)

val active_count : grid -> int -> int

val locate : grid -> float -> int option
(** Interval containing time [t] ([None] outside the horizon). *)

val total_width : grid -> float
val pp : Format.formatter -> grid -> unit

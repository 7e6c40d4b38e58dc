(** The interval grid of the paper: the scheduling horizon cut at every
    release time and deadline, so the active job set is constant inside
    each interval. *)

type grid

val make : ?extra:float list -> Job.t array -> grid
(** Grid from all job releases/deadlines, plus optional extra breakpoints
    (e.g. the current time for OA(m) replanning).
    @raise Invalid_argument when the horizon is degenerate. *)

val length : grid -> int
(** Number of intervals. *)

val start : grid -> int -> float
val stop : grid -> int -> float
val width : grid -> int -> float

val active : grid -> int -> int list
(** Ids of jobs active in (i.e. whose window contains) the interval,
    ascending. *)

val active_count : grid -> int -> int

val locate : grid -> float -> int option
(** Interval containing time [t] ([None] outside the horizon). *)

val total_width : grid -> float
val pp : Format.formatter -> grid -> unit

(** Concrete multi-processor schedules.

    A schedule is a set of segments (job, processor, time window, speed).
    One feasibility checker and one energy accountant serve every algorithm
    in the repository. *)

type segment = {
  job : int;
  proc : int;
  t0 : float;
  t1 : float;
  speed : float;
}

type t

val make : machines:int -> segment list -> t
(** Stores the segments by processor, then start, then job, bucketing
    them by processor: a processor is sorted only if its segments arrive
    out of start order, which no producer's emission order does.  The key
    is unique in a feasible schedule, so the stored array does not depend
    on the input order.
    @raise Invalid_argument on malformed segments, including a
    non-finite [t0], [t1] or [speed]. *)

val stored_order : segment list -> segment list
(** Segments {!make} accepts, in its stored order, by the same bucketing. *)

val empty : machines:int -> t
val machines : t -> int
val segments : t -> segment array
val num_segments : t -> int

val concat : t -> t -> t
(** Union of two segment sets on the same machine count (no overlap
    checking — run {!check} afterwards if in doubt). *)

val energy : Power.t -> t -> float
(** Compensated sum of [P(speed) * duration] over all segments. *)

val work_by_job : jobs:int -> t -> float array
val busy_time_by_proc : t -> float array
val max_speed : t -> float

val speeds_at : t -> float -> float array
(** Per-processor speeds at an instant (0 when idle). *)

val total_migrations : jobs:int -> t -> int
(** Times a job of [\[0, jobs)] resumes on a different processor than
    the one it last ran on, summed over those jobs. *)

type infeasibility =
  | Unknown_job of int
  | Outside_window of int
  | Wrong_work of { job : int; got : float; want : float }
  | Processor_overlap of { proc : int; time : float }
  | Parallel_execution of { job : int; time : float }

val pp_infeasibility : Format.formatter -> infeasibility -> unit

val check : Job.instance -> t -> infeasibility list
(** Complete audit: work totals, windows, processor double-booking, no job
    on two processors at once, each to a relative tolerance of [1e-6].
    The last two compare adjacent segments in the stored order and in
    (job, start) order, which buckets the stored array by job, one bucket
    per job of [inst], and sorts only a job stored out of start order;
    any overlap shows in an adjacent pair. *)

val is_feasible : Job.instance -> t -> bool

val pp : Format.formatter -> t -> unit

(** ASCII Gantt rendering of schedules (per-processor occupancy rows plus a
    relative-speed strip). *)

type config = {
  width : int;  (** number of time cells (min 8) *)
  show_speeds : bool;
}

val job_letter : int -> char
(** Stable cell letter for a job id. *)

val render : ?config:config -> ?t0:float -> ?t1:float -> Schedule.t -> string
(** Render the window [[t0, t1)] (defaults to the schedule's extent);
    [config] defaults to 72 cells with the speed strip on. *)

val print : ?config:config -> ?t0:float -> ?t1:float -> Schedule.t -> unit

val job_color : int -> string
(** Stable CSS color for a job id. *)

val to_svg : Schedule.t -> string
(** Self-contained SVG rendering, 900 px wide with a 48 px row per
    processor (rectangle height ∝ speed, color per job, hover titles with
    exact segment data). *)

val save_svg : string -> Schedule.t -> unit

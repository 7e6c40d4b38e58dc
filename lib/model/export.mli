(** JSON export/import of instances and schedules. *)

exception Format_error of string

val instance_to_string : Job.instance -> string
val instance_of_string : string -> Job.instance

val schedule_to_string : Schedule.t -> string
val schedule_of_string : string -> Schedule.t

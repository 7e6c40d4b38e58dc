(** Plain-text job traces (bit-exact round-trips via hex floats). *)

exception Parse_error of int * string
(** Line number and description. *)

val to_string : Ss_model.Job.instance -> string
val of_string : string -> Ss_model.Job.instance

val save : string -> Ss_model.Job.instance -> unit
val load : string -> Ss_model.Job.instance

val batch_to_string : Ss_model.Job.instance array -> string
val batch_of_string : string -> Ss_model.Job.instance array
(** Multi-instance batch: single-instance traces joined by ['---'] lines
    (the [speedscale batch] input format). *)

val load_batch : string -> Ss_model.Job.instance array
(** Also accepts a plain single-instance trace (one-element batch). *)

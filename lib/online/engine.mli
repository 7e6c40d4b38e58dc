(** Shared helpers for event-driven online simulation.

    {!Calendar}, {!Active} and {!Arena} give the simulators
    O(log n + output)-per-event cost on a calendar built once. *)

(** One pre-sorted event calendar: distinct releases and deadlines interned
    into dense event ids, with arrival/expiry job buckets per event. *)
module Calendar : sig
  type t

  val make : Ss_model.Job.instance -> t
  (** O(n log n): sort, dedupe, bucket. *)

  val num_events : t -> int

  val time : t -> int -> float
  (** Event time by event id (ascending in the id). *)

  val arrivals_at : t -> int -> int list
  (** Jobs released at this event, ascending by id. *)

  val expiries_at : t -> int -> int list
  (** Jobs whose deadline is this event, ascending by id. *)

  val release_event : t -> int -> int
  (** Event id of a job's release. *)

  val deadline_event : t -> int -> int
  (** Event id of a job's deadline. *)

  val arrival_events : t -> int array
  (** Event ids with at least one arrival, ascending — the replanning
      grid. *)

  val find : t -> float -> int option
  (** Exact binary search for a time among the event times. *)
end

(** Incremental active set: add on release, remove on deadline or
    completion, O(log n) per operation; [elements] is ascending by id. *)
module Active : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val remove : t -> int -> unit
  val elements : t -> int list
  val is_empty : t -> bool

  val ops : t -> int
  (** Insertions plus removals so far. *)
end

(** Growable segment arena: amortized O(1) emission instead of list
    concatenation over the emerging schedule. *)
module Arena : sig
  type t

  val create : ?capacity:int -> unit -> t
  val emit : t -> Ss_model.Schedule.segment -> unit
  val length : t -> int

  val high_water : t -> int
  (** Largest capacity ever allocated. *)

  val to_list_rev : t -> Ss_model.Schedule.segment list
  (** Reverse emission order — the order per-segment prepending
      ([seg :: acc]) accumulates.  Every simulator hands this to
      {!Ss_model.Schedule.make}, which sorts it. *)
end

(** Per-simulation work counters, updated in place by the simulators'
    [?stats] parameters. *)
type counters = {
  mutable events : int;
  mutable set_ops : int;
  mutable emitted : int;
  mutable arena_high_water : int;
}

val counters : unit -> counters
(** A fresh all-zero counter record. *)

val record : counters option -> (counters -> unit) -> unit
(** Apply [f] to the counters when present — the simulators' no-cost way
    of supporting an optional [?stats]. *)

val record_arena : counters option -> Arena.t -> unit
(** Fold an arena's totals (segments emitted, high-water mark) into the
    counters when present. *)

val event_times : Ss_model.Job.instance -> float list
(** Distinct releases and deadlines, ascending — the base grid of the
    discretized simulators. *)

val finished : tol:float -> work:float -> done_:float -> bool

type live = { id : int; remaining : float; deadline : float }
(** A released, unfinished job as the replanning loop sees it. *)

val replan_fold :
  ?stats:counters ->
  tol:float ->
  plan:
    (now:float ->
    upto:float ->
    live array ->
    Ss_model.Schedule.segment list) ->
  Ss_model.Job.instance ->
  Ss_model.Schedule.t
(** The shared replan-at-arrivals skeleton: at every distinct release
    time, collect the live jobs, call [plan] for the schedule slice on
    [\[now, upto)] (in original job ids), charge it against remaining work
    and append it.  Returns the assembled schedule.  The loop walks the
    calendar's arrival events with an incremental live set and an arena,
    O(|live| + slice) per event.
    @raise Failure if a live job is still unfinished at its deadline. *)

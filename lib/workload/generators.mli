(** Synthetic workload families (deterministic in [seed]).

    They cover the regimes the paper's introduction motivates — server
    farms, interactive multi-core mixes, periodic media decoding — plus
    the adversarial nested family behind the AVR lower bound.  With
    [~integral:true] (default) all release/deadline times are integral,
    satisfying AVR(m)'s precondition. *)

val integralize : Ss_model.Job.t list -> Ss_model.Job.t list

val uniform :
  ?integral:bool ->
  seed:int -> machines:int -> jobs:int -> horizon:float -> max_work:float -> unit ->
  Ss_model.Job.instance

val poisson :
  ?integral:bool ->
  seed:int -> machines:int -> jobs:int -> rate:float -> mean_work:float -> slack:float ->
  unit -> Ss_model.Job.instance
(** Poisson arrivals, exponential works, deadline = release + slack·work. *)

val stream :
  ?integral:bool ->
  seed:int -> machines:int -> jobs:int -> rate:float -> mean_work:float ->
  max_laxity:float -> unit -> Ss_model.Job.instance
(** Large-trace online stream: Poisson arrivals, exponential works,
    deadline = release + an independent laxity uniform in
    [\[1, max_laxity\]].  The bounded laxity keeps the instantaneous
    active set O([rate]·[max_laxity]) regardless of [jobs], the regime
    the streaming simulator's per-event cost analysis assumes; scales to
    [jobs] = 10^6. *)

val bursty :
  ?integral:bool ->
  seed:int -> machines:int -> bursts:int -> jobs_per_burst:int -> gap:float ->
  max_work:float -> unit -> Ss_model.Job.instance

val heavy_tailed :
  ?integral:bool ->
  seed:int -> machines:int -> jobs:int -> horizon:float -> shape:float -> unit ->
  Ss_model.Job.instance
(** Pareto([shape]) works. *)

val heavy :
  ?integral:bool ->
  ?shape:float ->
  seed:int -> machines:int -> jobs:int -> horizon:float -> unit ->
  Ss_model.Job.instance
(** Heavily overlapping windows (each spans ≥ a third of the horizon, so
    the instance never decomposes) with Pareto([shape], default 1.8)
    works — the large-n regime where the dense Fig. 1 network has
    [Theta(n k)] edges and the solver's sweep oracle pays off. *)

val staircase : machines:int -> levels:int -> copies:int -> unit -> Ss_model.Job.instance
(** Nested equal-density windows sharing one deadline (AVR adversary;
    always integral). *)

val long_short :
  ?integral:bool ->
  seed:int -> machines:int -> long_jobs:int -> short_jobs:int -> horizon:float -> unit ->
  Ss_model.Job.instance

val video :
  ?integral:bool ->
  seed:int -> machines:int -> frames:int -> period:float -> base_work:float -> unit ->
  Ss_model.Job.instance
(** Periodic frames with an I/P/B-style work pattern. *)

val diurnal :
  ?integral:bool ->
  seed:int -> machines:int -> jobs:int -> days:int -> day_length:float ->
  mean_work:float -> slack:float -> unit -> Ss_model.Job.instance
(** Sinusoidal day/night arrival intensity with lognormal works — the most
    trace-like family. *)

val clustered :
  ?integral:bool ->
  seed:int -> machines:int -> clusters:int -> jobs_per_cluster:int ->
  cluster_span:float -> gap:float -> max_work:float -> unit ->
  Ss_model.Job.instance
(** [clusters] well-separated batches of [jobs_per_cluster] jobs; a
    spanning anchor job keeps each batch connected, and the dead [gap]
    (>= 2, so it survives integralization) between batches guarantees the
    offline instance decomposes into exactly [clusters] independent
    components. *)

val batch :
  ?duplicate_rate:float ->
  seed:int -> machines:int -> count:int -> jobs:int -> unit ->
  Ss_model.Job.instance array
(** [count] instances of ~[jobs] jobs each with a controlled
    canonical-duplicate rate (default [0.5]): the non-duplicate share are
    distinct clustered/uniform bases with canonically sorted jobs, the
    rest are disguises of random bases under an integral time shift and a
    power-of-two work scale — exactly the invariances
    {!Ss_model.Canon.canonicalize} removes, so each disguise
    canonicalizes onto its base (a dispatcher cache hit).  The batch
    order is a deterministic shuffle.  Drives the throughput bench and
    the [speedscale batch] subcommand. *)

val with_load_factor : float -> Ss_model.Job.instance -> Ss_model.Job.instance
(** Rescale works so that [Job.load_factor] hits the target. *)

(** Batched multi-query solving: each batch is one fork–join
    ({!Ss_parallel.Pool.mapw}) that drives many offline solves and online
    simulations through per-worker solver sessions and a canonical-instance
    memo cache.

    Every query is answered through its canonical form
    ({!Ss_model.Canon.canonicalize}): offline solves take the full
    integral time shift + power-of-two work scale + job sort; simulation
    queries take the work scale only (their schedules are order-sensitive
    and carry absolute interior times that make the shift inexact).  The
    dispatcher solves the canonical instance on the executing worker's
    persistent {!Ss_core.Offline.F.Session}, one per worker whatever the
    machine count (so its workspace is reused across queries, not just
    across the components of one solve), and maps the answer back through
    the inverse transform.  An LRU keyed by the canonical digest
    short-circuits repeated canonical forms entirely.

    Determinism: because hits and misses both reduce to the same
    deterministic canonical solve, a batch's answers (grid breakpoints,
    phase partition, speeds, reservations, allocations / schedule
    segments, and the run's [stats] counters) are bit-identical whatever
    the cache state, worker count or interleaving — a session solve
    equals a fresh solve, counters included, so nothing reflects which
    worker's arena answered.  Thanks to the exactness discipline of
    {!Ss_model.Canon}, they are also bit-identical to a direct scratch
    solve of each query whenever the canonical sort permutation is the
    identity.

    A dispatcher is meant to be driven from one thread at a time; worker
    state is safe against a batch's own workers, not against concurrent
    [batch] calls. *)

type algo =
  | Solve  (** offline optimal run (Theorem 1 algorithm) *)
  | Oa  (** Online Algorithm(m) simulation *)
  | Avr  (** Average Rate(m) simulation (integral times required) *)

type query = { algo : algo; instance : Ss_model.Job.instance }

type outcome =
  | Run of Ss_core.Offline.F.run  (** answer to a [Solve] query *)
  | Sched of Ss_model.Schedule.t  (** answer to a simulation query *)

type stats = {
  queries : int;  (** queries answered since [create] *)
  hits : int;  (** exact canonical-digest cache hits *)
  misses : int;  (** queries that ran a solver/simulator *)
  evictions : int;  (** LRU entries dropped at capacity *)
  resident : int;  (** entries currently cached *)
  steals : int;
      (** always 0: batches share one cursor and nothing is stolen; kept
          until the benchmark retires its [dispatch.steals] metric *)
  domains : int;  (** workers per batch, including the calling domain *)
}

type t

val create : ?domains:int -> ?capacity:int -> unit -> t
(** [domains] is the number of workers per batch (default
    {!Ss_parallel.Pool.default_domains}); [capacity] bounds the memo cache
    (default 1024 entries; [0] disables caching).
    @raise Invalid_argument if [domains < 1] or [capacity < 0]. *)

val batch : t -> query array -> outcome array
(** Answer a batch on up to [domains] workers.  Outcome [i] answers query
    [i]; the first worker exception is re-raised once every worker domain
    has been joined. *)

val query : t -> query -> outcome
(** Answer one query on the calling domain (worker 0's session). *)

val solve : t -> Ss_model.Job.instance -> Ss_core.Offline.F.run
(** [query] specialized to [Solve]. *)

val solve_batch : t -> Ss_model.Job.instance array -> Ss_core.Offline.F.run array
(** [batch] specialized to all-[Solve] queries. *)

val stats : t -> stats
val hit_rate : stats -> float
(** [hits / queries] (0 on an idle dispatcher). *)

val shutdown : t -> unit
(** A no-op: each batch joins its domains before it returns.  Kept until
    the benchmark retires its [dispatch.shutdown_ms] metric. *)

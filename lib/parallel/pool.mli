(** Minimal data-parallel map over OCaml 5 domains.  Results are
    deterministic (indexed by input position); the first worker exception
    is re-raised in the caller.

    {!Crew} keeps long-lived parked worker domains with per-worker ranges
    and chunked work stealing — the engine under the batch dispatcher;
    {!map} runs one batch on a crew created for the call. *)

val default_domains : unit -> int
(** [min 8 (recommended - 1)], at least 1. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [domains] (default {!default_domains}) is clamped to the input
    length, and values [<= 0] count as 1.  With one domain [f] runs inline
    on the calling domain — no crew, no spawn, no atomics; otherwise the
    call creates a {!Crew}, runs one batch on it and shuts it down, also
    when [f] raises. *)

(** Persistent worker crew: domains are spawned once at {!Crew.create} and
    parked on a condition variable between batches, so the per-batch cost
    is a broadcast instead of spawn+join.  Each batch splits the index
    space into one contiguous range per worker, claimed chunk-by-chunk
    through a private atomic cursor; a worker that drains its own range
    steals chunks from the other ranges ({!Crew.steals} counts them).
    Results land at their input's index, so outputs are deterministic
    whatever the stealing interleaving.  The first worker exception is
    re-raised in the caller only after every in-flight item has drained
    (no worker is left running batch work once the call returns).

    A crew is meant to be driven from one thread at a time (the caller
    participates as worker 0); concurrent [map] calls on one crew are not
    supported. *)
module Crew : sig
  type t

  val create : ?domains:int -> unit -> t
  (** Spawn [domains - 1] worker domains (the caller is worker 0).
      Default {!default_domains}.  @raise Invalid_argument if
      [domains < 1]. *)

  val size : t -> int
  (** Worker count including the caller. *)

  val steals : t -> int
  (** Lifetime count of stolen chunk claims. *)

  val map : t -> ('a -> 'b) -> 'a array -> 'b array
  (** Like {!val:map} but on the persistent crew.  Empty and singleton
      inputs, size-1 crews and shut-down crews run inline on the calling
      domain. *)

  val mapw : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
  (** [map] exposing the executing worker id ([0 .. size-1]) — at most
      one in-flight item per worker id, so [f] may index per-worker
      mutable state (the dispatcher's per-domain solver sessions). *)

  val shutdown : t -> unit
  (** Stop and join the worker domains (idempotent).  Subsequent [map]
      calls fall back to inline execution. *)
end

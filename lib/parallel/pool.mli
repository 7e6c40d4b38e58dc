(** Data-parallel map over OCaml 5 domains, one fork–join per call.
    Results are indexed by input position; the first exception an item
    raises is re-raised in the caller once every spawned domain has been
    joined. *)

val default_domains : unit -> int
(** [min 8 (recommended - 1)], at least 1. *)

val mapw : ?domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [mapw f arr] is [f w arr.(i)] at each index [i], where [w] in
    [0 .. domains-1] is the id of the worker that ran the item; the caller
    is worker 0.  [domains] (default {!default_domains}) is clamped to the
    input length, and values [<= 0] count as 1.  With one worker [f] runs
    inline on the calling domain, with no spawn; otherwise the call spawns
    [domains - 1] domains that claim chunks of indices from one shared
    cursor, and joins them before it returns, also when [f] raises.  Once
    an item raises, no worker claims another chunk.  A worker runs one
    item at a time, so [f] may index per-worker mutable state by [w]. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** {!mapw} without the worker id. *)

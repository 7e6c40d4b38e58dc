(* Batched multi-query solving: one fork–join per batch ([Pool.mapw]),
   one solver session per worker and a canonical-instance memo cache.

   The cache discipline (see dispatch.mli and canon.mli): every query is
   answered through its canonical form, so a digest hit and a fresh solve
   are the *same* deterministic computation — the cached answer is what
   the miss path would have produced, and the inverse transform restores
   the query's own time origin, work scale and job numbering bit for
   bit. *)

module Job = Ss_model.Job
module Canon = Ss_model.Canon
module Schedule = Ss_model.Schedule
module O = Ss_core.Offline
module Pool = Ss_parallel.Pool

type algo = Solve | Oa | Avr
type query = { algo : algo; instance : Job.instance }
type outcome = Run of O.F.run | Sched of Schedule.t

type stats = {
  queries : int;
  hits : int;
  misses : int;
  evictions : int;
  resident : int;
  steals : int;
  domains : int;
}

(* --- LRU keyed by canonical digest ------------------------------------ *)

module Lru = struct
  type 'v node = {
    key : string;  (* MD5 of the canonical encoding *)
    check : string;  (* full canonical encoding: digest-collision guard *)
    v : 'v;
    mutable prev : 'v node option;  (* toward MRU *)
    mutable next : 'v node option;  (* toward LRU *)
  }

  type 'v t = {
    capacity : int;
    tbl : (string, 'v node) Hashtbl.t;
    mutable head : 'v node option;
    mutable tail : 'v node option;
    mutable evictions : int;
  }

  let create capacity =
    { capacity; tbl = Hashtbl.create 256; head = None; tail = None; evictions = 0 }

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.head;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let find t ~key ~check =
    match Hashtbl.find_opt t.tbl key with
    | Some n when String.equal n.check check ->
      unlink t n;
      push_front t n;
      Some n.v
    | _ -> None

  let add t ~key ~check v =
    if t.capacity > 0 then begin
      (match Hashtbl.find_opt t.tbl key with
      | Some old ->
        unlink t old;
        Hashtbl.remove t.tbl key
      | None -> ());
      let n = { key; check; v; prev = None; next = None } in
      Hashtbl.replace t.tbl key n;
      push_front t n;
      if Hashtbl.length t.tbl > t.capacity then
        match t.tail with
        | Some lru ->
          unlink t lru;
          Hashtbl.remove t.tbl lru.key;
          t.evictions <- t.evictions + 1
        | None -> ()
    end

  let resident t = Hashtbl.length t.tbl
end

(* --- per-worker solver state ------------------------------------------- *)

(* One session per worker id, for any machine count; Pool.mapw runs at
   most one item per id at a time, so sessions need no internal locking.
   A later batch may hand a session to a different domain: the previous
   batch joined its domains, which orders their session use before this
   batch's. *)
type t = {
  domains : int;
  sessions : O.F.Session.t array;
  lock : Mutex.t;  (* guards the cache and the counters below *)
  cache : outcome Lru.t;
  mutable queries : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(domains = Pool.default_domains ()) ?(capacity = 1024) () =
  if capacity < 0 then invalid_arg "Dispatch.create: capacity < 0";
  if domains < 1 then invalid_arg "Dispatch.create: domains < 1";
  {
    domains;
    sessions = Array.init domains (fun _ -> O.F.Session.create ());
    lock = Mutex.create ();
    cache = Lru.create capacity;
    queries = 0;
    hits = 0;
    misses = 0;
  }

(* --- inverse transforms ------------------------------------------------ *)

(* Fresh arrays/lists throughout: cached entries are shared across hits,
   so the returned structure must never alias cache-resident mutable
   state. *)
let inverse_run (tf : Canon.transform) (r : O.F.run) =
  let unshift b = b +. tf.dt in
  let unscale s = Float.ldexp s (-tf.wexp) in
  {
    O.F.breakpoints = Array.map unshift r.breakpoints;
    schedule_phases =
      List.map
        (fun (p : O.F.phase) ->
          {
            O.F.members = List.map (fun j -> tf.perm.(j)) p.members;
            speed = unscale p.speed;
            procs = Array.copy p.procs;
            alloc = List.map (fun (i, j, t) -> (tf.perm.(i), j, t)) p.alloc;
          })
        r.schedule_phases;
    stats = r.stats;
  }

let inverse_sched (tf : Canon.transform) sched =
  let segs =
    Array.to_list (Schedule.segments sched)
    |> List.map (fun (s : Schedule.segment) ->
           {
             s with
             job = tf.perm.(s.job);
             t0 = s.t0 +. tf.dt;
             t1 = s.t1 +. tf.dt;
             speed = Float.ldexp s.speed (-tf.wexp);
           })
  in
  Schedule.make ~machines:(Schedule.machines sched) segs

let inverse tf = function
  | Run r -> Run (inverse_run tf r)
  | Sched s -> Sched (inverse_sched tf s)

(* --- the per-query answer path ---------------------------------------- *)

let algo_tag = function Solve -> "S" | Oa -> "O" | Avr -> "A"

let compute t w (q : query) canon =
  match q.algo with
  | Solve ->
    (* The worker's own session: its workspace serves every component of
       the solve, in turn, on this domain. *)
    Run (O.F.Session.solve t.sessions.(w) ~machines:canon.Job.machines (O.float_jobs canon))
  | Oa -> Sched (Ss_online.Oa.schedule canon)
  | Avr -> Sched (Ss_online.Avr.schedule canon)

let answer t w (q : query) =
  (* The online simulators' schedules are job-order-sensitive (segment
     emission follows the input numbering) and carry absolute interior
     times that make the shift inexact (wrap-pack offsets), so only the
     power-of-two work scale is canonicalized for them; offline runs take
     the full shift + scale + sort. *)
  let full = q.algo = Solve in
  let canon, tf = Canon.canonicalize ~shift:full ~sort:full q.instance in
  let check = algo_tag q.algo ^ Canon.encode canon in
  let key = Digest.string check in
  (* [Mutex.protect] releases the lock even if the cache raises, so one
     failed query cannot block every later one. *)
  let cached =
    Mutex.protect t.lock (fun () ->
        t.queries <- t.queries + 1;
        let cached = Lru.find t.cache ~key ~check in
        (match cached with
        | Some _ -> t.hits <- t.hits + 1
        | None -> t.misses <- t.misses + 1);
        cached)
  in
  match cached with
  | Some out -> inverse tf out
  | None ->
    let out = compute t w q canon in
    Mutex.protect t.lock (fun () -> Lru.add t.cache ~key ~check out);
    inverse tf out

let batch t queries = Pool.mapw ~domains:t.domains (fun w q -> answer t w q) queries
let query t q = answer t 0 q

let solve t instance =
  match query t { algo = Solve; instance } with
  | Run r -> r
  | Sched _ -> assert false

let solve_batch t instances =
  Array.map
    (function Run r -> r | Sched _ -> assert false)
    (batch t (Array.map (fun instance -> { algo = Solve; instance }) instances))

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        queries = t.queries;
        hits = t.hits;
        misses = t.misses;
        evictions = t.cache.Lru.evictions;
        resident = Lru.resident t.cache;
        steals = 0;
        domains = t.domains;
      })

let hit_rate (s : stats) =
  if s.queries = 0 then 0. else float_of_int s.hits /. float_of_int s.queries

let shutdown _ = ()

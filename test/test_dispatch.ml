(* Batch dispatcher: fork–join scheduling, canonical-instance memo cache.

   The load-bearing claims under test:
   - batch answers are bit-identical to sequential scratch solves whatever
     the worker count, interleaving or cache state;
   - canonicalization round-trips exactly: a shifted/scaled copy of an
     instance is answered from the cache with the transformed answer equal
     to its own fresh solve, bit for bit;
   - the LRU respects its capacity bound;
   - a crashing worker propagates the first exception only after every
     worker has drained, and a worker id never runs two items at once. *)

module Job = Ss_model.Job
module Canon = Ss_model.Canon
module O = Ss_core.Offline
module Pool = Ss_parallel.Pool
module Dispatch = Ss_dispatch.Dispatch
module G = Ss_workload.Generators

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Sorted-job instances: the canonical sort permutation is then the
   identity, so dispatcher answers must be bitwise equal to direct
   solves. *)
let sort_jobs (inst : Job.instance) =
  let jobs = Array.copy inst.jobs in
  Array.sort
    (fun (a : Job.t) (b : Job.t) ->
      compare (a.release, a.deadline, a.work) (b.release, b.deadline, b.work))
    jobs;
  { inst with jobs }

let mixed_instances () =
  List.concat_map
    (fun seed ->
      [
        sort_jobs (G.uniform ~seed ~machines:3 ~jobs:(8 + (seed mod 7)) ~horizon:20. ~max_work:4. ());
        sort_jobs
          (G.clustered ~seed ~machines:4 ~clusters:2 ~jobs_per_cluster:5 ~cluster_span:8.
             ~gap:4. ~max_work:3. ());
      ])
    [ 1; 2; 3; 4; 5 ]

(* An exactly-invertible disguise: integral time shift + power-of-two work
   scale (the invariances Canon normalizes away). *)
let disguise ~shift ~wexp (inst : Job.instance) =
  {
    inst with
    jobs =
      Array.map
        (fun (j : Job.t) ->
          {
            Job.release = j.release +. shift;
            deadline = j.deadline +. shift;
            work = Float.ldexp j.work wexp;
          })
        inst.jobs;
  }

(* --- batch vs sequential, bit-identical across worker counts ------------ *)

let test_batch_matches_scratch () =
  let base = Array.of_list (mixed_instances ()) in
  (* Duplicates (some disguised) interleaved among fresh instances, in a
     deterministic shuffle, so cache hits and misses mix inside one
     batch. *)
  let queries =
    Array.init 40 (fun i ->
        let inst = base.(i mod Array.length base) in
        if i mod 3 = 2 then disguise ~shift:(float_of_int (7 * (i mod 5))) ~wexp:(i mod 3) inst
        else inst)
  in
  let scratch = Array.map (fun inst -> O.run inst) queries in
  List.iter
    (fun domains ->
      let d = Dispatch.create ~domains ~capacity:64 () in
      (* Two passes: the first mixes misses and intra-batch hits, the
         second is all-hits — every answer must stay bit-identical. *)
      for pass = 1 to 2 do
        let got = Dispatch.solve_batch d queries in
        Array.iteri
          (fun i r ->
            check_bool
              (Printf.sprintf "domains=%d pass=%d query=%d payload" domains pass i)
              true (Reference.same_run r scratch.(i)))
          got
      done;
      let s = Dispatch.stats d in
      check_int (Printf.sprintf "domains=%d queries" domains) (2 * Array.length queries)
        s.queries;
      check_bool "second pass all hits" true (s.hits >= Array.length queries))
    [ 1; 3 ]

(* --- canonicalization round-trip ---------------------------------------- *)

let test_canon_roundtrip_property () =
  (* apply tf then invert field-by-field must restore the original bits. *)
  let prop (seed, shift, wexp) =
    let inst =
      sort_jobs (G.uniform ~seed ~machines:2 ~jobs:9 ~horizon:30. ~max_work:5. ())
    in
    let moved = disguise ~shift:(float_of_int shift) ~wexp inst in
    let canon, tf = Canon.canonicalize moved in
    (* The disguise is exactly undone: canonical forms coincide. *)
    Canon.encode canon = Canon.encode (fst (Canon.canonicalize inst))
    && Canon.digest canon = Canon.digest (fst (Canon.canonicalize inst))
    && (* and the transform inverts exactly *)
    Array.for_all2
      (fun (c : Job.t) j ->
        let (o : Job.t) = moved.jobs.(j) in
        c.release +. tf.dt = o.release
        && c.deadline +. tf.dt = o.deadline
        && Float.ldexp c.work (-tf.wexp) = o.work)
      canon.jobs tf.perm
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:60 ~name:"canonical roundtrip"
       QCheck.(triple (int_range 1 30) (int_range 0 1000) (int_range (-3) 3))
       prop)

let test_cached_answer_equals_fresh_solve () =
  (* Solve an instance, then query shifted/scaled copies: each copy is
     answered from the cache, and the transformed answer must equal the
     copy's own fresh scratch solve, bit for bit. *)
  let inst =
    sort_jobs (G.uniform ~seed:11 ~machines:3 ~jobs:14 ~horizon:24. ~max_work:4. ())
  in
  let d = Dispatch.create ~domains:1 ~capacity:16 () in
  ignore (Dispatch.solve d inst);
  List.iter
    (fun (shift, wexp) ->
      let moved = disguise ~shift ~wexp inst in
      let from_cache = Dispatch.solve d moved in
      let fresh = O.run moved in
      check_bool
        (Printf.sprintf "shift=%g wexp=%d cached == fresh" shift wexp)
        true (Reference.same_run from_cache fresh))
    [ (5., 0); (0., 2); (12., -1); (1000., 3); (3., -2) ];
  let s = Dispatch.stats d in
  check_int "all disguises hit" 5 s.hits;
  check_int "one miss" 1 s.misses

let test_simulation_queries () =
  (* Oa/Avr queries: dispatcher answers equal direct simulations, and a
     work-scaled duplicate hits the cache with the unscaled schedule. *)
  let inst =
    G.poisson ~seed:5 ~machines:3 ~jobs:14 ~rate:1.2 ~mean_work:2.0 ~slack:2.5 ()
  in
  let d = Dispatch.create ~domains:1 ~capacity:16 () in
  (match Dispatch.query d { algo = Oa; instance = inst } with
  | Sched s ->
    check_bool "oa == direct" true (Reference.same_schedule s (Ss_online.Oa.schedule inst))
  | Run _ -> Alcotest.fail "expected Sched");
  (match Dispatch.query d { algo = Avr; instance = inst } with
  | Sched s ->
    check_bool "avr == direct" true (Reference.same_schedule s (Ss_online.Avr.schedule inst))
  | Run _ -> Alcotest.fail "expected Sched");
  (* Sims canonicalize the work scale only: a scaled duplicate hits the
     cache and the unscaled answer equals its own direct simulation; a
     time-shifted duplicate is a distinct entry (the shift is not exact
     for schedule interior times) but still simulated correctly. *)
  let scaled = disguise ~shift:0. ~wexp:2 inst in
  (match Dispatch.query d { algo = Oa; instance = scaled } with
  | Sched s ->
    check_bool "scaled oa == its own direct sim" true
      (Reference.same_schedule s (Ss_online.Oa.schedule scaled))
  | Run _ -> Alcotest.fail "expected Sched");
  let s = Dispatch.stats d in
  check_int "scaled oa hit the cache" 1 s.hits;
  let moved = disguise ~shift:9. ~wexp:0 inst in
  (match Dispatch.query d { algo = Oa; instance = moved } with
  | Sched s ->
    check_bool "shifted oa == its own direct sim" true
      (Reference.same_schedule s (Ss_online.Oa.schedule moved))
  | Run _ -> Alcotest.fail "expected Sched");
  (* Solve and sim answers for the same instance must not collide. *)
  ignore (Dispatch.solve d inst);
  let s = Dispatch.stats d in
  check_int "solve of same instance is a miss, not a sim hit" 4 s.misses

(* --- LRU eviction bounds ------------------------------------------------ *)

let test_lru_eviction_bounds () =
  let capacity = 8 in
  let d = Dispatch.create ~domains:1 ~capacity () in
  let distinct = 20 in
  let insts =
    Array.init distinct (fun i ->
        sort_jobs (G.uniform ~seed:(100 + i) ~machines:2 ~jobs:6 ~horizon:12. ~max_work:3. ()))
  in
  Array.iter (fun inst -> ignore (Dispatch.solve d inst)) insts;
  let s = Dispatch.stats d in
  check_bool "resident bounded" true (s.resident <= capacity);
  check_int "evictions account for the overflow" (distinct - capacity) s.evictions;
  check_int "no hits among distinct instances" 0 s.hits;
  (* The most recent [capacity] instances are still resident... *)
  for i = distinct - capacity to distinct - 1 do
    ignore (Dispatch.solve d insts.(i))
  done;
  let s = Dispatch.stats d in
  check_int "recent instances all hit" capacity s.hits;
  (* ...and an evicted one re-solves (miss), evicting again. *)
  ignore (Dispatch.solve d insts.(0));
  let s' = Dispatch.stats d in
  check_int "evicted instance misses" (s.misses + 1) s'.misses

let test_cache_disabled () =
  let d = Dispatch.create ~domains:1 ~capacity:0 () in
  let inst = sort_jobs (G.uniform ~seed:3 ~machines:2 ~jobs:8 ~horizon:15. ~max_work:3. ()) in
  let a = Dispatch.solve d inst in
  let b = Dispatch.solve d inst in
  check_bool "still deterministic" true (Reference.same_run a b);
  let s = Dispatch.stats d in
  check_int "no hits without capacity" 0 s.hits;
  check_int "nothing resident" 0 s.resident

(* --- crash in a worker: first exception propagates, workers drain ------- *)

exception Boom of int

let test_crash_propagates_and_drains () =
  let n = 5000 in
  let arr = Array.init n Fun.id in
  let in_flight = Atomic.make 0 in
  (* Item 137 raises only once a spawned worker is inside a later item,
     and spawned workers stay inside [f] for 20 ms after the raise, so map
     must join them before it re-raises. *)
  let caller = Domain.self () in
  let spawned_waiting = Atomic.make false in
  let raised = Atomic.make false in
  let f x =
    ignore (Atomic.fetch_and_add in_flight 1);
    let spawned = Domain.self () <> caller in
    if x = 137 then begin
      while not (Atomic.get spawned_waiting) do
        Domain.cpu_relax ()
      done;
      Atomic.set raised true;
      raise (Boom x)
    end;
    if x > 137 then begin
      if spawned then Atomic.set spawned_waiting true;
      while not (Atomic.get raised) do
        Domain.cpu_relax ()
      done;
      let t0 = Unix.gettimeofday () in
      while spawned && Unix.gettimeofday () -. t0 < 0.02 do
        Domain.cpu_relax ()
      done
    end;
    ignore (Atomic.fetch_and_add in_flight (-1));
    x * 2
  in
  (match Pool.map ~domains:4 f arr with
  | exception Boom 137 -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Boom 137");
  (* Drained: no worker is still inside [f] once map has re-raised (the
     crashing item never decremented, hence the expected residue of 1). *)
  check_int "no in-flight work after the exception" 1 (Atomic.get in_flight)

let test_batch_crash_propagates () =
  let d = Dispatch.create ~domains:3 ~capacity:8 () in
  let good = sort_jobs (G.uniform ~seed:2 ~machines:2 ~jobs:6 ~horizon:12. ~max_work:3. ()) in
  let bad = { good with Job.machines = 0 } (* Session.create rejects m <= 0 *) in
  let queries = Array.init 30 (fun i -> if i = 17 then bad else good) in
  (match Dispatch.solve_batch d queries with
  | exception Invalid_argument _ -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Invalid_argument");
  (* Dispatcher still answers after the failed batch. *)
  check_bool "usable after crash" true
    (Reference.same_run (Dispatch.solve d good) (O.run good))

(* --- worker scheduling unit tests ---------------------------------------- *)

let test_mapw_matches_sequential () =
  List.iter
    (fun n ->
      let arr = Array.init n (fun i -> i - 7) in
      Alcotest.(check (array int))
        (Printf.sprintf "n=%d" n)
        (Array.map (fun x -> (x * x) + 1) arr)
        (Pool.mapw ~domains:4 (fun _ x -> (x * x) + 1) arr))
    [ 0; 1; 2; 3; 31; 1000 ]

let test_worker_ids () =
  let workers = 3 in
  (* A busy flag per id, set on entry and cleared on exit: an item that
     finds its id's flag set shares the id with an item still running,
     which Dispatch's lock-free per-worker slots rule out.  Items hold
     their flag until every id has started one (or an overlap is seen),
     so all workers are inside [f] at once: the spawned workers cannot
     drain every chunk before the caller claims one, and two workers
     sharing an id must meet. *)
  let busy = Array.init workers (fun _ -> Atomic.make false) in
  let seen = Array.init workers (fun _ -> Atomic.make false) in
  let started = Atomic.make 0 in
  let overlap = Atomic.make false in
  let f w _ =
    if Atomic.exchange busy.(w) true then Atomic.set overlap true;
    if not (Atomic.exchange seen.(w) true) then Atomic.incr started;
    while Atomic.get started < workers && not (Atomic.get overlap) do
      Domain.cpu_relax ()
    done;
    Atomic.set busy.(w) false;
    w
  in
  let ids = Pool.mapw ~domains:workers f (Array.make 200 ()) in
  check_bool "ids in range" true (Array.for_all (fun w -> w >= 0 && w < workers) ids);
  check_bool "caller participates" true (Array.exists (fun w -> w = 0) ids);
  check_bool "one item in flight per id" false (Atomic.get overlap)

let test_pool_map_chunking () =
  (* Tiny items at a chunk boundary mix: results must stay indexed. *)
  List.iter
    (fun (n, domains) ->
      let arr = Array.init n Fun.id in
      Alcotest.(check (array int))
        (Printf.sprintf "n=%d domains=%d" n domains)
        (Array.map (fun x -> x + 1) arr)
        (Pool.map ~domains (fun x -> x + 1) arr))
    [ (5, 4); (63, 4); (64, 4); (65, 4); (10_000, 3); (10_001, 8) ]

let () =
  Alcotest.run "dispatch"
    [
      ( "batch",
        [
          Alcotest.test_case "batch == scratch, bit-identical, cache on" `Quick
            test_batch_matches_scratch;
          Alcotest.test_case "cache disabled stays deterministic" `Quick test_cache_disabled;
          Alcotest.test_case "simulation queries (oa/avr)" `Quick test_simulation_queries;
        ] );
      ( "canonicalization",
        [
          Alcotest.test_case "roundtrip property" `Quick test_canon_roundtrip_property;
          Alcotest.test_case "cached answer == fresh solve of the disguise" `Quick
            test_cached_answer_equals_fresh_solve;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction bounds" `Quick test_lru_eviction_bounds;
        ] );
      ( "crew",
        [
          Alcotest.test_case "crash propagates and drains" `Quick
            test_crash_propagates_and_drains;
          Alcotest.test_case "batch crash propagates" `Quick test_batch_crash_propagates;
          Alcotest.test_case "map matches sequential" `Quick test_mapw_matches_sequential;
          Alcotest.test_case "worker ids" `Quick test_worker_ids;
          Alcotest.test_case "pool map chunking" `Quick test_pool_map_chunking;
        ] );
    ]

(* Tests for the instance-decomposition layer of the offline solver.

   The guarantee under test: splitting at zero-coverage grid points, solving the components
   independently (optionally over domains) and canonically merging yields
   a run that is bit-identical to the undecomposed solver's — same
   breakpoints, phase speeds, members, processor reservations, execution
   times and materialized schedules.  Only the round/removal counters may
   differ (the global round loop conjectures blended speeds across
   components before converging on each class). *)

module Job = Ss_model.Job
module Power = Ss_model.Power
module Schedule = Ss_model.Schedule
module Offline = Ss_core.Offline
module G = Ss_workload.Generators

let check_bool = Alcotest.(check bool)
let j r d w = Job.make ~release:r ~deadline:d ~work:w

let fjobs (inst : Job.instance) =
  Array.map
    (fun (job : Job.t) ->
      { Offline.F.release = job.release; deadline = job.deadline; work = job.work })
    inst.jobs

(* Structural bit-equality of everything a run exposes except the stats
   counters.  Polymorphic [=] compares floats by value, which is bitwise
   here (all times/speeds/allocations are finite and positive). *)
let same_run (a : Offline.F.run) (b : Offline.F.run) =
  a.breakpoints = b.breakpoints && a.schedule_phases = b.schedule_phases

let random_instance seed =
  let rng = Ss_workload.Rng.create ~seed in
  let machines = 1 + Ss_workload.Rng.int rng ~bound:4 in
  let n = 3 + Ss_workload.Rng.int rng ~bound:10 in
  (* A long horizon relative to n leaves natural dead gaps, so these
     instances decompose into a seed-dependent mix of component counts. *)
  G.uniform ~integral:false ~seed:(seed * 6271) ~machines ~jobs:n ~horizon:40. ~max_work:5. ()

let clustered_instance seed =
  let rng = Ss_workload.Rng.create ~seed in
  let clusters = 1 + Ss_workload.Rng.int rng ~bound:5 in
  let per = 1 + Ss_workload.Rng.int rng ~bound:6 in
  G.clustered ~seed:(seed * 911) ~machines:(1 + Ss_workload.Rng.int rng ~bound:3)
    ~clusters ~jobs_per_cluster:per ~cluster_span:8. ~gap:3. ~max_work:4. ()

(* --- unit --------------------------------------------------------------- *)

let test_clustered_component_count () =
  List.iter
    (fun clusters ->
      let inst =
        G.clustered ~seed:5 ~machines:3 ~clusters ~jobs_per_cluster:6 ~cluster_span:10.
          ~gap:4. ~max_work:4. ()
      in
      Alcotest.(check int)
        (Printf.sprintf "clusters=%d" clusters)
        clusters
        (Offline.component_count inst))
    [ 1; 2; 4; 7 ]

let test_single_component_identical_path () =
  (* All windows overlap: one component, so decomposition must be a
     pass-through (identical run including counters). *)
  let inst = Job.instance ~machines:2 [ j 0. 4. 8.; j 0. 2. 6.; j 1. 3. 2. ] in
  Alcotest.(check int) "one component" 1 (Offline.component_count inst);
  let d = Offline.run ~decompose:true inst in
  let u = Offline.run ~decompose:false inst in
  check_bool "identical run" true (same_run d u);
  check_bool "identical stats" true (d.stats = u.stats)

let test_all_singletons () =
  (* Pairwise-disjoint windows: every job is its own component. *)
  let inst =
    Job.instance ~machines:2
      [ j 0. 2. 3.; j 2. 4. 1.; j 5. 7. 2.; j 8. 9. 0.5; j 10. 13. 4. ]
  in
  Alcotest.(check int) "five components" 5 (Offline.component_count inst);
  let d = Offline.run ~decompose:true inst in
  let u = Offline.run ~decompose:false inst in
  check_bool "identical run" true (same_run d u);
  let sd = Offline.schedule_of_run ~machines:2 d in
  let su = Offline.schedule_of_run ~machines:2 u in
  check_bool "identical schedules" true (Schedule.segments sd = Schedule.segments su)

let test_components_partition_and_order () =
  List.iter
    (fun seed ->
      let inst = random_instance seed in
      let jobs = fjobs inst in
      let comps = Offline.F.components jobs in
      (* A partition of 0..n-1, each component ascending... *)
      let all = List.concat_map Array.to_list comps in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d partition" seed)
        (List.init (Array.length jobs) Fun.id)
        (List.sort compare all);
      List.iter
        (fun ids ->
          Array.iteri
            (fun p i -> if p > 0 then check_bool "ascending ids" true (ids.(p - 1) < i))
            ids)
        comps;
      (* ...time-disjoint and in time order: each component ends before
         (or exactly when) the next begins. *)
      let span ids =
        let lo = ref infinity and hi = ref neg_infinity in
        Array.iter
          (fun i ->
            lo := Float.min !lo jobs.(i).Offline.F.release;
            hi := Float.max !hi jobs.(i).Offline.F.deadline)
          ids;
        (!lo, !hi)
      in
      let rec disjoint = function
        | a :: (b :: _ as rest) ->
          let _, hi_a = span a and lo_b, _ = span b in
          check_bool "time-disjoint components" true (hi_a <= lo_b);
          disjoint rest
        | _ -> ()
      in
      disjoint comps)
    [ 1; 2; 3; 4; 5 ]

let test_parallel_matches_sequential () =
  List.iter
    (fun seed ->
      let inst = clustered_instance seed in
      let jobs = fjobs inst in
      let seq = Offline.F.solve ~parallel:false ~machines:inst.machines jobs in
      let par = Offline.F.solve ~parallel:true ~machines:inst.machines jobs in
      check_bool (Printf.sprintf "seed %d run" seed) true (same_run seq par);
      check_bool (Printf.sprintf "seed %d stats" seed) true (seq.stats = par.stats))
    [ 10; 11; 12; 13 ]

let test_session_decomposed_agrees () =
  (* A session solving a decomposable instance (one workspace per
     component slot) must agree with the one-shot solver phase for phase;
     grouped removals only change counters. *)
  List.iter
    (fun seed ->
      let inst = clustered_instance (seed + 40) in
      let jobs = fjobs inst in
      let session = Offline.F.Session.create ~machines:inst.machines in
      let a = Offline.F.Session.solve session jobs in
      let b = Offline.F.solve ~machines:inst.machines jobs in
      check_bool (Printf.sprintf "seed %d" seed) true (same_run a b);
      (* Re-solving on the warm per-component workspaces changes nothing. *)
      let a2 = Offline.F.Session.solve session jobs in
      check_bool (Printf.sprintf "seed %d warm" seed) true (same_run a2 b))
    [ 1; 2; 3 ]

let test_stats_invariant_decomposed () =
  (* One accepting round per phase plus at most one per removal (a failed
     round removes at least one job), summed across components: the merge
     preserves the bounds. *)
  List.iter
    (fun seed ->
      let inst = clustered_instance (seed + 80) in
      let r = Offline.run inst in
      check_bool
        (Printf.sprintf "seed %d phases <= rounds <= phases + removals" seed)
        true
        (r.stats.phases <= r.stats.rounds
        && r.stats.rounds <= r.stats.phases + r.stats.removals);
      check_bool
        (Printf.sprintf "seed %d grouped <= rounds - phases" seed)
        true
        (r.stats.grouped <= r.stats.rounds - r.stats.phases))
    [ 1; 2; 3; 4 ]

(* --- properties --------------------------------------------------------- *)

let prop_decomposed_bitwise_random =
  QCheck.Test.make ~count:60 ~name:"decomposed run bit-identical (random)"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 100) in
      let d = Offline.run ~decompose:true inst in
      let u = Offline.run ~decompose:false inst in
      let p = Power.alpha 2.7 in
      same_run d u
      && Float.equal (Offline.energy_of_run p d) (Offline.energy_of_run p u)
      && Schedule.segments (Offline.schedule_of_run ~machines:inst.machines d)
         = Schedule.segments (Offline.schedule_of_run ~machines:inst.machines u))

let prop_decomposed_bitwise_clustered =
  QCheck.Test.make ~count:40 ~name:"decomposed run bit-identical (clustered)"
    QCheck.small_nat
    (fun seed ->
      let inst = clustered_instance (seed + 200) in
      let d = Offline.run ~decompose:true inst in
      let u = Offline.run ~decompose:false inst in
      same_run d u)

let prop_decomposed_segments_valid =
  QCheck.Test.make ~count:40 ~name:"decomposed segments pass check_segments"
    QCheck.small_nat
    (fun seed ->
      let inst = clustered_instance (seed + 300) in
      let jobs = fjobs inst in
      let run = Offline.F.solve ~machines:inst.machines jobs in
      Offline.F.check_segments ~machines:inst.machines jobs
        (Offline.F.schedule_segments run)
      = [])

let prop_parallel_deterministic =
  QCheck.Test.make ~count:40 ~name:"parallel dispatch deterministic"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 400) in
      let jobs = fjobs inst in
      let seq = Offline.F.solve ~parallel:false ~machines:inst.machines jobs in
      let par = Offline.F.solve ~parallel:true ~machines:inst.machines jobs in
      same_run seq par && seq.stats = par.stats)

let () =
  Alcotest.run "decomposition"
    [
      ( "unit",
        [
          Alcotest.test_case "clustered component count" `Quick
            test_clustered_component_count;
          Alcotest.test_case "single component pass-through" `Quick
            test_single_component_identical_path;
          Alcotest.test_case "all-singleton components" `Quick test_all_singletons;
          Alcotest.test_case "components partition the jobs" `Quick
            test_components_partition_and_order;
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "session decomposed solves agree" `Quick
            test_session_decomposed_agrees;
          Alcotest.test_case "merged stats invariant" `Quick test_stats_invariant_decomposed;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_decomposed_bitwise_random;
            prop_decomposed_bitwise_clustered;
            prop_decomposed_segments_valid;
            prop_parallel_deterministic;
          ] );
    ]

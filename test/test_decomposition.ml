(* Tests for the instance-decomposition layer of the offline solver.

   The guarantee under test: splitting at zero-coverage grid points,
   solving the components one after another on one workspace and
   canonically merging yields the run of the whole instance — same
   breakpoints, phase speeds, members and processor reservations, by float
   bits, as test/reference.ml's whole-instance Fig. 2 solve, and the same
   execution times.  Only the round/removal counters may differ (the
   whole-instance loop conjectures blended speeds across components
   before converging on each class). *)

module Job = Ss_model.Job
module Offline = Ss_core.Offline
module G = Ss_workload.Generators

let check_bool = Alcotest.(check bool)
let j r d w = Job.make ~release:r ~deadline:d ~work:w

let check_reference name inst run =
  Alcotest.(check (option string)) (name ^ ": = reference") None
    (Reference.offline_mismatch inst run)

let agrees_with_reference inst run =
  match Reference.offline_mismatch inst run with
  | None -> true
  | Some why -> QCheck.Test.fail_report why

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
  (* All windows overlap: one component, so decomposition is a
     pass-through and every t_kj equals the reference's. *)
  let inst = Job.instance ~machines:2 [ j 0. 4. 8.; j 0. 2. 6.; j 1. 3. 2. ] in
  Alcotest.(check int) "one component" 1 (Offline.component_count inst);
  check_reference "pass-through" inst (Offline.run inst)

let test_all_singletons () =
  (* Pairwise-disjoint windows: every job is its own component. *)
  let inst =
    Job.instance ~machines:2
      [ j 0. 2. 3.; j 2. 4. 1.; j 5. 7. 2.; j 8. 9. 0.5; j 10. 13. 4. ]
  in
  Alcotest.(check int) "five components" 5 (Offline.component_count inst);
  let run = Offline.run inst in
  check_reference "singletons" inst run;
  check_bool "every t_kj = reference" true (Reference.same_run run (Reference.offline inst));
  check_bool "schedule = reference's" true
    (Reference.same_schedule
       (Offline.schedule_of_run ~machines:2 run)
       (Offline.schedule_of_run ~machines:2 (Reference.offline inst)))

let test_components_partition_and_order () =
  List.iter
    (fun seed ->
      let inst = random_instance seed in
      let jobs = Offline.float_jobs inst in
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

let test_session_decomposed_agrees () =
  (* A session solving a decomposable instance (every component on the
     session's one workspace) must agree with the one-shot solver bit for
     bit, and both with the reference. *)
  List.iter
    (fun seed ->
      let inst = clustered_instance (seed + 40) in
      let jobs = Offline.float_jobs inst in
      let session = Offline.F.Session.create () in
      let a = Offline.F.Session.solve session ~machines:inst.machines jobs in
      let b = Offline.F.solve ~machines:inst.machines jobs in
      check_bool (Printf.sprintf "seed %d" seed) true (Reference.same_run a b);
      check_reference (Printf.sprintf "seed %d" seed) inst a;
      (* Re-solving on the warm workspace changes nothing. *)
      let a2 = Offline.F.Session.solve session ~machines:inst.machines jobs in
      check_bool (Printf.sprintf "seed %d warm" seed) true (Reference.same_run a2 b))
    [ 1; 2; 3 ]

let test_stats_invariant_decomposed () =
  (* One accepting round per phase plus at most one per removal (a failed
     round removes at least one job), summed across components: the merge
     preserves the bounds.  Each failed round splits one pending set in
     two and each phase consumes one, so a component takes 2 phases - 1
     rounds, and the sums 2 phases - components. *)
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
        (r.stats.grouped <= r.stats.rounds - r.stats.phases);
      Alcotest.(check int)
        (Printf.sprintf "seed %d rounds = 2 phases - components" seed)
        ((2 * r.stats.phases) - Offline.component_count inst)
        r.stats.rounds)
    [ 1; 2; 3; 4 ]

(* --- the grid against the sort-based one ----------------------------------- *)

(* [Offline.F.grid] and [Offline.F.components], read off one sort of the
   endpoints, against test/reference.ml's sort-based versions: the
   breakpoints by float bits, every window and every component equal. *)
let grid_mismatch (jobs : Offline.F.job array) =
  let module R = Reference.Sorted_grid in
  let breakpoints, windows = Offline.F.grid jobs in
  let want = R.sort_uniq_times jobs in
  if
    not
      (Array.length breakpoints = Array.length want
      && Array.for_all2 Reference.same_float breakpoints want)
  then Some "breakpoints"
  else if windows <> R.windows want jobs then Some "windows"
  else if Offline.F.components jobs <> R.components jobs then Some "components"
  else None

(* Touching windows, a gap, duplicate endpoints, and zeros of both signs:
   a deadline at 0.0 and a release at -0.0 compare equal, and which of
   the two the grid keeps depends on where they fall in the endpoint
   sort's leaves, so every order of each set of jobs is tried; the
   solver must also keep the reference's breakpoint bits. *)
let test_grid_hand_cases () =
  let rec orders = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x -> List.map (fun rest -> x :: rest) (orders (List.filter (( != ) x) xs)))
        xs
  in
  let cases =
    [ [ j 0. 1. 1.; j 1. 2. 1. ]; [ j 0. 1. 1.; j 3. 5. 2. ];
      [ j 0. 2. 1.; j 0. 2. 3.; j 1. 2. 1.; j 0. 1. 2.; j 1. 3. 1. ] ]
    @ orders [ j (-1.) 0. 1.; j (-0.) 1. 1.; j (-3.) (-2.) 1. ]
    @ orders [ j (-1.) (-0.) 1.; j 0. 2. 1.; j (-1.) 1. 2.; j (-2.) 0. 1. ]
  in
  List.iteri
    (fun c jobs ->
      let inst = Job.instance ~machines:2 jobs in
      Alcotest.(check (option string))
        (Printf.sprintf "case %d: grid = sort-based" c)
        None
        (grid_mismatch (Offline.float_jobs inst));
      check_reference (Printf.sprintf "case %d" c) inst (Offline.run inst))
    cases

let prop_grid_matches_sorted =
  QCheck.Test.make ~count:300 ~name:"grid and components = sort-based (uniform, poisson, clustered)"
    QCheck.(pair small_nat (int_range 0 2))
    (fun (seed, family) ->
      let inst =
        match family with
        | 0 ->
          G.uniform ~integral:(seed mod 2 = 0) ~seed:(seed + 7) ~machines:2
            ~jobs:(1 + (seed mod 40)) ~horizon:30. ~max_work:4. ()
        | 1 ->
          G.poisson ~integral:(seed mod 2 = 0) ~seed:(seed + 11) ~machines:2
            ~jobs:(1 + (seed mod 40)) ~rate:0.5 ~mean_work:2. ~slack:2. ()
        | _ -> clustered_instance (seed + 500)
      in
      match grid_mismatch (Offline.float_jobs inst) with
      | None -> true
      | Some why -> QCheck.Test.fail_report why)

(* --- properties --------------------------------------------------------- *)

let prop_decomposed_bitwise_random =
  QCheck.Test.make ~count:60 ~name:"decomposed run bit-identical (random)"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 100) in
      agrees_with_reference inst (Offline.run inst))

let prop_decomposed_bitwise_clustered =
  QCheck.Test.make ~count:40 ~name:"decomposed run bit-identical (clustered)"
    QCheck.small_nat
    (fun seed ->
      let inst = clustered_instance (seed + 200) in
      agrees_with_reference inst (Offline.run inst))

(* The merged run's schedule passes the reference audit with no slack on
   times and 1e-9 relative on works. *)
let prop_decomposed_segments_valid =
  QCheck.Test.make ~count:40 ~name:"decomposed segments pass tight audit"
    QCheck.small_nat
    (fun seed ->
      let inst = clustered_instance (seed + 300) in
      let run = Offline.F.solve ~machines:inst.machines (Offline.float_jobs inst) in
      Reference.check_tight inst (Offline.schedule_of_run ~machines:inst.machines run) = [])

let prop_decomposed_packing_reference =
  QCheck.Test.make ~count:40 ~name:"decomposed packing = reference, by float bits"
    QCheck.small_nat
    (fun seed ->
      let inst = clustered_instance (seed + 400) in
      match
        Reference.packing_mismatch ~machines:inst.machines ~seed (Offline.run inst)
      with
      | None -> true
      | Some why -> QCheck.Test.fail_report why)

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
          Alcotest.test_case "session decomposed solves agree" `Quick
            test_session_decomposed_agrees;
          Alcotest.test_case "merged stats invariant" `Quick test_stats_invariant_decomposed;
          Alcotest.test_case "grid hand cases = sort-based" `Quick test_grid_hand_cases;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_decomposed_bitwise_random;
            prop_decomposed_bitwise_clustered;
            prop_decomposed_segments_valid;
            prop_decomposed_packing_reference;
            prop_grid_matches_sorted;
          ] );
    ]

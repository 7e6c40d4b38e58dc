(* The sweep oracle (lib/core/offline.ml): a sweep over the intervals that
   serves each interval's mandatory shares first and then the least-laxity
   jobs, finished by implicit-residual augmentation, that answers every
   round of a component with [n * k >= compress_threshold] with a maximum
   flow of the dense Fig. 1 network, without building it.

   (a) Solver: runs agree with test/reference.ml's whole-instance Fig. 2
       solve (a fresh dense network and Dinic every round) on members,
       speeds, procs and breakpoints by float bits, and on every member's
       total time; on dense-sized instances on every t_kj by float bits.
       Sweep-sized cases are one component each and cover m = 1, 2, 4, 8;
       one instance mixes dense and sweep components on one workspace;
       one exact-rational solve keeps the sweep covered in the rational
       field.
   (b) Counters: the sweep builds no flow network, so its network
       counters read 0, while phases and removals match the pending-set
       reference.
   (c) Disguises: an integral time shift plus a power-of-two work scale
       moves a sweep run exactly. *)

module Offline = Ss_core.Offline
module Job = Ss_model.Job
module G = Ss_workload.Generators

let grid_size (inst : Job.instance) =
  let times =
    Array.to_list inst.jobs
    |> List.concat_map (fun (j : Job.t) -> [ j.release; j.deadline ])
    |> List.sort_uniq Float.compare
  in
  Job.num_jobs inst * (List.length times - 1)

(* The instance is one component that the sweep answers. *)
let check_sweep_sized name inst =
  Alcotest.(check bool)
    (name ^ ": one sweep-sized component")
    true
    (Offline.component_count inst = 1 && grid_size inst >= Offline.F.compress_threshold)

let check_reference name inst run =
  Alcotest.(check (option string)) (name ^ ": = reference") None
    (Reference.offline_mismatch inst run)

(* The run's allocation materializes into a schedule that passes the
   reference audit with no slack on times (1e-9 relative on works), and
   the production packer's whole schedule and slices equal the reference
   packer's by float bits. *)
let check_schedule name (inst : Job.instance) run =
  Alcotest.(check int) (name ^ ": schedule problems") 0
    (List.length
       (Reference.check_tight inst (Offline.schedule_of_run ~machines:inst.machines run)));
  Alcotest.(check (option string)) (name ^ ": packing = reference") None
    (Reference.packing_mismatch ~machines:inst.machines ~seed:(Hashtbl.hash name) run)

(* --- (a) solver agreement -------------------------------------------- *)

let instance_mix seed machines =
  [
    ( Printf.sprintf "uniform s=%d m=%d" seed machines,
      G.uniform ~seed ~machines ~jobs:14 ~horizon:20. ~max_work:4. () );
    ( Printf.sprintf "poisson s=%d m=%d" seed machines,
      G.poisson ~seed:(seed + 500) ~machines ~jobs:12 ~rate:1.2 ~mean_work:2.5
        ~slack:2.2 () );
    ( Printf.sprintf "heavy s=%d m=%d" seed machines,
      G.heavy ~seed:(seed + 900) ~machines ~jobs:16 ~horizon:14. () );
  ]

(* n = 120 non-integral heavy or stream jobs: one component, k ~ 2n. *)
let sweep_sized seed machines =
  [
    ( Printf.sprintf "heavy n=120 s=%d m=%d" seed machines,
      G.heavy ~integral:false ~seed ~machines ~jobs:120 ~horizon:40. () );
    ( Printf.sprintf "stream n=120 s=%d m=%d" seed machines,
      G.stream ~integral:false ~seed:(seed + 300) ~machines ~jobs:120 ~rate:4. ~mean_work:2.
        ~max_laxity:8. () );
  ]

let test_solver_matrix () =
  List.iter
    (fun machines ->
      List.iter
        (fun seed ->
          List.iter
            (fun (name, inst) ->
              let run = Offline.run inst in
              check_reference name inst run;
              check_schedule name inst run)
            (instance_mix seed machines))
        [ 11; 12; 13 ];
      List.iter
        (fun (name, inst) ->
          check_sweep_sized name inst;
          let run = Offline.run inst in
          check_reference name inst run;
          check_schedule name inst run)
        (sweep_sized (20 + machines) machines))
    [ 1; 2; 4; 8 ]

let shift_jobs dt (inst : Job.instance) =
  Array.to_list inst.jobs
  |> List.map (fun (j : Job.t) ->
         Job.make ~release:(j.release +. dt) ~deadline:(j.deadline +. dt) ~work:j.work)

(* Components of both kinds, in time order dense, sweep, dense: every
   component is solved on the one workspace after a component of the
   other kind.  The two dense parts differ, so no speed ties bitwise
   across components. *)
let mixed_instance seed =
  let small s = G.uniform ~seed:s ~machines:4 ~jobs:10 ~horizon:12. ~max_work:4. () in
  let big = G.heavy ~integral:false ~seed ~machines:4 ~jobs:120 ~horizon:40. () in
  Job.instance ~machines:4
    (shift_jobs 0. (small seed) @ shift_jobs 20. big @ shift_jobs 70. (small (seed + 1)))

let test_clustered_split () =
  List.iter
    (fun seed ->
      let inst =
        G.clustered ~seed ~machines:4 ~clusters:4 ~jobs_per_cluster:10
          ~cluster_span:12. ~gap:3. ~max_work:4. ()
      in
      let name = Printf.sprintf "clustered s=%d" seed in
      Alcotest.(check int) (name ^ ": components") 4 (Offline.component_count inst);
      check_reference name inst (Offline.run inst))
    [ 61; 62 ];
  List.iter
    (fun seed ->
      let inst = mixed_instance seed in
      let name = Printf.sprintf "mixed s=%d" seed in
      let comps = Offline.F.components (Offline.float_jobs inst) in
      let sizes =
        List.map
          (fun ids ->
            grid_size
              (Job.instance ~machines:4 (List.map (fun i -> inst.jobs.(i)) (Array.to_list ids))))
          comps
      in
      Alcotest.(check bool) (name ^ ": dense and sweep components") true
        (List.exists (fun s -> s >= Offline.F.compress_threshold) sizes
        && List.exists (fun s -> s < Offline.F.compress_threshold) sizes);
      let run = Offline.run inst in
      check_reference name inst run;
      check_schedule name inst run)
    [ 63; 64 ]

let test_session_agrees () =
  (* One session, one workspace, across sweep-sized, dense-sized and mixed
     instances: every solve equals a fresh solve by float bits and the
     reference. *)
  let machines = 4 in
  let session = Offline.F.Session.create () in
  let cases =
    sweep_sized 71 machines @ instance_mix 72 machines
    @ [ ("mixed s=73", mixed_instance 73) ]
    @ sweep_sized 74 machines
  in
  List.iter
    (fun (name, inst) ->
      let jobs = Offline.float_jobs inst in
      let via_session = Offline.F.Session.solve session ~machines jobs in
      Alcotest.(check bool) (name ^ " session = fresh") true
        (Reference.same_run via_session (Offline.F.solve ~machines jobs));
      check_reference (name ^ " session") inst via_session)
    cases

(* The exact-rational replay on sweep-sized instances: the same phase
   partition as the float run, and a schedule that passes the
   zero-tolerance audit.  The heavy instance's rounds need no augmenting
   path; the stream instance's rational solve takes 14 over its 41
   rounds, two accepting rounds among them, so the rational field runs
   both stages. *)
let test_exact_agrees () =
  List.iter
    (fun (name, inst) ->
      check_sweep_sized name inst;
      let exact = Offline.solve_exact inst in
      Alcotest.(check int) (name ^ ": schedule problems") 0
        (List.length (Reference.check_exact inst exact));
      let f = Offline.run inst in
      Alcotest.(check int) (name ^ ": phase count")
        (List.length f.schedule_phases)
        (List.length exact.schedule_phases);
      List.iter2
        (fun (a : Offline.F.phase) (b : Offline.Exact.phase) ->
          Alcotest.(check (list int)) (name ^ ": members") a.members b.members;
          Alcotest.(check (array int)) (name ^ ": procs") a.procs b.procs;
          let s = Ss_numeric.Rational.to_float b.speed in
          Alcotest.(check bool) (name ^ ": speed") true
            (Float.abs (s -. a.speed) <= 1e-9 *. Float.max 1. (Float.abs s)))
        f.schedule_phases exact.schedule_phases)
    [
      ("exact heavy s=1", G.heavy ~integral:false ~seed:1 ~machines:4 ~jobs:120 ~horizon:40. ());
      ( "exact stream s=5",
        G.stream ~integral:false ~seed:5 ~machines:4 ~jobs:150 ~rate:4. ~mean_work:2.
          ~max_laxity:8. () );
    ]

(* --- (b) counters ------------------------------------------------------ *)

let test_counters () =
  let inst = G.heavy ~integral:false ~seed:91 ~machines:8 ~jobs:150 ~horizon:60. () in
  check_sweep_sized "counter instance" inst;
  let sweep = Offline.run inst in
  let expected = Reference.offline_pending inst in
  Alcotest.(check (list int)) "sweep builds no network" [ 0; 0; 0 ]
    [ sweep.stats.net_edges; sweep.stats.net_pushes; sweep.stats.net_bfs_waves ];
  Alcotest.(check int) "same phases" expected.stats.phases sweep.stats.phases;
  Alcotest.(check int) "same removals" expected.stats.removals sweep.stats.removals;
  let small = G.heavy ~integral:false ~seed:91 ~machines:8 ~jobs:40 ~horizon:60. () in
  let dense = Offline.run small in
  Alcotest.(check bool) "dense work was counted" true
    (dense.stats.net_edges > 0 && dense.stats.net_pushes > 0 && dense.stats.net_bfs_waves > 0)

(* --- (c) disguise equivariance ----------------------------------------- *)

(* Shifting every time by an integer and scaling every work by 2^a is
   exact on an integral instance, and the sweep sees the same widths and
   demands: breakpoints shift by the same amount, speeds scale by 2^a, and
   members, procs and every t_kj stay put, by float bits. *)
let prop_disguise_equivariant =
  QCheck.Test.make ~count:16 ~name:"sweep run is disguise-equivariant"
    QCheck.(
      quad (int_range 0 3) (int_range 0 10_000) (int_range 0 1000) (int_range (-3) 3))
    (fun (mi, seed, shift, a) ->
      let machines = [| 1; 2; 4; 8 |].(mi) in
      let inst = G.heavy ~seed ~machines ~jobs:150 ~horizon:500. () in
      if not (Offline.component_count inst = 1 && grid_size inst >= Offline.F.compress_threshold)
      then QCheck.Test.fail_report "instance is not one sweep-sized component";
      let dt = float_of_int shift in
      let moved =
        Job.instance ~machines
          (Array.to_list inst.jobs
          |> List.map (fun (j : Job.t) ->
                 Job.make ~release:(j.release +. dt) ~deadline:(j.deadline +. dt)
                   ~work:(Float.ldexp j.work a)))
      in
      let base = Offline.run inst and run = Offline.run moved in
      Array.length base.breakpoints = Array.length run.breakpoints
      && Array.for_all2
           (fun b r -> Reference.same_float (b +. dt) r)
           base.breakpoints run.breakpoints
      && List.length base.schedule_phases = List.length run.schedule_phases
      && List.for_all2
           (fun (p : Offline.F.phase) (q : Offline.F.phase) ->
             p.members = q.members && p.procs = q.procs
             && Reference.same_float (Float.ldexp p.speed a) q.speed
             && List.length p.alloc = List.length q.alloc
             && List.for_all2
                  (fun (i, j, t) (i', j', t') -> i = i' && j = j' && Reference.same_float t t')
                  p.alloc q.alloc)
           base.schedule_phases run.schedule_phases)

let () =
  Alcotest.run "compressed"
    [
      ( "solver agreement",
        [
          Alcotest.test_case "generator x seed x machines matrix" `Quick test_solver_matrix;
          Alcotest.test_case "clustered + solve_split" `Quick test_clustered_split;
          Alcotest.test_case "session solves" `Quick test_session_agrees;
          Alcotest.test_case "exact-rational replay" `Slow test_exact_agrees;
        ] );
      ("counters", [ Alcotest.test_case "network size" `Quick test_counters ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_disguise_equivariant ]);
    ]

(* Tests for the paper's combinatorial offline algorithm (Theorem 1).

   Correctness is pinned down by independent oracles:
   - YDS at m = 1 (different algorithm, same optimum),
   - the Frank-Wolfe convex band [lower_bound, energy],
   - the PWL-LP lower bound,
   - the exact-rational replay of the algorithm itself,
   plus the structural properties of Lemmas 1-3. *)

module Job = Ss_model.Job
module Power = Ss_model.Power
module Schedule = Ss_model.Schedule
module Offline = Ss_core.Offline
module Yds = Ss_core.Yds
module G = Ss_workload.Generators

let checkf msg = Alcotest.(check (float 1e-6)) msg
let check_bool = Alcotest.(check bool)
let j r d w = Job.make ~release:r ~deadline:d ~work:w

let hand_instance =
  Job.instance ~machines:2 [ j 0. 4. 8.; j 0. 2. 6.; j 1. 3. 2. ]

let random_instance seed =
  let rng = Ss_workload.Rng.create ~seed in
  let machines = 1 + Ss_workload.Rng.int rng ~bound:4 in
  let n = 3 + Ss_workload.Rng.int rng ~bound:9 in
  G.uniform ~integral:false ~seed:(seed * 7919) ~machines ~jobs:n ~horizon:16. ~max_work:6. ()

(* --- unit -------------------------------------------------------------- *)

let test_hand_instance () =
  let sched, run = Offline.solve hand_instance in
  check_bool "feasible" true (Schedule.is_feasible hand_instance sched);
  checkf "energy 38 at alpha=2" 38. (Schedule.energy (Power.alpha 2.) sched);
  Alcotest.(check int) "two speed classes" 2 run.stats.phases;
  Alcotest.(check (list (float 1e-6))) "class speeds" [ 3.; 2. ] (Offline.F.speeds run)

let test_single_job () =
  let inst = Job.instance ~machines:3 [ j 2. 6. 8. ] in
  let sched, run = Offline.solve inst in
  check_bool "feasible" true (Schedule.is_feasible inst sched);
  (* A single job runs at its density over its whole window. *)
  Alcotest.(check (list (float 1e-6))) "speed = density" [ 2. ] (Offline.F.speeds run);
  (* P(2) * 4 time units at alpha = 2. *)
  checkf "energy" 16. (Schedule.energy (Power.alpha 2.) sched)

let test_more_jobs_than_machines_single_interval () =
  (* 4 identical jobs, 2 machines, common window: speed = total/(m*span). *)
  let inst = Job.instance ~machines:2 (List.init 4 (fun _ -> j 0. 2. 3.)) in
  let sched, run = Offline.solve inst in
  check_bool "feasible" true (Schedule.is_feasible inst sched);
  Alcotest.(check (list (float 1e-6))) "one class, balanced speed" [ 3. ] (Offline.F.speeds run)

let test_fewer_jobs_than_machines () =
  (* Each job gets its own processor at its own density. *)
  let inst = Job.instance ~machines:4 [ j 0. 2. 2.; j 0. 4. 2. ] in
  let sched, _info = Offline.solve inst in
  check_bool "feasible" true (Schedule.is_feasible inst sched);
  checkf "energy = sum of density bounds"
    ((1. *. 2.) +. (0.25 *. 4.))
    (Schedule.energy (Power.alpha 2.) sched)

let test_matches_yds_single_processor () =
  List.iter
    (fun seed ->
      let inst = G.uniform ~seed ~machines:1 ~jobs:8 ~horizon:14. ~max_work:5. () in
      let e_comb = Offline.optimal_energy (Power.alpha 3.) inst in
      let e_yds = Yds.energy (Power.alpha 3.) (Yds.solve inst) in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "seed %d" seed)
        e_yds e_comb)
    [ 1; 2; 3; 4; 5 ]

let test_exact_replay_agrees () =
  let run = Offline.run hand_instance in
  let exact = Offline.solve_exact hand_instance in
  Alcotest.(check int) "same phase count"
    (List.length run.schedule_phases)
    (List.length exact.schedule_phases);
  List.iter2
    (fun (p : Offline.F.phase) (q : Offline.Exact.phase) ->
      Alcotest.(check (float 1e-9)) "speed" (Ss_numeric.Rational.to_float q.speed) p.speed;
      Alcotest.(check (list int)) "members" q.members p.members)
    run.schedule_phases exact.schedule_phases

let test_speeds_strictly_decreasing () =
  List.iter
    (fun seed ->
      let inst = random_instance seed in
      let rec decreasing = function
        | a :: (b :: _ as rest) -> a > b +. 1e-12 && decreasing rest
        | _ -> true
      in
      check_bool (Printf.sprintf "seed %d decreasing" seed) true
        (decreasing (Offline.F.speeds (snd (Offline.solve inst)))))
    [ 11; 12; 13; 14 ]

(* Lemma 3: within every phase and interval, the reserved processor count
   is min(active jobs of the class, machines left over). *)
let test_lemma3_processor_law () =
  let inst = random_instance 42 in
  let run = Offline.run inst in
  let k = Array.length run.breakpoints - 1 in
  let used = Array.make k 0 in
  List.iter
    (fun (phase : Offline.F.phase) ->
      for jv = 0 to k - 1 do
        let active =
          List.filter
            (fun i ->
              let job = inst.jobs.(i) in
              job.release <= run.breakpoints.(jv)
              && run.breakpoints.(jv + 1) <= job.deadline)
            phase.members
        in
        let expect = min (List.length active) (inst.machines - used.(jv)) in
        Alcotest.(check int)
          (Printf.sprintf "m_ij law at interval %d" jv)
          expect phase.procs.(jv)
      done;
      for jv = 0 to k - 1 do
        used.(jv) <- used.(jv) + phase.procs.(jv)
      done)
    run.schedule_phases

(* The phase allocation saturates its reservation: per interval the class's
   total execution time is exactly procs * width. *)
let test_phase_allocation_saturates () =
  let inst = random_instance 17 in
  let run = Offline.run inst in
  let k = Array.length run.breakpoints - 1 in
  List.iter
    (fun (phase : Offline.F.phase) ->
      let per_interval = Array.make k 0. in
      List.iter (fun (_, jv, t) -> per_interval.(jv) <- per_interval.(jv) +. t) phase.alloc;
      for jv = 0 to k - 1 do
        let width = run.breakpoints.(jv + 1) -. run.breakpoints.(jv) in
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "saturation interval %d" jv)
          (float_of_int phase.procs.(jv) *. width)
          per_interval.(jv)
      done)
    run.schedule_phases

let test_energy_of_run_matches_schedule () =
  let inst = random_instance 23 in
  let run = Offline.run inst in
  let sched = Offline.schedule_of_run ~machines:inst.machines run in
  let p = Power.alpha 2.2 in
  Alcotest.(check (float 1e-6))
    "phase energy = schedule energy"
    (Offline.energy_of_run p run)
    (Schedule.energy p sched)

let test_invalid_inputs () =
  Alcotest.check_raises "invalid instance" (Invalid_argument "Offline.solve: invalid instance")
    (fun () -> ignore (Offline.solve { Job.jobs = [||]; machines = 2 }));
  Alcotest.check_raises "machines" (Invalid_argument "Offline.solve: machines <= 0")
    (fun () ->
      ignore (Offline.F.solve ~machines:0 [| { Offline.F.release = 0.; deadline = 1.; work = 1. } |]))

(* A non-finite deadline, release or work, or a density that overflows
   or underflows, is a typed error at every entry point, not a failure
   inside the round loop. *)
let test_non_finite_jobs () =
  let instances =
    [
      ("infinite deadline", [| j 0. Float.infinity 1.; j 0. 2. 1. |]);
      ("nan release", [| j Float.nan 1. 1.; j 0. 2. 1. |]);
      ("infinite work", [| j 0. 1. Float.infinity; j 0. 2. 1. |]);
      ("overflowing density", [| j 0. 1e-300 1e300; j 0. 2. 1. |]);
      ("underflowing density", [| j 0. 1e300 1e-300; j 0. 2. 1. |]);
    ]
  in
  List.iter
    (fun (name, jobs) ->
      let inst = { Job.jobs; machines = 2 } in
      let fjobs = Offline.float_jobs inst in
      List.iter
        (fun (entry, solve) ->
          match solve () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s: %s accepted" name entry)
        [
          ("Offline.run", fun () -> ignore (Offline.run inst));
          ("Offline.solve", fun () -> ignore (Offline.solve inst));
          ("Offline.solve_exact", fun () -> ignore (Offline.solve_exact inst));
          ("F.solve", fun () -> ignore (Offline.F.solve ~machines:2 fjobs));
          ( "F.Session.solve",
            fun () -> ignore (Offline.F.Session.solve (Offline.F.Session.create ()) ~machines:2 fjobs) );
          ( "Exact.solve",
            fun () ->
              let r = Ss_numeric.Rational.of_float in
              let exact (x : Job.t) =
                { Offline.Exact.release = r x.release; deadline = r x.deadline; work = r x.work }
              in
              ignore (Offline.Exact.solve ~machines:2 (Array.map exact jobs)) );
        ])
    instances

(* Below the instance boundary an empty job array is no error: every
   solver entry point returns an empty run (no breakpoints, no phases,
   zero counters), and a session that saw one still solves. *)
let test_empty_job_array () =
  let check name ~breakpoints ~phases counters =
    Alcotest.(check int) (name ^ ": breakpoints") 0 breakpoints;
    Alcotest.(check int) (name ^ ": phases") 0 phases;
    Alcotest.(check (list int)) (name ^ ": counters") (List.map (fun _ -> 0) counters) counters
  in
  let check_float name (r : Offline.F.run) =
    let s = r.stats in
    check name ~breakpoints:(Array.length r.breakpoints) ~phases:(List.length r.schedule_phases)
      [ s.phases; s.rounds; s.resumes; s.removals; s.grouped; s.largest_group; s.net_edges;
        s.net_pushes; s.net_bfs_waves; s.phase_resumes ]
  in
  check_float "F.solve" (Offline.F.solve ~machines:2 [||]);
  let session = Offline.F.Session.create () in
  check_float "F.Session.solve" (Offline.F.Session.solve session ~machines:2 [||]);
  let exact = Offline.Exact.solve ~machines:2 [||] in
  let s = exact.stats in
  check "Exact.solve" ~breakpoints:(Array.length exact.breakpoints)
    ~phases:(List.length exact.schedule_phases)
    [ s.phases; s.rounds; s.resumes; s.removals; s.grouped; s.largest_group; s.net_edges;
      s.net_pushes; s.net_bfs_waves; s.phase_resumes ];
  let jobs = [| { Offline.F.release = 0.; deadline = 2.; work = 3. } |] in
  Alcotest.(check (list (float 0.))) "session solves after an empty call"
    (Offline.F.speeds (Offline.F.solve ~machines:2 jobs))
    (Offline.F.speeds (Offline.F.Session.solve session ~machines:2 jobs))

(* Optimal for every convex power function simultaneously: the same
   schedule's energy under a different convex P still beats the FW band
   computed for that P. *)
let test_general_convex_power () =
  let inst = hand_instance in
  let sched = Offline.optimal_schedule inst in
  List.iter
    (fun p ->
      let e = Schedule.energy p sched in
      let fw = Ss_convex.Frank_wolfe.solve ~iterations:250 p inst in
      check_bool
        (Printf.sprintf "optimal under %s" (Power.name p))
        true
        (e <= fw.energy +. (1e-3 *. fw.energy) && e >= fw.lower_bound -. (1e-3 *. fw.energy)))
    [ Power.alpha 2.; Power.alpha 3.; Power.cube; Power.poly [ (1., 3.); (0.5, 1.5) ] ]

(* Scale invariances of the optimum for P = s^alpha:
   E(c * works) = c^alpha E(works); E(time scaled by c) = c^(1-alpha) E. *)
let test_scaling_invariances () =
  let alpha = 2.5 in
  let p = Power.alpha alpha in
  let inst = random_instance 31 in
  let base = Offline.optimal_energy p inst in
  let work_scaled = { inst with Job.jobs = Array.map (Job.scale_work 2.) inst.jobs } in
  Alcotest.(check (float 1e-4))
    "work scaling"
    ((2. ** alpha) *. base)
    (Offline.optimal_energy p work_scaled);
  let time_scaled = { inst with Job.jobs = Array.map (Job.scale_time 2.) inst.jobs } in
  Alcotest.(check (float 1e-4))
    "time scaling"
    ((2. ** (1. -. alpha)) *. base)
    (Offline.optimal_energy p time_scaled)

let test_permutation_invariance () =
  let inst = random_instance 55 in
  let n = Array.length inst.jobs in
  let perm = Array.init n (fun i -> (n - 1) - i) in
  let shuffled = { inst with Job.jobs = Array.map (fun i -> inst.jobs.(perm.(i))) (Array.init n Fun.id) } in
  let p = Power.alpha 3. in
  Alcotest.(check (float 1e-6))
    "energy invariant under job order"
    (Offline.optimal_energy p inst)
    (Offline.optimal_energy p shuffled)

let test_pwl_lower_bound () =
  let p = Power.alpha 2. in
  let rep = Ss_core.Pwl_baseline.solve ~tangents:10 p hand_instance in
  check_bool "pwl lb below optimum" true (rep.lower_bound <= 38. +. 1e-6);
  check_bool "pwl lb nontrivial" true (rep.lower_bound >= 0.8 *. 38.)

let test_density_lower_bounds () =
  let p = Power.alpha 2. in
  let e = Offline.optimal_energy p hand_instance in
  check_bool "density bound" true (Ss_core.Lower_bounds.density_bound p hand_instance <= e +. 1e-9);
  check_bool "m^(1-a) bound" true
    (Ss_core.Lower_bounds.single_processor_bound ~alpha:2. hand_instance <= e +. 1e-9);
  check_bool "best bound" true (Ss_core.Lower_bounds.best ~alpha:2. hand_instance <= e +. 1e-9)

let test_yds_structure () =
  (* YDS on the classic example: critical interval first. *)
  let inst = Job.instance ~machines:1 [ j 0. 2. 2.; j 0. 6. 2.; j 3. 5. 4. ] in
  let r = Yds.solve inst in
  checkf "max speed" 2. (Yds.max_speed r);
  checkf "energy" 12. (Yds.energy (Power.alpha 2.) r);
  check_bool "levels non-increasing" true
    (let rec ok = function
       | a :: (b :: _ as rest) -> a.Yds.speed >= b.Yds.speed -. 1e-9 && ok rest
       | _ -> true
     in
     ok r.levels)

(* Exact end-to-end: materialize the schedule in exact rationals and audit
   it with zero tolerance — certifies the Lemma 2 packing itself. *)
let test_exact_schedule_materialization () =
  List.iter
    (fun seed ->
      let inst =
        G.uniform ~seed:(seed + 70) ~machines:3 ~jobs:8 ~horizon:12. ~max_work:4. ()
      in
      match Reference.check_exact inst (Offline.solve_exact inst) with
      | [] -> ()
      | problems ->
        Alcotest.failf "seed %d: %d exact problems" seed (List.length problems))
    [ 1; 2; 3 ]

(* Uniform seed 71's exact replay, packed, with one mutation at a time:
   the rational audit names each, including a start 2^-40 before a
   release that a 1e-9-relative float audit lets through, and reports a
   processor or job id out of range instead of raising. *)
let test_exact_audit_rejections () =
  let inst = G.uniform ~seed:71 ~machines:3 ~jobs:8 ~horizon:12. ~max_work:4. () in
  let m = inst.machines and n = Array.length inst.jobs in
  let segs = Reference.exact_segments ~machines:m (Offline.solve_exact inst) in
  Alcotest.(check int) "unmutated: no problems" 0 (List.length (Reference.audit_exact inst segs));
  let module Q = Ss_numeric.Rational in
  let overlap (a : Reference.Exact_audit.segment) (b : Reference.Exact_audit.segment) =
    Q.compare a.t0 b.t1 < 0 && Q.compare b.t0 a.t1 < 0
  in
  let busy p (s : Reference.Exact_audit.segment) =
    List.exists (fun (o : Reference.Exact_audit.segment) -> o.proc = p && overlap o s) segs
  in
  let reports name mutated matches =
    check_bool name true (List.exists matches (Reference.audit_exact inst mutated))
  in
  let replace s s' = List.map (fun o -> if o == s then s' else o) segs in
  let s0 = List.hd segs in
  reports "dropped segment: wrong work" (List.tl segs) (function
    | Reference.Wrong_work { job; _ } -> job = s0.job
    | _ -> false);
  let at_release =
    List.find
      (fun (s : Reference.Exact_audit.segment) ->
        Q.equal s.t0 (Q.of_float inst.jobs.(s.job).release))
      segs
  in
  let early = { at_release with t0 = Q.sub at_release.t0 (Q.of_float (Float.ldexp 1. (-40))) } in
  reports "start 2^-40 early: outside window" (replace at_release early) (function
    | Reference.Outside_window j -> j = early.job
    | _ -> false);
  let as_float (s : Reference.Exact_audit.segment) =
    { Reference.Float_audit.job = s.job; proc = s.proc; t0 = Q.to_float s.t0;
      t1 = Q.to_float s.t1; speed = Q.to_float s.speed }
  in
  let float_segs = List.map as_float (replace at_release early) in
  check_bool "start 2^-40 early: within a 1e-9 float audit's slack" false
    (List.exists
       (function Reference.Outside_window _ -> true | _ -> false)
       (Reference.Float_audit.check ~tol:1e-9 ~work_tol:1e-9 ~machines:m
          ~work:(Reference.Float_audit.work_by_job ~jobs:n float_segs)
          inst float_segs));
  let moved, target =
    List.find_map
      (fun (s : Reference.Exact_audit.segment) ->
        List.find_map
          (fun p -> if p <> s.proc && busy p s then Some (s, p) else None)
          (List.init m Fun.id))
      segs
    |> Option.get
  in
  reports "moved onto a busy processor: overlap" (replace moved { moved with proc = target })
    (function Reference.Processor_overlap { proc; _ } -> proc = target | _ -> false);
  let copied, idle =
    List.find_map
      (fun (s : Reference.Exact_audit.segment) ->
        List.find_map (fun p -> if busy p s then None else Some (s, p)) (List.init m Fun.id))
      segs
    |> Option.get
  in
  reports "copied onto an idle processor: parallel execution"
    ({ copied with proc = idle } :: segs)
    (function Reference.Parallel_execution { job; _ } -> job = copied.job | _ -> false);
  reports "processor m: reported" (replace s0 { s0 with proc = m }) (function
    | Reference.Unknown_processor p -> p = m
    | _ -> false);
  reports "job n: reported" (replace s0 { s0 with job = n }) (function
    | Reference.Unknown_job j -> j = n
    | _ -> false)

(* What the float and exact packers emit for one instance, in emission
   order. *)
let emitted pack =
  let segs = ref [] in
  pack ~emit:(fun job proc t0 t1 speed -> segs := (job, proc, t0, t1, speed) :: !segs);
  List.rev !segs

(* The float and exact materializations describe the same schedule. *)
let test_float_vs_exact_segments () =
  let inst = hand_instance in
  let machines = inst.machines in
  let f = Offline.run inst and e = Offline.solve_exact inst in
  let float_segs =
    emitted (Offline.F.pack ~machines ~first:0 ~last:(Array.length f.breakpoints - 2) f)
  in
  let exact_segs =
    emitted (Offline.Exact.pack ~machines ~first:0 ~last:(Array.length e.breakpoints - 2) e)
  in
  Alcotest.(check int) "segment count" (List.length exact_segs) (List.length float_segs);
  List.iter2
    (fun (job, proc, t0, t1, _) (job', proc', t0', t1', _) ->
      Alcotest.(check int) "job" job' job;
      Alcotest.(check int) "proc" proc' proc;
      Alcotest.(check (float 1e-9)) "t0" (Ss_numeric.Rational.to_float t0') t0;
      Alcotest.(check (float 1e-9)) "t1" (Ss_numeric.Rational.to_float t1') t1)
    float_segs exact_segs

(* A hand-built run on the one-interval grid [0, 1): each phase is its
   speed, its reserved processors and its pieces (job, time). *)
let hand_run phases =
  {
    (Offline.run hand_instance) with
    Offline.F.breakpoints = [| 0.; 1. |];
    schedule_phases =
      List.map
        (fun (speed, procs, pieces) ->
          {
            Offline.F.members = List.map fst pieces;
            speed;
            procs = [| procs |];
            alloc = List.map (fun (i, t) -> (i, 0, t)) pieces;
          })
        phases;
  }

(* The packer refuses a block that outgrows its reservation and a stack of
   reservations taller than the machine count, through [F.pack] and through
   [schedule_of_run]'s per-processor collection alike. *)
let test_packer_failures () =
  let fails msg ~machines run =
    let expect name f =
      match f () with
      | exception Failure m when m = msg -> ()
      | exception e -> Alcotest.failf "%s: raised %s, expected Failure %S" name (Printexc.to_string e) msg
      | () -> Alcotest.failf "%s: returned, expected Failure %S" name msg
    in
    expect "F.pack" (fun () ->
        Offline.F.pack ~machines ~first:0 ~last:0 ~emit:(fun _ _ _ _ _ -> ()) run);
    expect "schedule_of_run" (fun () -> ignore (Offline.schedule_of_run ~machines run))
  in
  (* Two full-length pieces need two processors; the phase reserved one. *)
  fails "Offline: packing exceeded reservation" ~machines:2
    (hand_run [ (1., 1, [ (0, 1.); (1, 1.) ]) ]);
  (* Two blocks of two processors each, on three machines. *)
  fails "Offline: reservations exceed machines" ~machines:3
    (hand_run [ (2., 2, [ (0, 1.); (1, 1.) ]); (1., 2, [ (2, 1.); (3, 1.) ]) ])

(* Nothing on the offline path allocates per machine.  With more machines
   than jobs no reservation reaches m, so every job runs alone at its
   density, and a sweep-sized instance solves as it does at m = n. *)
let test_huge_machine_count () =
  let machines = 1 lsl 40 in
  let inst = Job.instance ~machines [ j 0. 4. 8.; j 0. 2. 6.; j 1. 3. 2. ] in
  let sched, _ = Offline.solve inst in
  check_bool "feasible" true (Schedule.is_feasible inst sched);
  let seg job proc t0 t1 speed = { Schedule.job; proc; t0; t1; speed } in
  check_bool "segments" true
    (Reference.same_segments
       [
         seg 1 0 0. 1. 3.; seg 1 0 1. 2. 3.; seg 0 0 2. 3. 2.; seg 0 0 3. 4. 2.;
         seg 0 1 0. 1. 2.; seg 0 1 1. 2. 2.; seg 2 1 2. 3. 1.; seg 2 2 1. 2. 1.;
       ]
       (Array.to_list (Schedule.segments sched)));
  let n = 150 in
  let at_n = G.heavy ~shape:1.1 ~seed:7 ~machines:n ~jobs:n ~horizon:500. () in
  let run = Offline.run at_n in
  check_bool "sweep-sized" true
    (n * (Array.length run.breakpoints - 1) >= Offline.F.compress_threshold);
  let huge = { at_n with machines } in
  let sched, _ = Offline.solve huge in
  check_bool "sweep-sized: feasible" true (Schedule.is_feasible huge sched);
  check_bool "sweep-sized: segments of m = n" true
    (Reference.same_segments
       (Array.to_list (Schedule.segments (Offline.schedule_of_run ~machines:n run)))
       (Array.to_list (Schedule.segments sched)))

(* The segments production schedules carry ([schedule_of_run] on the float
   run) against the exact packing of the exact replay, both in
   (proc, t0, job) order. *)
let test_production_vs_exact_packing () =
  let uniform ?integral ~machines ~jobs ~horizon ~max_work seeds =
    List.map
      (fun seed ->
        ( Printf.sprintf "uniform n=%d m=%d s=%d" jobs machines seed,
          G.uniform ?integral ~seed ~machines ~jobs ~horizon ~max_work () ))
      seeds
  in
  let instances =
    (("hand", hand_instance)
     :: uniform ~machines:3 ~jobs:8 ~horizon:12. ~max_work:4. [ 71; 72; 73 ])
    @ uniform ~machines:4 ~jobs:20 ~horizon:20. ~max_work:5. [ 1; 2; 3; 4; 5 ]
    @ uniform ~integral:false ~machines:3 ~jobs:12 ~horizon:16. ~max_work:6. [ 1; 2; 3 ]
  in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b) in
  List.iter
    (fun (name, (inst : Job.instance)) ->
      let machines = inst.machines in
      let production =
        Array.to_list (Schedule.segments (Offline.schedule_of_run ~machines (Offline.run inst)))
      in
      let q = Ss_numeric.Rational.to_float in
      let exact =
        Reference.exact_segments ~machines (Offline.solve_exact inst)
        |> List.map (fun (s : Reference.Exact_audit.segment) ->
               (s.proc, q s.t0, s.job, q s.t1, q s.speed))
        |> List.sort (fun (p1, a1, j1, _, _) (p2, a2, j2, _, _) ->
               match Int.compare p1 p2 with
               | 0 -> (match Float.compare a1 a2 with 0 -> Int.compare j1 j2 | c -> c)
               | c -> c)
      in
      Alcotest.(check int) (name ^ ": segment count") (List.length exact) (List.length production);
      List.iter2
        (fun (s : Schedule.segment) (proc, t0, job, t1, speed) ->
          Alcotest.(check int) (name ^ ": job") job s.job;
          Alcotest.(check int) (name ^ ": proc") proc s.proc;
          check_bool (name ^ ": t0, t1, speed within 1e-9") true
            (close s.t0 t0 && close s.t1 t1 && close s.speed speed))
        production exact)
    instances

(* --- properties --------------------------------------------------------- *)

let prop_feasible =
  QCheck.Test.make ~count:60 ~name:"offline schedule always feasible" QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 1) in
      Schedule.is_feasible inst (Offline.optimal_schedule inst))

let prop_within_fw_band =
  QCheck.Test.make ~count:25 ~name:"offline energy inside Frank-Wolfe band"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 100) in
      let p = Power.alpha 2.5 in
      let e = Offline.optimal_energy p inst in
      let fw = Ss_convex.Frank_wolfe.solve ~iterations:150 p inst in
      e <= fw.energy +. (5e-3 *. fw.energy) && e >= fw.lower_bound -. (5e-3 *. fw.energy))

let prop_beats_heuristics =
  QCheck.Test.make ~count:30 ~name:"OPT below every non-migratory heuristic"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 200) in
      let p = Power.alpha 3. in
      let opt = Offline.optimal_energy p inst in
      List.for_all
        (fun strat -> Ss_online.Nonmigratory.energy strat p inst >= opt -. (1e-6 *. opt))
        [ Ss_online.Nonmigratory.Round_robin; Least_work; Random 5 ])

let prop_float_vs_exact_speeds =
  QCheck.Test.make ~count:15 ~name:"float and exact replays agree" QCheck.small_nat
    (fun seed ->
      let inst =
        G.uniform ~seed:(seed + 17) ~machines:2 ~jobs:6 ~horizon:10. ~max_work:4. ()
      in
      let run = Offline.run inst in
      let exact = Offline.solve_exact inst in
      List.length run.schedule_phases = List.length exact.schedule_phases
      && List.for_all2
           (fun (p : Offline.F.phase) (q : Offline.Exact.phase) ->
             Float.abs (p.speed -. Ss_numeric.Rational.to_float q.speed)
             <= 1e-9 *. (1. +. p.speed))
           run.schedule_phases exact.schedule_phases)

(* More machines can only help. *)
let prop_monotone_in_machines =
  QCheck.Test.make ~count:25 ~name:"optimal energy non-increasing in machine count"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 400) in
      let p = Power.alpha 2.5 in
      let with_m m = Offline.optimal_energy p { inst with Job.machines = m } in
      let e1 = with_m inst.Job.machines and e2 = with_m (inst.Job.machines + 1) in
      e2 <= e1 +. (1e-6 *. e1))

(* Relaxing a deadline can only help. *)
let prop_monotone_in_deadlines =
  QCheck.Test.make ~count:25 ~name:"optimal energy non-increasing under deadline relaxation"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 500) in
      let p = Power.alpha 2.5 in
      let relaxed =
        { inst with
          Job.jobs =
            Array.map (fun (j : Job.t) -> { j with Job.deadline = j.deadline +. 1. }) inst.jobs
        }
      in
      Offline.optimal_energy p relaxed <= Offline.optimal_energy p inst *. (1. +. 1e-6))

(* Removing a job can only help. *)
let prop_monotone_in_jobs =
  QCheck.Test.make ~count:25 ~name:"optimal energy non-decreasing when a job is added"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 600) in
      let p = Power.alpha 2.5 in
      let n = Array.length inst.Job.jobs in
      let smaller = { inst with Job.jobs = Array.sub inst.Job.jobs 0 (n - 1) } in
      Offline.optimal_energy p smaller <= Offline.optimal_energy p inst *. (1. +. 1e-6))

(* Splitting a job into two same-window halves relaxes the no-parallelism
   constraint, so it can only help on m >= 2 — and changes nothing on a
   single processor, where parallelism cannot be exploited. *)
let prop_split_relaxes =
  QCheck.Test.make ~count:20 ~name:"splitting a job can only decrease the optimum"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 700) in
      let p = Power.alpha 2. in
      let j0 = inst.Job.jobs.(0) in
      let half = { j0 with Job.work = j0.Job.work /. 2. } in
      let split =
        { inst with Job.jobs = Array.append [| half; half |] (Array.sub inst.Job.jobs 1 (Array.length inst.Job.jobs - 1)) }
      in
      let a = Offline.optimal_energy p inst and b = Offline.optimal_energy p split in
      let relaxes = b <= a +. (1e-6 *. a) in
      let single_a = Offline.optimal_energy p { inst with Job.machines = 1 } in
      let single_b = Offline.optimal_energy p { split with Job.machines = 1 } in
      relaxes && Float.abs (single_a -. single_b) <= 1e-5 *. (1. +. single_a))

let prop_stats_polynomial =
  QCheck.Test.make ~count:30 ~name:"round/removal/phase counts polynomially bounded"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 300) in
      let run = Offline.run inst in
      let n = Array.length inst.jobs in
      (* One accepting round per phase plus at most one per removal; each
         failed round splits one pending set in two and each phase consumes
         one. *)
      run.stats.rounds = (2 * run.stats.phases) - Offline.component_count inst
      && run.stats.phases <= run.stats.rounds
      && run.stats.rounds <= run.stats.phases + run.stats.removals
      && run.stats.grouped <= run.stats.rounds - run.stats.phases
      && run.stats.removals <= n * run.stats.phases
      && run.stats.phases <= n)

(* Works scaled by 2^a, far below the float field's absolute 1e-9 floor,
   are valid instances: each solves to a feasible schedule, and the run is
   bitwise scale-equivariant — speeds scale by 2^a while members, procs and
   every t_kj stay put.  The families are a dense uniform instance, a
   sweep-sized heavy one and a four-component clustered one. *)
let prop_tiny_works_scale_equivariant =
  QCheck.Test.make ~count:24 ~name:"tiny works solve scale-equivariantly"
    QCheck.(pair (int_range 0 2) (int_range (-200) (-30)))
    (fun (family, a) ->
      let inst =
        match family with
        | 0 -> G.uniform ~seed:3 ~machines:2 ~jobs:12 ~horizon:20. ~max_work:4. ()
        | 1 -> G.heavy ~shape:1.5 ~seed:1 ~machines:4 ~jobs:150 ~horizon:500. ()
        | _ ->
          G.clustered ~seed:61 ~machines:4 ~clusters:4 ~jobs_per_cluster:10 ~cluster_span:12.
            ~gap:3. ~max_work:4. ()
      in
      let scaled =
        {
          inst with
          jobs = Array.map (fun (jb : Job.t) -> { jb with work = Float.ldexp jb.work a }) inst.jobs;
        }
      in
      let same = Reference.same_float in
      let base = Offline.run inst and run = Offline.run scaled in
      Schedule.check scaled (Offline.schedule_of_run ~machines:inst.machines run) = []
      && Array.for_all2 same base.breakpoints run.breakpoints
      && List.length base.schedule_phases = List.length run.schedule_phases
      && List.for_all2
           (fun (p : Offline.F.phase) (q : Offline.F.phase) ->
             p.members = q.members && p.procs = q.procs
             && same (Float.ldexp p.speed a) q.speed
             && List.length p.alloc = List.length q.alloc
             && List.for_all2
                  (fun (i, j, t) (i', j', t') -> i = i' && j = j' && same t t')
                  p.alloc q.alloc)
           base.schedule_phases run.schedule_phases)

let () =
  Alcotest.run "offline"
    [
      ( "unit",
        [
          Alcotest.test_case "hand instance" `Quick test_hand_instance;
          Alcotest.test_case "single job" `Quick test_single_job;
          Alcotest.test_case "balanced class" `Quick test_more_jobs_than_machines_single_interval;
          Alcotest.test_case "fewer jobs than machines" `Quick test_fewer_jobs_than_machines;
          Alcotest.test_case "matches YDS at m=1" `Quick test_matches_yds_single_processor;
          Alcotest.test_case "exact replay" `Quick test_exact_replay_agrees;
          Alcotest.test_case "speeds decreasing" `Quick test_speeds_strictly_decreasing;
          Alcotest.test_case "Lemma 3 law" `Quick test_lemma3_processor_law;
          Alcotest.test_case "phase saturation" `Quick test_phase_allocation_saturates;
          Alcotest.test_case "run energy = schedule energy" `Quick test_energy_of_run_matches_schedule;
          Alcotest.test_case "invalid inputs" `Quick test_invalid_inputs;
          Alcotest.test_case "non-finite jobs" `Quick test_non_finite_jobs;
          Alcotest.test_case "empty job array" `Quick test_empty_job_array;
          Alcotest.test_case "general convex P" `Quick test_general_convex_power;
          Alcotest.test_case "scaling invariances" `Quick test_scaling_invariances;
          Alcotest.test_case "permutation invariance" `Quick test_permutation_invariance;
          Alcotest.test_case "PWL lower bound" `Quick test_pwl_lower_bound;
          Alcotest.test_case "density bounds" `Quick test_density_lower_bounds;
          Alcotest.test_case "YDS structure" `Quick test_yds_structure;
          Alcotest.test_case "exact schedule materialization" `Quick test_exact_schedule_materialization;
          Alcotest.test_case "exact audit rejections" `Quick test_exact_audit_rejections;
          Alcotest.test_case "float vs exact segments" `Quick test_float_vs_exact_segments;
          Alcotest.test_case "production vs exact packing" `Quick test_production_vs_exact_packing;
          Alcotest.test_case "packer failures" `Quick test_packer_failures;
          Alcotest.test_case "huge machine count" `Quick test_huge_machine_count;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_feasible;
            prop_within_fw_band;
            prop_beats_heuristics;
            prop_float_vs_exact_speeds;
            prop_monotone_in_machines;
            prop_monotone_in_deadlines;
            prop_monotone_in_jobs;
            prop_split_relaxes;
            prop_stats_polynomial;
            prop_tiny_works_scale_equivariant;
          ] );
    ]

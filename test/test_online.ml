(* Tests for the online algorithms: OA(m) (Theorem 2), AVR(m) (Theorem 3),
   the non-migratory baselines, and the BKP extension. *)

module Job = Ss_model.Job
module Power = Ss_model.Power
module Schedule = Ss_model.Schedule
module Oa = Ss_online.Oa
module Avr = Ss_online.Avr
module G = Ss_workload.Generators

let check_bool = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-6)) msg
let j r d w = Job.make ~release:r ~deadline:d ~work:w

let random_instance ?(machines = 0) seed =
  let rng = Ss_workload.Rng.create ~seed in
  let machines = if machines > 0 then machines else 1 + Ss_workload.Rng.int rng ~bound:4 in
  let n = 3 + Ss_workload.Rng.int rng ~bound:8 in
  G.uniform ~seed:(seed * 104729) ~machines ~jobs:n ~horizon:14. ~max_work:5. ()

(* --- OA(m) -------------------------------------------------------------- *)

let test_oa_single_arrival_equals_opt () =
  (* All jobs released together: OA's first plan is the optimum and is never
     revised. *)
  let inst = Job.instance ~machines:2 [ j 0. 4. 8.; j 0. 2. 6.; j 0. 3. 2. ] in
  let p = Power.alpha 2. in
  let e_oa = Oa.energy p inst in
  let e_opt = Ss_core.Offline.optimal_energy p inst in
  checkf "OA = OPT on single release" e_opt e_oa

let test_oa_replans_once_per_arrival_time () =
  let inst = Job.instance ~machines:1 [ j 0. 10. 2.; j 0. 10. 1.; j 4. 10. 3. ] in
  let _, info = Oa.run inst in
  Alcotest.(check int) "two arrival times" 2 info.replans

let test_oa_known_ratio_example () =
  (* The classic OA adversary (m=1): work arriving while earlier work was
     planned lazily forces energy strictly above optimal. *)
  let inst = Job.instance ~machines:1 [ j 0. 2. 1.; j 1. 2. 1. ] in
  let p = Power.alpha 2. in
  let e_oa = Oa.energy p inst in
  (* OA: speed 1/2 in [0,1); at t=1 remaining 1/2 + 1 over one unit: speed
     3/2.  Energy = 1/4 + 9/4 = 2.5.  OPT: YDS critical interval speed 1 in
     [0,2) with J2 at 1 in [1,2)... E_OPT = 1^2*... = compute: intensity of
     [1,2) is 1, of [0,2) is 1 -> all at speed 1, energy 2. *)
  checkf "OA energy" 2.5 e_oa;
  checkf "OPT energy" 2. (Ss_core.Offline.optimal_energy p inst);
  check_bool "ratio above 1" true (e_oa /. 2. > 1.2);
  check_bool "ratio below bound" true (e_oa /. 2. <= Oa.competitive_bound ~alpha:2.)

let test_oa_bound_value () =
  checkf "alpha^alpha at 2" 4. (Oa.competitive_bound ~alpha:2.);
  checkf "alpha^alpha at 3" 27. (Oa.competitive_bound ~alpha:3.);
  Alcotest.check_raises "alpha guard" (Invalid_argument "Oa.competitive_bound: alpha <= 1")
    (fun () -> ignore (Oa.competitive_bound ~alpha:1.))

let prop_oa_feasible =
  QCheck.Test.make ~count:40 ~name:"OA(m) schedules are feasible" QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 1) in
      Schedule.is_feasible inst (Oa.schedule inst))

let prop_oa_within_bound =
  QCheck.Test.make ~count:40 ~name:"OA(m) ratio <= alpha^alpha" QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 50) in
      let alpha = 2.5 in
      let p = Power.alpha alpha in
      let ratio = Oa.energy p inst /. Ss_core.Offline.optimal_energy p inst in
      ratio >= 1. -. 1e-6 && ratio <= Oa.competitive_bound ~alpha +. 1e-6)

(* Lemma 7/8 flavour: adding a later job never lets OA finish earlier jobs
   slower.  We verify the weaker observable: OA's energy is monotone in the
   job set. *)
let prop_oa_energy_monotone_in_jobs =
  QCheck.Test.make ~count:30 ~name:"OA energy monotone when a job is added"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance ~machines:2 (seed + 400) in
      let n = Array.length inst.jobs in
      let smaller = { inst with Job.jobs = Array.sub inst.jobs 0 (n - 1) } in
      let p = Power.alpha 2. in
      let big = Oa.energy p inst and small = Oa.energy p smaller in
      big >= small -. (1e-6 *. small))

(* Lemma 7 proper, per job: across successive replans, a live job's planned
   constant speed never decreases (work only accumulates, so each replan
   faces at least the density of the last).  Checked on the plan history
   of the session planner and of the reference's scratch planner. *)
let per_job_speeds_monotone (plans : Oa.plan list) =
  let last : (int, float) Hashtbl.t = Hashtbl.create 16 in
  List.for_all
    (fun (p : Oa.plan) ->
      List.for_all
        (fun (id, s) ->
          let ok =
            match Hashtbl.find_opt last id with
            | Some prev -> s >= prev -. (1e-9 *. Float.max 1. prev)
            | None -> true
          in
          Hashtbl.replace last id s;
          ok)
        p.job_speeds)
    plans

let prop_oa_lemma7_speeds_monotone =
  QCheck.Test.make ~count:30
    ~name:"Lemma 7: per-job planned speeds non-decreasing (both paths)"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 800) in
      let _, _, plans_session = Oa.run_detailed inst in
      let _, plans_scratch = Reference.oa inst in
      per_job_speeds_monotone plans_session && per_job_speeds_monotone plans_scratch)

(* Independent reference for OA at m = 1: replan with YDS at every arrival
   and charge the executed prefix — no flow machinery involved. *)
let oa1_reference_energy alpha (inst : Job.instance) =
  let p = Power.alpha alpha in
  let events =
    Array.to_list inst.jobs
    |> List.map (fun (jb : Job.t) -> jb.release)
    |> List.sort_uniq Float.compare
  in
  let horizon_end =
    Array.fold_left (fun acc (jb : Job.t) -> Float.max acc jb.deadline) neg_infinity inst.jobs
  in
  let n = Array.length inst.jobs in
  let remaining = Array.map (fun (jb : Job.t) -> jb.work) inst.jobs in
  let energy = ref 0. in
  let rec go = function
    | [] -> ()
    | now :: rest ->
      let upto = match rest with next :: _ -> next | [] -> horizon_end in
      (* YDS plan for the live jobs, all released "now". *)
      let live =
        List.filter
          (fun i -> inst.jobs.(i).release <= now && remaining.(i) > 1e-9)
          (List.init n Fun.id)
      in
      if live <> [] then begin
        let sub =
          Job.instance ~machines:1
            (List.map
               (fun i ->
                 Job.make ~release:now ~deadline:inst.jobs.(i).deadline ~work:remaining.(i))
               live)
        in
        let plan = Ss_core.Offline.optimal_schedule sub in
        let slice =
          Ss_model.Schedule.segments plan |> Array.to_list
          |> List.filter_map (fun (s : Ss_model.Schedule.segment) ->
                 let t0 = Float.max s.t0 now and t1 = Float.min s.t1 upto in
                 if t1 > t0 then Some { s with t0; t1 } else None)
        in
        List.iter
          (fun (s : Ss_model.Schedule.segment) ->
            let dt = s.t1 -. s.t0 in
            energy := !energy +. (Power.eval p s.speed *. dt);
            let orig = List.nth live s.job in
            remaining.(orig) <- remaining.(orig) -. (dt *. s.speed))
          slice
      end;
      go rest
  in
  go events;
  !energy

let prop_oa1_matches_reference =
  QCheck.Test.make ~count:20 ~name:"OA(1) energy matches a YDS-replanning reference"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance ~machines:1 (seed + 2500) in
      let alpha = 2.5 in
      let a = Oa.energy (Power.alpha alpha) inst in
      let b = oa1_reference_energy alpha inst in
      Float.abs (a -. b) <= 1e-6 *. (1. +. a))

(* --- AVR(m) ------------------------------------------------------------- *)

let test_avr_requires_integral_times () =
  let inst = Job.instance ~machines:1 [ j 0.5 2. 1. ] in
  Alcotest.check_raises "integral"
    (Invalid_argument "Avr.run: AVR(m) requires integral release times and deadlines")
    (fun () -> ignore (Avr.run inst))

let test_avr_uniform_balancing () =
  (* Four equal-density jobs on two machines in one interval: all at Δ'/|M|. *)
  let inst = Job.instance ~machines:2 (List.init 4 (fun _ -> j 0. 2. 2.)) in
  let sched, info = Avr.run inst in
  check_bool "feasible" true (Schedule.is_feasible inst sched);
  checkf "uniform speed" 2. (Schedule.max_speed sched);
  Alcotest.(check int) "no peeling" 0 info.peeled

let test_avr_peels_dense_job () =
  (* One dense job against many light ones: it must get a dedicated CPU. *)
  let inst =
    Job.instance ~machines:2 (j 0. 1. 10. :: List.init 4 (fun _ -> j 0. 1. 0.5))
  in
  let sched, info = Avr.run inst in
  check_bool "feasible" true (Schedule.is_feasible inst sched);
  Alcotest.(check int) "one peel" 1 info.peeled;
  checkf "dense speed" 10. (Schedule.max_speed sched)

(* Fig. 3 semantics: every active job receives exactly its density per unit
   interval. *)
let test_avr_density_per_interval () =
  let inst = Job.instance ~machines:2 [ j 0. 4. 8.; j 1. 3. 4.; j 0. 2. 1. ] in
  let sched, _ = Avr.run inst in
  let segs = Schedule.segments sched in
  Array.iteri
    (fun idx (job : Job.t) ->
      let t0 = int_of_float job.release and t1 = int_of_float job.deadline in
      for t = t0 to t1 - 1 do
        let got =
          Array.to_list segs
          |> List.filter_map (fun (s : Schedule.segment) ->
                 if s.job = idx && s.t0 >= float_of_int t -. 1e-9 && s.t1 <= float_of_int (t + 1) +. 1e-9
                 then Some ((s.t1 -. s.t0) *. s.speed)
                 else None)
          |> Ss_numeric.Kahan.sum_list
        in
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "job %d interval %d gets density" idx t)
          (Job.density job) got
      done)
    inst.jobs

let test_avr_single_processor_energy () =
  (* At m=1 the AVR(m) schedule's energy equals the classical formula
     sum_t Δ_t^alpha. *)
  let inst = Job.instance ~machines:1 [ j 0. 4. 4.; j 1. 3. 2.; j 2. 6. 2. ] in
  let p = Power.alpha 2. in
  checkf "AVR(1) = classical AVR"
    (Avr.single_processor_energy p inst)
    (Avr.energy p inst)

(* The calendar/active-set sweep must reproduce the reference's
   per-interval rescan exactly — same ids in the same ascending order — so
   the two give bitwise-equal schedules and identical peel counts. *)
let prop_avr_sweep_equals_rescan =
  QCheck.Test.make ~count:40 ~name:"AVR streaming sweep = per-interval rescan"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 4100) in
      let s_sweep, i_sweep = Avr.run inst in
      let s_scan, i_scan = Reference.avr inst in
      i_sweep = i_scan && Reference.same_schedule s_sweep s_scan)

let test_avr_bound_values () =
  checkf "bound at 2" 9. (Avr.competitive_bound ~alpha:2.);
  checkf "single bound at 2" 8. (Avr.single_processor_bound ~alpha:2.)

let prop_avr_feasible =
  QCheck.Test.make ~count:40 ~name:"AVR(m) schedules are feasible" QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 700) in
      Schedule.is_feasible inst (Avr.schedule inst))

let prop_avr_within_bound =
  QCheck.Test.make ~count:40 ~name:"AVR(m) ratio <= (2a)^a/2 + 1" QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 800) in
      let alpha = 2. in
      let p = Power.alpha alpha in
      let ratio = Avr.energy p inst /. Ss_core.Offline.optimal_energy p inst in
      ratio >= 1. -. 1e-6 && ratio <= Avr.competitive_bound ~alpha +. 1e-6)

(* Theorem 3 proof chain (experiment E5's invariant, tested here):
   E_AVR(m) <= m^(1-a) (2a)^a/2 E1_OPT + E_OPT and m^(1-a) E1_OPT <= E_OPT. *)
let prop_theorem3_inequality_chain =
  QCheck.Test.make ~count:25 ~name:"Theorem 3 inequality chain" QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 900) in
      let alpha = 2.5 in
      let p = Power.alpha alpha in
      let m = float_of_int inst.Job.machines in
      let e_avr = Avr.energy p inst in
      let e_opt = Ss_core.Offline.optimal_energy p inst in
      let e1_opt = Ss_core.Yds.energy p (Ss_core.Yds.solve inst) in
      let lhs_bound =
        ((m ** (1. -. alpha)) *. Avr.single_processor_bound ~alpha *. e1_opt) +. e_opt
      in
      e_avr <= lhs_bound +. (1e-6 *. lhs_bound)
      && (m ** (1. -. alpha)) *. e1_opt <= e_opt +. (1e-6 *. e_opt))

(* --- non-migratory baselines -------------------------------------------- *)

let test_nonmigratory_assignment_partition () =
  let inst = random_instance ~machines:3 5 in
  List.iter
    (fun strat ->
      let a = Ss_online.Nonmigratory.assign strat inst in
      check_bool
        (Ss_online.Nonmigratory.strategy_name strat)
        true
        (Array.for_all (fun p -> p >= 0 && p < inst.Job.machines) a))
    [ Ss_online.Nonmigratory.Round_robin; Least_work; Random 3 ]

let test_nonmigratory_no_migration () =
  let inst = random_instance ~machines:3 9 in
  let sched = Ss_online.Nonmigratory.solve Ss_online.Nonmigratory.Least_work inst in
  check_bool "feasible" true (Schedule.is_feasible inst sched);
  Alcotest.(check int) "zero migrations" 0
    (Schedule.total_migrations ~jobs:(Array.length inst.Job.jobs) sched)

(* The baselines allocate per used processor, not per machine: on 2^40
   machines round-robin and least-work give every job its own processor,
   as at m = n, and random stays feasible. *)
let test_nonmigratory_huge_machine_count () =
  let inst = random_instance 23 in
  let n = Array.length inst.Job.jobs in
  let at_n = { inst with machines = n } and huge = { inst with machines = 1 lsl 40 } in
  List.iter
    (fun strat ->
      let segments m = Array.to_list (Schedule.segments (Ss_online.Nonmigratory.solve strat m)) in
      check_bool
        (Ss_online.Nonmigratory.strategy_name strat ^ ": segments of m = n")
        true
        (Reference.same_segments (segments at_n) (segments huge)))
    [ Ss_online.Nonmigratory.Round_robin; Least_work ];
  check_bool "random: feasible" true
    (Schedule.is_feasible huge (Ss_online.Nonmigratory.solve (Random 1) huge))

let test_best_random () =
  let inst = random_instance ~machines:2 11 in
  let p = Power.alpha 2. in
  let best = Ss_online.Nonmigratory.best_random ~tries:4 p inst in
  let single = Ss_online.Nonmigratory.energy (Ss_online.Nonmigratory.Random 1) p inst in
  check_bool "best <= sample" true (best <= single +. 1e-9)

let prop_nonmigratory_feasible =
  QCheck.Test.make ~count:30 ~name:"non-migratory schedules feasible" QCheck.small_nat
    (fun seed ->
      let inst = random_instance (seed + 1200) in
      List.for_all
        (fun strat -> Schedule.is_feasible inst (Ss_online.Nonmigratory.solve strat inst))
        [ Ss_online.Nonmigratory.Round_robin; Least_work; Random 7 ])

(* --- exact non-migratory optimum ----------------------------------------- *)

let test_bell_numbers () =
  List.iteri
    (fun k expect ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "B_%d" k)
        expect
        (Ss_online.Nonmig_opt.bell_number k))
    [ 1.; 1.; 2.; 5.; 15.; 52.; 203. ]

(* Brute force over all assignments on tiny instances. *)
let brute_force_nonmig power (inst : Job.instance) =
  let n = Array.length inst.jobs and m = inst.Job.machines in
  let best = ref infinity in
  let assignment = Array.make n 0 in
  let rec go i =
    if i = n then begin
      let total = ref 0. in
      for machine = 0 to m - 1 do
        let members =
          List.filter (fun j -> assignment.(j) = machine) (List.init n Fun.id)
        in
        total := !total +. Ss_online.Nonmig_opt.machine_energy power inst members
      done;
      best := Float.min !best !total
    end
    else
      for machine = 0 to m - 1 do
        assignment.(i) <- machine;
        go (i + 1)
      done
  in
  go 0;
  !best

let test_nonmig_opt_matches_brute_force () =
  List.iter
    (fun seed ->
      let inst = random_instance ~machines:2 (seed + 4000) in
      let inst = { inst with Job.jobs = Array.sub inst.Job.jobs 0 (min 6 (Array.length inst.Job.jobs)) } in
      let p = Power.alpha 2.5 in
      let bb = Ss_online.Nonmig_opt.solve p inst in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "seed %d" seed)
        (brute_force_nonmig p inst)
        bb.energy)
    [ 1; 2; 3; 4 ]

let test_nonmig_opt_schedule_feasible () =
  let inst = random_instance ~machines:2 17 in
  let inst = { inst with Job.jobs = Array.sub inst.Job.jobs 0 (min 8 (Array.length inst.Job.jobs)) } in
  let p = Power.alpha 3. in
  let sched = Ss_online.Nonmig_opt.schedule p inst in
  check_bool "feasible" true (Schedule.is_feasible inst sched);
  Alcotest.(check int) "no migration" 0
    (Schedule.total_migrations ~jobs:(Array.length inst.Job.jobs) sched);
  Alcotest.(check (float 1e-6)) "schedule energy = reported"
    (Ss_online.Nonmig_opt.solve p inst).energy
    (Schedule.energy p sched)

let test_nonmig_guard () =
  let inst = random_instance ~machines:2 3 in
  Alcotest.check_raises "too large"
    (Invalid_argument "Nonmig_opt.solve: instance too large for exact search") (fun () ->
      ignore (Ss_online.Nonmig_opt.solve ~max_jobs:2 (Power.alpha 2.) inst))

(* Sandwich: OPT_mig <= OPT_nonmig <= every heuristic. *)
let prop_nonmig_opt_sandwich =
  QCheck.Test.make ~count:15 ~name:"OPT_mig <= OPT_nonmig <= heuristics"
    QCheck.small_nat
    (fun seed ->
      let inst = random_instance ~machines:2 (seed + 5000) in
      let inst = { inst with Job.jobs = Array.sub inst.Job.jobs 0 (min 7 (Array.length inst.Job.jobs)) } in
      let p = Power.alpha 2.5 in
      let mig = Ss_core.Offline.optimal_energy p inst in
      let nonmig = (Ss_online.Nonmig_opt.solve p inst).energy in
      let heuristics =
        List.map
          (fun s -> Ss_online.Nonmigratory.energy s p inst)
          [ Ss_online.Nonmigratory.Round_robin; Least_work; Random 3 ]
      in
      mig <= nonmig +. (1e-6 *. nonmig)
      && List.for_all (fun h -> nonmig <= h +. (1e-6 *. h)) heuristics)

(* --- BKP ---------------------------------------------------------------- *)

let test_bkp_single_machine_only () =
  let inst = random_instance ~machines:2 3 in
  Alcotest.check_raises "m=1 only" (Invalid_argument "Bkp.run: single-processor algorithm")
    (fun () -> ignore (Ss_online.Bkp.run inst))

let test_bkp_completes_work () =
  let inst = Job.instance ~machines:1 [ j 0. 4. 2.; j 1. 3. 1.; j 2. 6. 2. ] in
  let out = Ss_online.Bkp.run ~steps_per_event:64 inst in
  check_bool "tiny residue" true (out.max_residue <= 1e-3);
  (* Work totals match up to the residue. *)
  let w = Schedule.work_by_job ~jobs:3 out.schedule in
  Array.iteri
    (fun i (job : Job.t) ->
      check_bool
        (Printf.sprintf "job %d done" i)
        true
        (Float.abs (w.(i) -. job.work) <= 1e-3 *. job.work))
    inst.jobs

let test_bkp_bound_value () =
  let b = Ss_online.Bkp.competitive_bound ~alpha:2. in
  Alcotest.(check (float 1e-6)) "2*(2)^2*e^2" (2. *. 4. *. Float.exp 2.) b

let prop_bkp_residue_shrinks =
  QCheck.Test.make ~count:10 ~name:"BKP residue shrinks with refinement" QCheck.small_nat
    (fun seed ->
      let inst = random_instance ~machines:1 (seed + 1500) in
      let coarse = (Ss_online.Bkp.run ~steps_per_event:8 inst).max_residue in
      let fine = (Ss_online.Bkp.run ~steps_per_event:64 inst).max_residue in
      (* Refinement keeps residues small; exact monotonicity is not
         guaranteed by the discretization. *)
      fine <= Float.max 0.02 (coarse +. 1e-9))

let () =
  Alcotest.run "online"
    [
      ( "oa",
        [
          Alcotest.test_case "single arrival = OPT" `Quick test_oa_single_arrival_equals_opt;
          Alcotest.test_case "replans per arrival" `Quick test_oa_replans_once_per_arrival_time;
          Alcotest.test_case "known ratio example" `Quick test_oa_known_ratio_example;
          Alcotest.test_case "bound values" `Quick test_oa_bound_value;
        ] );
      ( "avr",
        [
          Alcotest.test_case "integral times required" `Quick test_avr_requires_integral_times;
          Alcotest.test_case "uniform balancing" `Quick test_avr_uniform_balancing;
          Alcotest.test_case "peels dense job" `Quick test_avr_peels_dense_job;
          Alcotest.test_case "density per interval" `Quick test_avr_density_per_interval;
          Alcotest.test_case "single processor energy" `Quick test_avr_single_processor_energy;
          Alcotest.test_case "bound values" `Quick test_avr_bound_values;
        ] );
      ( "nonmigratory",
        [
          Alcotest.test_case "assignment partition" `Quick test_nonmigratory_assignment_partition;
          Alcotest.test_case "no migration" `Quick test_nonmigratory_no_migration;
          Alcotest.test_case "huge machine count" `Quick test_nonmigratory_huge_machine_count;
          Alcotest.test_case "best random" `Quick test_best_random;
        ] );
      ( "nonmig-opt",
        [
          Alcotest.test_case "bell numbers" `Quick test_bell_numbers;
          Alcotest.test_case "matches brute force" `Quick test_nonmig_opt_matches_brute_force;
          Alcotest.test_case "schedule feasible" `Quick test_nonmig_opt_schedule_feasible;
          Alcotest.test_case "guard" `Quick test_nonmig_guard;
        ] );
      ( "bkp",
        [
          Alcotest.test_case "single machine only" `Quick test_bkp_single_machine_only;
          Alcotest.test_case "completes work" `Quick test_bkp_completes_work;
          Alcotest.test_case "bound value" `Quick test_bkp_bound_value;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_oa_feasible;
            prop_oa_within_bound;
            prop_oa_energy_monotone_in_jobs;
            prop_oa_lemma7_speeds_monotone;
            prop_oa1_matches_reference;
            prop_avr_feasible;
            prop_avr_within_bound;
            prop_avr_sweep_equals_rescan;
            prop_nonmigratory_feasible;
            prop_nonmig_opt_sandwich;
            prop_theorem3_inequality_chain;
            prop_bkp_residue_shrinks;
          ] );
    ]

(* Quickstart: the library in one screen.

     dune exec examples/quickstart.exe

   Build an instance, compute the optimal schedule (the paper's Theorem 1
   algorithm), inspect it, and compare with the online algorithms. *)

module Job = Ss_model.Job
module Power = Ss_model.Power
module Schedule = Ss_model.Schedule

let () =
  (* Three jobs on two variable-speed processors.  Each job is
     (release, deadline, work); migration between processors is allowed. *)
  let inst =
    Job.instance ~machines:2
      [
        Job.make ~release:0. ~deadline:4. ~work:8.;
        Job.make ~release:0. ~deadline:2. ~work:6.;
        Job.make ~release:1. ~deadline:3. ~work:2.;
      ]
  in
  (* Power function: the CMOS cube-root rule P(s) = s^3. *)
  let power = Power.cube in

  (* 1. Offline optimum (Section 2: phases of max-flow computations). *)
  let sched, run = Ss_core.Offline.solve inst in
  Format.printf "optimal schedule (%d speed classes, %d max-flow runs):@.%a@."
    run.stats.phases run.stats.rounds Schedule.pp sched;
  Format.printf "energy: %.4g   feasible: %b@.@."
    (Schedule.energy power sched)
    (Schedule.is_feasible inst sched);

  (* 2. Online algorithms (Section 3). *)
  let e_opt = Schedule.energy power sched in
  let e_oa = Ss_online.Oa.energy power inst in
  let e_avr = Ss_online.Avr.energy power inst in
  Format.printf "OA(m):  energy %.4g, ratio %.3f (guarantee: alpha^alpha = %.0f)@."
    e_oa (e_oa /. e_opt)
    (Ss_online.Oa.competitive_bound ~alpha:3.);
  Format.printf "AVR(m): energy %.4g, ratio %.3f (guarantee: (2a)^a/2+1 = %.0f)@."
    e_avr (e_avr /. e_opt)
    (Ss_online.Avr.competitive_bound ~alpha:3.);

  (* 3. Certify the optimum with the independent convex solver. *)
  let fw = Ss_convex.Frank_wolfe.solve ~iterations:200 power inst in
  Format.printf "@.certification: optimum inside [%.4g, %.4g] (Frank-Wolfe band): %b@."
    fw.lower_bound fw.energy
    (e_opt >= fw.lower_bound -. 1e-6 && e_opt <= fw.energy +. 1e-6)

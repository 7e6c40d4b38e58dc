(* A guided tour through the paper's algorithms on a tiny instance.

     dune exec examples/paper_walkthrough.exe

   Follows Section 2 (Fig. 1 network, Fig. 2 phases) and Section 3
   (Fig. 3 AVR) step by step, printing the quantities the paper
   manipulates: grid intervals, speed classes s_i, processor reservations
   m_ij, allocations t_kj, and the online algorithms' decisions. *)

module Job = Ss_model.Job
module Power = Ss_model.Power
module Schedule = Ss_model.Schedule
module Offline = Ss_core.Offline

let inst =
  (* J0: heavy, wide window; J1: urgent; J2: small, middle window. *)
  Job.instance ~machines:2
    [
      Job.make ~release:0. ~deadline:4. ~work:8.;
      Job.make ~release:0. ~deadline:2. ~work:6.;
      Job.make ~release:1. ~deadline:3. ~work:2.;
    ]

let () =
  Format.printf "=== the instance ===@.%a@." Job.pp_instance inst;

  (* --- Section 2: the offline algorithm -------------------------------- *)
  let run = Offline.run inst in
  let k = Array.length run.breakpoints - 1 in
  Format.printf "@.=== Section 2: interval grid (release times and deadlines) ===@.";
  for j = 0 to k - 1 do
    Format.printf "  I%d = [%g, %g)@." (j + 1) run.breakpoints.(j) run.breakpoints.(j + 1)
  done;

  Format.printf
    "@.=== Fig. 2 execution: %d phases, %d max-flow rounds, %d removals ===@."
    run.stats.phases run.stats.rounds run.stats.removals;
  List.iteri
    (fun i (phase : Offline.F.phase) ->
      Format.printf "@.phase %d: speed class s_%d = %g, members {%s}@." (i + 1) (i + 1)
        phase.speed
        (String.concat ", " (List.map (Printf.sprintf "J%d") phase.members));
      Format.printf "  reserved processors m_%dj per interval: %s@." (i + 1)
        (String.concat " " (Array.to_list (Array.map string_of_int phase.procs)));
      List.iter
        (fun (job, ivl, t) ->
          Format.printf "  t_kj: J%d runs %g time units in I%d@." job t (ivl + 1))
        (List.sort compare phase.alloc))
    run.schedule_phases;

  let sched = Offline.schedule_of_run ~machines:2 run in
  Format.printf "@.=== the optimal schedule (Lemma 2 wrap-packing) ===@.";
  Ss_model.Render.print ~config:{ width = 56; show_speeds = true } sched;
  let e2 = Schedule.energy (Power.alpha 2.) sched in
  Format.printf "energy at P(s)=s^2: %g  (optimal; try to beat it by hand!)@." e2;

  (* --- Lemma 1-3 sanity, visible numbers ------------------------------- *)
  Format.printf "@.=== what the lemmas say about this schedule ===@.";
  Format.printf "  Lemma 1: each job runs at one constant speed (J1 at 3, J0 and J2 at 2).@.";
  Format.printf "  Lemma 2: per interval, each processor holds a single speed.@.";
  Format.printf
    "  Lemma 3: in I2 = [1,2), class {J1} takes min(1 active, 2 free) = 1 processor.@.";

  (* --- Section 3.1: OA(m) ---------------------------------------------- *)
  Format.printf "@.=== Section 3.1: OA(m) (all three jobs arrive at their releases) ===@.";
  let oa_sched, info, plans = Ss_online.Oa.run_detailed inst in
  List.iter
    (fun (p : Ss_online.Oa.plan) ->
      Format.printf "  replan at t=%g (horizon to %g): planned speeds %s@." p.at p.upto
        (String.concat ", "
           (List.map (fun (j, s) -> Printf.sprintf "J%d@%.3g" j s) p.job_speeds)))
    plans;
  Format.printf "  OA energy: %g (ratio %.3f; Theorem 2 guarantees <= %g)@."
    (Schedule.energy (Power.alpha 2.) oa_sched)
    (Schedule.energy (Power.alpha 2.) oa_sched /. e2)
    (Ss_online.Oa.competitive_bound ~alpha:2.);
  Format.printf "  (%d replans, %d max-flow computations total)@." info.replans
    info.total_rounds;

  (* --- Section 3.2: AVR(m) --------------------------------------------- *)
  Format.printf "@.=== Section 3.2: AVR(m) (densities d0=2, d1=3, d2=1) ===@.";
  let avr_sched, avr_info = Ss_online.Avr.run inst in
  Format.printf "  per unit interval each active job gets exactly its density of work;@.";
  Format.printf "  %d dense jobs were peeled onto dedicated processors.@." avr_info.peeled;
  Format.printf "  AVR energy: %g (ratio %.3f; Theorem 3 guarantees <= %g)@."
    (Schedule.energy (Power.alpha 2.) avr_sched)
    (Schedule.energy (Power.alpha 2.) avr_sched /. e2)
    (Ss_online.Avr.competitive_bound ~alpha:2.);

  (* --- certification ---------------------------------------------------- *)
  Format.printf "@.=== certification ===@.";
  let exact = Offline.solve_exact inst in
  Format.printf "  exact-rational replay speeds: %s@."
    (String.concat ", "
       (List.map
          (fun (p : Offline.Exact.phase) -> Ss_numeric.Rational.to_string p.speed)
          exact.schedule_phases));
  let fw = Ss_convex.Frank_wolfe.solve ~iterations:200 (Power.alpha 2.) inst in
  Format.printf "  independent convex band: [%g, %g] contains %g: %b@." fw.lower_bound
    fw.energy e2
    (e2 >= fw.lower_bound -. 1e-6 && e2 <= fw.energy +. 1e-6)

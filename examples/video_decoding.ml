(* Video decoding on a dual-core mobile SoC.

     dune exec examples/video_decoding.exe

   Frames arrive periodically and must decode before the next frame is
   due; work varies by frame type (I/P/B).  This is the classic DVFS
   use-case: the decoder should ride the lowest speed that still makes
   every deadline.  We show the offline optimum's speed plan, how energy
   varies with the power exponent alpha, and what a naive policy
   (always run at peak while work is pending) would burn. *)

module Job = Ss_model.Job
module Power = Ss_model.Power
module Schedule = Ss_model.Schedule
module Table = Ss_numeric.Table

let () =
  let machines = 2 in
  let inst =
    Ss_workload.Generators.video ~seed:99 ~machines ~frames:24 ~period:2. ~base_work:3. ()
  in
  Format.printf "stream: %d frames, period 2, %d cores@.@." (Job.num_jobs inst) machines;

  let sched, run = Ss_core.Offline.solve inst in
  Format.printf "optimal plan uses %d speed levels: %s@.@." run.stats.phases
    (String.concat ", " (List.map (Printf.sprintf "%.3g") (Ss_core.Offline.F.speeds run)));

  (* Speed profile of core 0 across the first frames. *)
  Format.printf "core 0 speed at frame boundaries:@.";
  for t = 0 to 11 do
    let s = (Schedule.speeds_at sched (float_of_int t +. 0.5)).(0) in
    Format.printf "  t=%4.1f  speed %.3f@." (float_of_int t +. 0.5) s
  done;

  (* Energy under different technology exponents.  "naive" = run at the
     peak optimal speed whenever work is pending (no scaling). *)
  let peak = Schedule.max_speed sched in
  let rows =
    List.map
      (fun alpha ->
        let power = Power.alpha alpha in
        let e_opt = Schedule.energy power sched in
        let naive =
          (* Same busy intervals, but always at peak speed: work w takes
             w / peak time at power peak^alpha. *)
          Power.eval power peak *. (Job.total_work inst /. peak)
        in
        [
          Table.cell_f alpha;
          Table.cell_f ~digits:5 e_opt;
          Table.cell_f ~digits:5 naive;
          Table.cell_fixed (naive /. e_opt);
        ])
      [ 1.5; 2.; 2.5; 3. ]
  in
  Format.printf "@.";
  Table.print
    (Table.make
       ~title:"energy: optimal speed scaling vs fixed-peak-speed decoding"
       ~headers:[ "alpha"; "E_OPT"; "E_fixed-peak"; "waste factor" ]
       rows);
  Format.printf
    "@.the cube-root rule (alpha = 3) makes racing at peak speed %.1fx more expensive.@."
    (let power = Power.cube in
     Power.eval power peak *. (Job.total_work inst /. peak) /. Schedule.energy power sched)

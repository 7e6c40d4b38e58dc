(* speedscale — command-line front end.

   Subcommands:
     generate    synthesize a workload trace
     validate    check a trace file
     schedule    offline optimal schedule for a trace (Theorem 1 algorithm)
     simulate    run an online/non-migratory algorithm on a trace
     batch       drive a multi-instance trace through the batch dispatcher
     experiment  regenerate one experiment table (see DESIGN.md section 6)

   Examples:
     speedscale generate -f poisson -s 7 -m 4 -n 20 -o farm.trace
     speedscale schedule farm.trace --alpha 3 --show
     speedscale simulate oa farm.trace --alpha 3
     speedscale experiment e3 *)

open Cmdliner

module Job = Ss_model.Job
module Power = Ss_model.Power
module Schedule = Ss_model.Schedule

(* --- shared arguments --------------------------------------------------- *)

let trace_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Job trace file.")

let alpha_arg =
  Arg.(value & opt float 3. & info [ "alpha" ] ~docv:"A" ~doc:"Power exponent: P(s) = s^A (A > 1).")

let power_of_alpha alpha =
  if alpha <= 1. then `Error (false, "alpha must be > 1") else `Ok (Power.alpha alpha)

(* A trace that cannot be read or parsed is a usage error (exit 124), not
   an uncaught exception: [Arg.file] only checks that the path exists, so
   a directory or an unreadable file reaches [read] as a [Sys_error]. *)
let read_trace read path =
  try `Ok (read path) with
  | Ss_workload.Trace.Parse_error (line, msg) ->
    `Error (false, Printf.sprintf "%s:%d: %s" path line msg)
  | Invalid_argument msg -> `Error (false, Printf.sprintf "%s: %s" path msg)
  | Sys_error msg -> `Error (false, Printf.sprintf "%s: cannot read trace (%s)" path msg)

let load_trace = read_trace Ss_workload.Trace.load

(* --- generate ------------------------------------------------------------ *)

let generate family seed machines jobs horizon max_work output =
  let make () =
    match family with
    | "uniform" ->
      Ss_workload.Generators.uniform ~seed ~machines ~jobs ~horizon ~max_work ()
    | "poisson" ->
      Ss_workload.Generators.poisson ~seed ~machines ~jobs ~rate:(float_of_int jobs /. horizon)
        ~mean_work:(max_work /. 2.) ~slack:2.5 ()
    | "bursty" ->
      Ss_workload.Generators.bursty ~seed ~machines ~bursts:(max 1 (jobs / 4))
        ~jobs_per_burst:4 ~gap:(horizon /. float_of_int (max 1 (jobs / 4))) ~max_work ()
    | "heavy" ->
      Ss_workload.Generators.heavy_tailed ~seed ~machines ~jobs ~horizon ~shape:1.5 ()
    | "staircase" ->
      Ss_workload.Generators.staircase ~machines ~levels:(max 2 (jobs / machines))
        ~copies:machines ()
    | "video" ->
      Ss_workload.Generators.video ~seed ~machines ~frames:jobs ~period:(horizon /. float_of_int jobs)
        ~base_work:max_work ()
    | "long_short" ->
      Ss_workload.Generators.long_short ~seed ~machines ~long_jobs:(jobs / 4)
        ~short_jobs:(jobs - (jobs / 4)) ~horizon ()
    | other -> invalid_arg (Printf.sprintf "unknown family %S" other)
  in
  match make () with
  | exception Invalid_argument msg -> `Error (false, msg)
  | inst ->
    (match output with
    | Some path ->
      Ss_workload.Trace.save path inst;
      Printf.printf "wrote %d jobs on %d machines to %s\n" (Job.num_jobs inst) inst.machines path
    | None -> print_string (Ss_workload.Trace.to_string inst));
    `Ok ()

let generate_cmd =
  let family =
    Arg.(
      value
      & opt string "uniform"
      & info [ "f"; "family" ] ~docv:"FAMILY"
          ~doc:
            "Workload family: uniform, poisson, bursty, heavy, staircase, video, \
             long_short.")
  in
  let seed = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let machines = Arg.(value & opt int 4 & info [ "m"; "machines" ] ~docv:"M" ~doc:"Processors.") in
  let jobs = Arg.(value & opt int 16 & info [ "n"; "jobs" ] ~docv:"N" ~doc:"Job count.") in
  let horizon = Arg.(value & opt float 24. & info [ "horizon" ] ~docv:"H" ~doc:"Time horizon.") in
  let max_work = Arg.(value & opt float 5. & info [ "max-work" ] ~docv:"W" ~doc:"Work scale.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout if absent).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize a workload trace")
    Term.(ret (const generate $ family $ seed $ machines $ jobs $ horizon $ max_work $ output))

(* --- validate ------------------------------------------------------------ *)

let validate path verbose =
  match load_trace path with
  | `Error _ as e -> e
  | `Ok inst ->
    Printf.printf "ok: %d jobs, %d machines, horizon [%g, %g), load factor %.3f%s\n"
      (Job.num_jobs inst) inst.machines (fst (Job.horizon inst)) (snd (Job.horizon inst))
      (Job.load_factor inst)
      (if Job.integral_times inst then "" else " (non-integral times: AVR unavailable)");
    if verbose then
      Format.printf "%a@." Ss_workload.Describe.pp (Ss_workload.Describe.analyze inst);
    `Ok ()

let validate_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print full workload statistics.")
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate a trace file")
    Term.(ret (const validate $ trace_arg $ verbose))

(* --- schedule ------------------------------------------------------------ *)

let schedule path alpha show gantt svg certify =
  match (load_trace path, power_of_alpha alpha) with
  | (`Error _ as e), _ -> e
  | _, (`Error _ as e) -> e
  | `Ok inst, `Ok power ->
    let sched, run = Ss_core.Offline.solve inst in
    let feasible = Schedule.is_feasible inst sched in
    Printf.printf "optimal schedule: energy %.6g at P(s)=s^%g (%d speed classes, %d flow runs)\n"
      (Schedule.energy power sched) alpha run.stats.phases run.stats.rounds;
    Printf.printf "speeds: %s\n"
      (String.concat ", " (List.map (Printf.sprintf "%.4g") (Ss_core.Offline.F.speeds run)));
    Printf.printf "migrations: %d, feasible: %b\n"
      (Schedule.total_migrations ~jobs:(Job.num_jobs inst) sched)
      feasible;
    if show then Format.printf "%a@." Schedule.pp sched;
    if gantt then Ss_model.Render.print sched;
    (match svg with
    | Some file ->
      Ss_model.Render.save_svg file sched;
      Printf.printf "wrote SVG to %s\n" file
    | None -> ());
    let failed =
      if certify then begin
        let report = Ss_core.Certificate.certify ~alpha inst in
        Format.printf "%a@." Ss_core.Certificate.pp report;
        List.filter_map
          (fun (c : Ss_core.Certificate.check) -> if c.passed then None else Some c.name)
          report.checks
      end
      else []
    in
    if not feasible then `Error (false, "internal error: infeasible schedule")
    else if failed <> [] then
      `Error (false, "certificate failed: " ^ String.concat "; " failed)
    else `Ok ()

let schedule_cmd =
  let show = Arg.(value & flag & info [ "show" ] ~doc:"Print every schedule segment.") in
  let gantt = Arg.(value & flag & info [ "gantt" ] ~doc:"Render an ASCII Gantt chart.") in
  let svg =
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG rendering.")
  in
  let certify =
    Arg.(value & flag & info [ "certify" ] ~doc:"Run every independent optimality oracle.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Compute the offline optimal schedule (Theorem 1 algorithm)")
    Term.(ret (const schedule $ trace_arg $ alpha_arg $ show $ gantt $ svg $ certify))

(* --- simulate ------------------------------------------------------------ *)

let simulate algo path alpha show gantt =
  match (load_trace path, power_of_alpha alpha) with
  | (`Error _ as e), _ -> e
  | _, (`Error _ as e) -> e
  | `Ok inst, `Ok power -> (
    let named =
      match algo with
      | "oa" -> Some ("OA(m)", fun () -> Ss_online.Oa.schedule inst)
      | "avr" -> Some ("AVR(m)", fun () -> Ss_online.Avr.schedule inst)
      | "round-robin" ->
        Some ("round-robin + YDS", fun () -> Ss_online.Nonmigratory.solve Round_robin inst)
      | "least-work" ->
        Some ("least-work + YDS", fun () -> Ss_online.Nonmigratory.solve Least_work inst)
      | "random" ->
        Some ("random + YDS", fun () -> Ss_online.Nonmigratory.solve (Random 1) inst)
      | "bkp" when inst.machines = 1 ->
        Some ("BKP", fun () -> (Ss_online.Bkp.run inst).schedule)
      | _ -> None
    in
    match named with
    | None ->
      `Error
        ( false,
          "unknown algorithm (use oa, avr, round-robin, least-work, random, or bkp \
           with a single-machine trace)" )
    | Some (name, run) -> (
      match run () with
      | exception Invalid_argument msg -> `Error (false, msg)
      | sched ->
        let e = Schedule.energy power sched in
        let e_opt = Ss_core.Offline.optimal_energy power inst in
        (* A zero optimum (works whose energy underflows) has no ratio. *)
        let ratio = if e_opt > 0. then Printf.sprintf "%.4f" (e /. e_opt) else "n/a" in
        Printf.printf "%s: energy %.6g, optimal %.6g, ratio %s, feasible %b\n" name e e_opt
          ratio
          (Schedule.is_feasible inst sched);
        if show then Format.printf "%a@." Schedule.pp sched;
        if gantt then Ss_model.Render.print sched;
        `Ok ()))

let simulate_cmd =
  let algo =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ALGO" ~doc:"oa, avr, round-robin, least-work, random, bkp.")
  in
  let trace =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"TRACE" ~doc:"Job trace file.")
  in
  let show = Arg.(value & flag & info [ "show" ] ~doc:"Print every schedule segment.") in
  let gantt = Arg.(value & flag & info [ "gantt" ] ~doc:"Render an ASCII Gantt chart.") in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run an online or non-migratory algorithm on a trace")
    Term.(ret (const simulate $ algo $ trace $ alpha_arg $ show $ gantt))

(* --- profile --------------------------------------------------------------- *)

let profile path alpha output =
  match (load_trace path, power_of_alpha alpha) with
  | (`Error _ as e), _ -> e
  | _, (`Error _ as e) -> e
  | `Ok inst, `Ok power ->
    let sched = Ss_core.Offline.optimal_schedule inst in
    (match output with
    | Some file ->
      Ss_model.Profile.save_csv file power sched;
      Printf.printf "wrote speed/power profile to %s\n" file
    | None -> print_string (Ss_model.Profile.to_csv power sched));
    `Ok ()

let profile_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"CSV output file (stdout if absent).")
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Export the optimal schedule's speed/power time series as CSV")
    Term.(ret (const profile $ trace_arg $ alpha_arg $ output))

(* --- export ----------------------------------------------------------------- *)

let export path alpha what output =
  match (load_trace path, power_of_alpha alpha) with
  | (`Error _ as e), _ -> e
  | _, (`Error _ as e) -> e
  | `Ok inst, `Ok _ ->
    let payload =
      match what with
      | "instance" -> Some (Ss_model.Export.instance_to_string inst)
      | "schedule" ->
        Some (Ss_model.Export.schedule_to_string (Ss_core.Offline.optimal_schedule inst))
      | _ -> None
    in
    (match payload with
    | None -> `Error (false, "export target must be 'instance' or 'schedule'")
    | Some text ->
      (match output with
      | Some file ->
        let oc = open_out file in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
        Printf.printf "wrote %s JSON to %s\n" what file
      | None -> print_endline text);
      `Ok ())

let export_cmd =
  let what =
    Arg.(value & pos 1 string "schedule" & info [] ~docv:"WHAT" ~doc:"instance or schedule.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout if absent).")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the instance or its optimal schedule as JSON")
    Term.(ret (const export $ trace_arg $ alpha_arg $ what $ output))

(* --- batch ----------------------------------------------------------------- *)

let batch path algo alpha domains capacity no_cache verbose =
  let algo_v =
    match algo with
    | "solve" -> `Ok Ss_dispatch.Dispatch.Solve
    | "oa" -> `Ok Ss_dispatch.Dispatch.Oa
    | "avr" -> `Ok Ss_dispatch.Dispatch.Avr
    | _ -> `Error (false, "algo must be solve, oa or avr")
  in
  let sizes_v =
    match (domains, capacity) with
    | Some d, _ when d < 1 -> `Error (false, "--domains must be at least 1")
    | _, Some c when c < 0 -> `Error (false, "--capacity must be at least 0")
    | _ -> `Ok ()
  in
  match
    (algo_v, sizes_v, read_trace Ss_workload.Trace.load_batch path, power_of_alpha alpha)
  with
  | (`Error _ as e), _, _, _ -> e
  | _, (`Error _ as e), _, _ -> e
  | _, _, (`Error _ as e), _ -> e
  | _, _, _, (`Error _ as e) -> e
  | `Ok algo_v, `Ok (), `Ok insts, `Ok power ->
    let d =
      Ss_dispatch.Dispatch.create ?domains
        ?capacity:(if no_cache then Some 0 else capacity)
        ()
    in
    let queries =
      Array.map (fun instance -> { Ss_dispatch.Dispatch.algo = algo_v; instance }) insts
    in
    (* ss_lint: allow wallclock — CLI throughput report only, never enters a schedule *)
    let t0 = Unix.gettimeofday () in
    match Ss_dispatch.Dispatch.batch d queries with
    | exception Invalid_argument msg -> `Error (false, msg)
    | outcomes ->
      let elapsed = Unix.gettimeofday () -. t0 in (* ss_lint: allow wallclock — CLI throughput report *)
      let s = Ss_dispatch.Dispatch.stats d in
      let energy = function
        | Ss_dispatch.Dispatch.Run r -> Ss_core.Offline.energy_of_run power r
        | Ss_dispatch.Dispatch.Sched sched -> Schedule.energy power sched
      in
      if verbose then
        Array.iteri
          (fun i out ->
            Printf.printf "instance %d: %d jobs, %d machines, energy %.6g\n" i
              (Job.num_jobs insts.(i)) insts.(i).machines (energy out))
          outcomes;
      let total = Array.fold_left (fun acc out -> acc +. energy out) 0. outcomes in
      Printf.printf
        "%d queries (%s) in %.1f ms (%.0f q/s): total energy %.6g at P(s)=s^%g\n"
        (Array.length outcomes) algo (elapsed *. 1e3)
        (float_of_int (Array.length outcomes) /. Float.max 1e-9 elapsed)
        total alpha;
      Printf.printf
        "cache: %d hits / %d queries (%.0f%%), %d resident, %d evictions; %d domains\n"
        s.hits s.queries
        (100. *. Ss_dispatch.Dispatch.hit_rate s)
        s.resident s.evictions s.domains;
      `Ok ()

let batch_cmd =
  let algo =
    Arg.(
      value
      & opt string "solve"
      & info [ "a"; "algo" ] ~docv:"ALGO" ~doc:"Query type: solve, oa, or avr.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:"Worker domains per batch, at least 1 (default: cores - 1, at most 8).")
  in
  let capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "capacity" ] ~docv:"C"
          ~doc:"Memo-cache capacity, at least 0 (default 1024).")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the canonical memo cache.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print one line per instance.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Solve a multi-instance trace ('---'-separated traces) through the batch \
          dispatcher (one fork-join over worker domains + canonical memo cache)")
    Term.(
      ret (const batch $ trace_arg $ algo $ alpha_arg $ domains $ capacity $ no_cache $ verbose))

(* --- experiment ----------------------------------------------------------- *)

let experiment id =
  if id = "list" then begin
    List.iter
      (fun (e : Ss_experiments.Common.t) ->
        Printf.printf "%-4s %s [%s]\n" e.id e.title e.validates)
      Ss_experiments.Registry.all;
    `Ok ()
  end
  else if Ss_experiments.Registry.run_one id then `Ok ()
  else `Error (false, Printf.sprintf "unknown experiment %S (try 'list')" id)

let experiment_cmd =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id, or 'list'.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate one experiment table (DESIGN.md section 6)")
    Term.(ret (const experiment $ id))

(* --- main ------------------------------------------------------------------ *)

let () =
  let doc = "multi-processor speed scaling with migration (Albers-Antoniadis-Greiner)" in
  let info = Cmd.info "speedscale" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            generate_cmd; validate_cmd; schedule_cmd; simulate_cmd; profile_cmd;
            export_cmd; batch_cmd; experiment_cmd;
          ]))

(* Benchmark & experiment harness.

     dune exec bench/main.exe             — print every experiment table
                                            (E1..E10, F1..F4, X1) and the
                                            bechamel micro-benchmarks
     dune exec bench/main.exe -- <id>     — one experiment (e.g. e3)
     dune exec bench/main.exe -- micro    — micro-benchmarks only
     dune exec bench/main.exe -- smoke    — tiny-quota subset
                                            (dune build @bench-smoke)
     dune exec bench/main.exe -- tables   — tables only

   Every mode prints tables.  The repository benchmark with end-to-end and
   per-layer metrics is perfbench/ (see BENCHMARK.json).

   The experiment implementations live in lib/experiments (shared with the
   speedscale CLI); this executable is the entry point that regenerates
   everything EXPERIMENTS.md reports. *)

open Bechamel
open Toolkit

let micro_tests () =
  (* Representative inputs for each substrate. *)
  let flow_instance =
    Ss_workload.Generators.uniform ~seed:1 ~machines:4 ~jobs:40 ~horizon:60. ~max_work:5. ()
  in
  let offline30 =
    Ss_workload.Generators.uniform ~seed:2 ~machines:4 ~jobs:30 ~horizon:50. ~max_work:5. ()
  in
  let offline60 =
    Ss_workload.Generators.uniform ~seed:3 ~machines:4 ~jobs:60 ~horizon:90. ~max_work:5. ()
  in
  let online15 =
    Ss_workload.Generators.poisson ~seed:4 ~machines:4 ~jobs:15 ~rate:1.2 ~mean_work:2.5
      ~slack:2.5 ()
  in
  let avr_inst =
    Ss_workload.Generators.uniform ~seed:5 ~machines:4 ~jobs:30 ~horizon:40. ~max_work:4. ()
  in
  let lp_inst =
    Ss_workload.Generators.uniform ~seed:6 ~machines:2 ~jobs:6 ~horizon:10. ~max_work:3. ()
  in
  let clustered120 =
    Ss_workload.Generators.clustered ~seed:19 ~machines:4 ~clusters:6 ~jobs_per_cluster:20
      ~cluster_span:12. ~gap:4. ~max_work:5. ()
  in
  let power = Ss_model.Power.alpha 3. in
  let big = Ss_numeric.Bigint.of_string (String.make 70 '7') in
  Test.make_grouped ~name:"speedscale"
    [
      Test.make ~name:"offline/n=30,m=4" (Staged.stage (fun () -> Ss_core.Offline.run offline30));
      Test.make ~name:"offline/n=60,m=4" (Staged.stage (fun () -> Ss_core.Offline.run offline60));
      Test.make ~name:"offline-clustered/n=120,m=4"
        (Staged.stage (fun () -> Ss_core.Offline.run clustered120));
      Test.make ~name:"offline-exact/n=8" (Staged.stage (fun () ->
          Ss_core.Offline.solve_exact
            (Ss_workload.Generators.uniform ~seed:7 ~machines:2 ~jobs:8 ~horizon:12. ~max_work:4. ())));
      Test.make ~name:"yds/n=40" (Staged.stage (fun () -> Ss_core.Yds.solve flow_instance));
      Test.make ~name:"oa/n=15,m=4" (Staged.stage (fun () -> Ss_online.Oa.run online15));
      Test.make ~name:"avr/n=30,m=4" (Staged.stage (fun () -> Ss_online.Avr.run avr_inst));
      Test.make ~name:"frank-wolfe/20it,n=15"
        (Staged.stage (fun () ->
             Ss_convex.Frank_wolfe.solve ~iterations:20 power
               (Ss_workload.Generators.uniform ~seed:8 ~machines:3 ~jobs:15 ~horizon:20.
                  ~max_work:4. ())));
      Test.make ~name:"pwl-lp/n=6" (Staged.stage (fun () -> Ss_core.Pwl_baseline.solve ~tangents:5 power lp_inst));
      Test.make ~name:"bigint/mul-230bit" (Staged.stage (fun () -> Ss_numeric.Bigint.mul big big));
      Test.make ~name:"offline-pushrelabel/n=30"
        (Staged.stage (fun () ->
             Ss_core.Offline.F.solve ~flow_algorithm:Ss_core.Offline.F.Push_relabel
               ~machines:4
               (Array.map
                  (fun (j : Ss_model.Job.t) ->
                    { Ss_core.Offline.F.release = j.release; deadline = j.deadline; work = j.work })
                  offline30.Ss_model.Job.jobs)));
      Test.make ~name:"certificate/n=8"
        (Staged.stage (fun () ->
             Ss_core.Certificate.certify ~fw_iterations:40 ~alpha:2.5
               (Ss_workload.Generators.uniform ~seed:9 ~machines:2 ~jobs:8 ~horizon:12.
                  ~max_work:4. ())));
      Test.make ~name:"trace/roundtrip-n=40"
        (Staged.stage (fun () -> Ss_workload.Trace.of_string (Ss_workload.Trace.to_string flow_instance)));
    ]

(* Cheap subset for the @bench-smoke alias: enough to exercise the whole
   measurement pipeline in a fraction of a second. *)
let smoke_tests () =
  let offline30 =
    Ss_workload.Generators.uniform ~seed:2 ~machines:4 ~jobs:30 ~horizon:50. ~max_work:5. ()
  in
  let online15 =
    Ss_workload.Generators.poisson ~seed:4 ~machines:4 ~jobs:15 ~rate:1.2 ~mean_work:2.5
      ~slack:2.5 ()
  in
  Test.make_grouped ~name:"speedscale"
    [
      Test.make ~name:"offline/n=30,m=4" (Staged.stage (fun () -> Ss_core.Offline.run offline30));
      Test.make ~name:"oa/n=15,m=4" (Staged.stage (fun () -> Ss_online.Oa.run online15));
    ]

let run_micro ?(smoke = false) () =
  print_endline
    (if smoke then "== micro-benchmarks (smoke subset, tiny quota) =="
     else "== micro-benchmarks (bechamel, monotonic clock) ==");
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then Benchmark.cfg ~limit:10 ~quota:(Time.second 0.02) ~kde:None ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances (if smoke then smoke_tests () else micro_tests ()) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> t
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let printable =
    List.map
      (fun (name, ns) ->
        let cell =
          if Float.is_nan ns then "n/a"
          else if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
          else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
          else Printf.sprintf "%.0f ns" ns
        in
        [ name; cell ])
      rows
  in
  Ss_numeric.Table.print
    (Ss_numeric.Table.make ~title:"" ~headers:[ "benchmark"; "time/run" ] printable);
  print_newline ()

let usage () =
  Printf.printf "usage: main.exe [tables | micro | smoke | <experiment id>]\n";
  Printf.printf "experiment ids: %s\n" (String.concat " " (Ss_experiments.Registry.ids ()))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
    Ss_experiments.Registry.run_all ();
    run_micro ()
  | [ "tables" ] -> Ss_experiments.Registry.run_all ()
  | [ "micro" ] -> run_micro ()
  | [ "smoke" ] -> run_micro ~smoke:true ()
  | [ id ] ->
    if not (Ss_experiments.Registry.run_one (String.lowercase_ascii id)) then begin
      Printf.printf "unknown experiment id: %s\n" id;
      usage ();
      exit 1
    end
  | _ ->
    usage ();
    exit 1

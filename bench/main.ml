(* Benchmark & experiment harness.

     dune exec bench/main.exe             — print every experiment table
                                            (E1..E10, F1..F4, X1) and the
                                            bechamel micro-benchmarks
     dune exec bench/main.exe -- <id>     — one experiment (e.g. e3)
     dune exec bench/main.exe -- micro    — micro-benchmarks only
     dune exec bench/main.exe -- smoke    — tiny-quota subset
                                            (dune build @bench-smoke)
     dune exec bench/main.exe -- large    — dense-vs-sweep scaling rows
                                            (heavy n=500/1000/2000)
     dune exec bench/main.exe -- throughput
                                          — batch dispatcher against
                                            sequential scratch solves
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

(* Dense round networks vs the sweep oracle on heavy instances
   (overlapping windows, so the grid has Theta(n) intervals and the dense
   Fig. 1 network Theta(n k) edges) — timings plus the dense network's
   edge and flow-work counters (the sweep builds no network). *)
let compressed_counters specs =
  List.map
    (fun (name, seed, machines, jobs, horizon) ->
      let inst = Ss_workload.Generators.heavy ~seed ~machines ~jobs ~horizon () in
      let measure compress =
        let last = ref None in
        let ms =
          Ss_experiments.Common.time_median (fun () ->
              last := Some (Ss_core.Offline.run ~compress inst))
        in
        match !last with
        | Some (r : Ss_core.Offline.F.run) -> (r.stats, ms)
        | None -> assert false
      in
      let dense, t_dense = measure false in
      let _, t_comp = measure true in
      (name, dense, t_dense, t_comp))
    specs

(* The large-n scaling rows behind `make bench-large`: horizon = n/2
   keeps the grid at Theta(n) intervals as n grows. *)
let large_specs =
  [
    ("heavy/n=500,m=8", 7, 8, 500, 250.);
    ("heavy/n=1000,m=8", 7, 8, 1000, 500.);
    ("heavy/n=2000,m=8", 7, 8, 2000, 1000.);
  ]

(* Batch dispatcher throughput: a Generators.batch workload (clustered /
   uniform bases plus canonical-duplicate disguises) solved sequentially
   from scratch per query, then through Dispatch.solve_batch (persistent
   crew, per-domain sessions, canonical memo cache) — queries/sec both
   ways, cache hit rate, steal count, and the bit-identicality check that
   backs the cache's correctness claim. *)
let throughput_counters () =
  let specs = [ ("batch/q=600,n=16,m=4,dup=0.75", 43, 600, 16, 0.75) ] in
  let same_run (a : Ss_core.Offline.F.run) (b : Ss_core.Offline.F.run) =
    a.breakpoints = b.breakpoints
    && List.length a.schedule_phases = List.length b.schedule_phases
    && List.for_all2
         (fun (p : Ss_core.Offline.F.phase) (q : Ss_core.Offline.F.phase) ->
           p.members = q.members && p.speed = q.speed && p.procs = q.procs
           && p.alloc = q.alloc)
         a.schedule_phases b.schedule_phases
  in
  List.map
    (fun (name, seed, count, jobs, duplicate_rate) ->
      let insts =
        Ss_workload.Generators.batch ~duplicate_rate ~seed ~machines:4 ~count ~jobs ()
      in
      let scratch () =
        Array.map (fun i -> Ss_core.Offline.run ~parallel:false i) insts
      in
      let baseline = scratch () in
      let t_seq =
        Ss_experiments.Common.time_median ~repeats:1 (fun () -> ignore (scratch ()))
      in
      let answers = ref [||] in
      let stats = ref None in
      (* The dispatcher (and its crew + empty cache) is created inside the
         timed region: amortizing its setup is part of the claim. *)
      let t_batch =
        Ss_experiments.Common.time_median ~repeats:1 (fun () ->
            let d = Ss_dispatch.Dispatch.create () in
            answers := Ss_dispatch.Dispatch.solve_batch d insts;
            stats := Some (Ss_dispatch.Dispatch.stats d);
            Ss_dispatch.Dispatch.shutdown d)
      in
      let stats = Option.get !stats in
      let identical =
        Array.length !answers = Array.length baseline
        && Array.for_all2 same_run !answers baseline
      in
      (name, count, stats, t_seq, t_batch, identical))
    specs

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

(* `main.exe large`: the end-to-end scaling table for the sweep oracle
   (dense round networks vs the sweep on the n=500/1000/2000 heavy
   rows). *)
let run_large () =
  print_endline "== large-n offline solves: dense round networks vs the sweep oracle ==";
  let counters = compressed_counters large_specs in
  let printable =
    List.map
      (fun (name, (d : Ss_core.Offline.F.stats), t_dense, t_comp) ->
        [
          name;
          string_of_int d.net_edges;
          Printf.sprintf "%.1f ms" t_dense;
          Printf.sprintf "%.1f ms" t_comp;
          Printf.sprintf "%.2fx" (t_dense /. Float.max 1e-9 t_comp);
        ])
      counters
  in
  Ss_numeric.Table.print
    (Ss_numeric.Table.make ~title:""
       ~headers:[ "instance"; "dense edges"; "dense"; "sweep"; "speedup" ]
       printable);
  print_newline ()

(* `main.exe throughput`: batch-dispatch throughput against sequential
   per-query scratch solves on a 600-query clustered batch with a 75%
   canonical-duplicate rate. *)
let run_throughput () =
  print_endline "== batch dispatch: work-stealing crew + canonical memo cache ==";
  let counters = throughput_counters () in
  let printable =
    List.map
      (fun (name, count, (s : Ss_dispatch.Dispatch.stats), t_seq, t_batch, identical) ->
        let qps t = float_of_int count /. Float.max 1e-9 (t /. 1e3) in
        [
          name;
          string_of_int count;
          Printf.sprintf "%.0f%%" (100. *. Ss_dispatch.Dispatch.hit_rate s);
          string_of_int s.steals;
          string_of_int s.domains;
          Printf.sprintf "%.0f" (qps t_seq);
          Printf.sprintf "%.0f" (qps t_batch);
          Printf.sprintf "%.2fx" (t_seq /. Float.max 1e-9 t_batch);
          (if identical then "yes" else "NO");
        ])
      counters
  in
  Ss_numeric.Table.print
    (Ss_numeric.Table.make ~title:""
       ~headers:
         [
           "batch"; "queries"; "hit rate"; "steals"; "domains"; "seq q/s"; "batch q/s";
           "speedup"; "bit-identical";
         ]
       printable);
  print_newline ()

let usage () =
  Printf.printf "usage: main.exe [tables | micro | smoke | large | throughput | <experiment id>]\n";
  Printf.printf "experiment ids: %s\n" (String.concat " " (Ss_experiments.Registry.ids ()))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
    Ss_experiments.Registry.run_all ();
    run_micro ()
  | [ "tables" ] -> Ss_experiments.Registry.run_all ()
  | [ "micro" ] -> run_micro ()
  | [ "smoke" ] -> run_micro ~smoke:true ()
  | [ "large" ] -> run_large ()
  | [ "throughput" ] -> run_throughput ()
  | [ id ] ->
    if not (Ss_experiments.Registry.run_one (String.lowercase_ascii id)) then begin
      Printf.printf "unknown experiment id: %s\n" id;
      usage ();
      exit 1
    end
  | _ ->
    usage ();
    exit 1

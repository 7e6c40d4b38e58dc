(* Benchmark & experiment harness.

     dune exec bench/main.exe             — print every experiment table
                                            (E1..E10, F1..F4, X1) and the
                                            bechamel micro-benchmarks
     dune exec bench/main.exe -- <id>     — one experiment (e.g. e3)
     dune exec bench/main.exe -- micro    — micro-benchmarks only
     dune exec bench/main.exe -- smoke    — tiny-quota subset (CI alias)
     dune exec bench/main.exe -- large    — dense-vs-sweep scaling rows
                                            (n=500/1000/2000; BENCH_4.json)
     dune exec bench/main.exe -- online-large
                                          — streaming vs legacy online
                                            simulation on stream workloads
                                            (n=1e4/1e5/1e6; BENCH_5.json)
     dune exec bench/main.exe -- tables   — tables only

   Appending [--json FILE] to the micro/smoke modes additionally writes a
   machine-readable report (per-benchmark ns/run plus offline-solver round
   and resume counters) so the perf trajectory can be tracked across PRs:
   `make bench-json` produces BENCH_3.json this way.

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
   measurement + JSON pipeline on every `dune runtest` without noticeably
   slowing it down. *)
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

(* Offline-solver round/resume counters on the representative micro
   instances: the part of the JSON report that tracks the solver's
   algorithmic trajectory, not just wall time. *)
let solver_counters ~smoke =
  let specs =
    if smoke then [ ("offline/n=30,m=4", 2, 4, 30, 50.) ]
    else [ ("offline/n=30,m=4", 2, 4, 30, 50.); ("offline/n=60,m=4", 3, 4, 60, 90.) ]
  in
  List.map
    (fun (name, seed, machines, jobs, horizon) ->
      let inst =
        Ss_workload.Generators.uniform ~seed ~machines ~jobs ~horizon ~max_work:5. ()
      in
      (name, (Ss_core.Offline.run inst).stats))
    specs

(* End-to-end OA(m) replanning: the scratch path (fresh solver and full
   materialization per arrival) against the cross-arrival session path,
   plus the session's reuse ledger — the numbers behind the perf_opt
   acceptance criterion. *)
let online_counters ~smoke =
  let specs =
    if smoke then [ ("oa/n=15,m=4", 4, 15) ]
    else [ ("oa/n=15,m=4", 4, 15); ("oa/n=60,m=4", 11, 60) ]
  in
  List.map
    (fun (name, seed, jobs) ->
      let inst =
        Ss_workload.Generators.poisson ~seed ~machines:4 ~jobs ~rate:1.2 ~mean_work:2.5
          ~slack:2.5 ()
      in
      (* Each simulation is ~1ms, so time 5-run batches (median of 9)
         after a warm-up lap; per-run medians at this scale are dominated
         by timer granularity and first-touch noise. *)
      let batch = 5 in
      let timed incremental =
        ignore (Ss_online.Oa.run ~incremental inst);
        Ss_experiments.Common.time_median ~repeats:9 (fun () ->
            for _ = 1 to batch do
              ignore (Ss_online.Oa.run ~incremental inst)
            done)
        /. float_of_int batch
      in
      let t_scratch = timed false in
      let t_session = timed true in
      let _, info = Ss_online.Oa.run ~incremental:true inst in
      (name, info, t_scratch, t_session))
    specs

(* Decomposition layer on clustered workloads: component counts and
   undecomposed vs decomposed (sequential and domain-dispatched) solve
   times — the numbers behind the PR 4 perf_opt acceptance criterion.
   On a single-core container the parallel and sequential decomposed
   times coincide (Pool runs inline); the speedup then comes entirely
   from the superlinear max-flow win of solving k small components. *)
let decomposition_counters ~smoke =
  let specs =
    if smoke then [ ("clustered/n=24,m=4,k=3", 17, 3, 8) ]
    else [ ("clustered/n=120,m=4,k=6", 19, 6, 20); ("clustered/n=60,m=4,k=3", 23, 3, 20) ]
  in
  List.map
    (fun (name, seed, clusters, per) ->
      let inst =
        Ss_workload.Generators.clustered ~seed ~machines:4 ~clusters
          ~jobs_per_cluster:per ~cluster_span:12. ~gap:4. ~max_work:5. ()
      in
      let components = Ss_core.Offline.component_count inst in
      let timed f =
        ignore (f ());
        Ss_experiments.Common.time_median f
      in
      let t_undec = timed (fun () -> ignore (Ss_core.Offline.run ~decompose:false inst)) in
      let t_seq =
        timed (fun () -> ignore (Ss_core.Offline.run ~decompose:true ~parallel:false inst))
      in
      let t_par =
        timed (fun () -> ignore (Ss_core.Offline.run ~decompose:true ~parallel:true inst))
      in
      (name, components, t_undec, t_seq, t_par))
    specs

(* Streaming calendar/active-set/arena event loop against the legacy
   per-interval rescan, on the stream workload (Poisson arrivals, bounded
   laxity — the regime where the active set stays small while n grows).
   Reports wall time, the per-event counters (calendar events consumed,
   active-set operations, segments emitted) and the arena high-water
   mark — the numbers behind the PR 7 perf_opt acceptance criterion.
   [time_legacy = false] skips the legacy run where its O(n·horizon)
   rescan would dominate the whole bench (the n=1e6 row). *)
let online_engine_counters specs =
  List.map
    (fun (name, seed, machines, jobs, rate, mean_work, max_laxity, time_legacy) ->
      let inst =
        Ss_workload.Generators.stream ~seed ~machines ~jobs ~rate ~mean_work ~max_laxity ()
      in
      let stats = Ss_online.Engine.counters () in
      ignore (Ss_online.Avr.run ~streaming:true ~stats inst);
      let repeats = if jobs >= 100_000 then 1 else 3 in
      let t_streaming =
        Ss_experiments.Common.time_median ~repeats (fun () ->
            ignore (Ss_online.Avr.run ~streaming:true inst))
      in
      let t_legacy =
        if time_legacy then
          Some
            (Ss_experiments.Common.time_median ~repeats:1 (fun () ->
                 ignore (Ss_online.Avr.run ~streaming:false inst)))
        else None
      in
      (name, jobs, stats, t_streaming, t_legacy))
    specs

let online_engine_specs ~smoke =
  if smoke then [ ("stream/n=500,m=4", 31, 4, 500, 4., 2., 6., true) ]
  else
    [
      ("stream/n=2000,m=4", 31, 4, 2000, 4., 2., 6., true);
      ("stream/n=5000,m=8", 37, 8, 5000, 8., 2., 6., true);
    ]

(* The scaling rows behind `make bench-online-large` / BENCH_5.json.  The
   legacy rescan is Theta(n * horizon); at n=1e6 that is ~1e11 job checks,
   so the last row times the streaming path only. *)
let online_large_specs =
  [
    ("stream/n=1e4,m=8", 41, 8, 10_000, 4., 2., 6., true);
    ("stream/n=1e5,m=8", 41, 8, 100_000, 4., 2., 6., true);
    ("stream/n=1e6,m=8", 41, 8, 1_000_000, 4., 2., 6., false);
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

let compressed_specs ~smoke =
  if smoke then [ ("heavy/n=120,m=8", 7, 8, 120, 60.) ]
  else [ ("heavy/n=300,m=8", 7, 8, 300, 150.) ]

(* The large-n scaling rows behind `make bench-large` / BENCH_4.json:
   horizon = n/2 keeps the grid at Theta(n) intervals as n grows. *)
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
   backs the cache's correctness claim.  The numbers behind the PR 8
   perf_opt acceptance criterion (BENCH_6.json). *)
let throughput_counters ~smoke =
  let specs =
    if smoke then [ ("batch/q=60,n=10,m=4,dup=0.75", 43, 60, 10, 0.75) ]
    else [ ("batch/q=600,n=16,m=4,dup=0.75", 43, 600, 16, 0.75) ]
  in
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

let emit_json ~file ~mode rows counters online decomposition compressed online_engine
    throughput =
  let open Ss_numeric.Json in
  let num x = if Float.is_finite x then Num x else Null in
  let benchmarks =
    Arr
      (List.map
         (fun (name, ns) -> Obj [ ("name", Str name); ("ns_per_run", num ns) ])
         rows)
  in
  let solver =
    Arr
      (List.map
         (fun (name, (s : Ss_core.Offline.F.stats)) ->
           Obj
             [
               ("instance", Str name);
               ("phases", Num (float_of_int s.phases));
               ("rounds", Num (float_of_int s.rounds));
               ("resumes", Num (float_of_int s.resumes));
               ("removals", Num (float_of_int s.removals));
               ("grouped", Num (float_of_int s.grouped));
               ("edges", Num (float_of_int s.net_edges));
               ("pushes", Num (float_of_int s.net_pushes));
               ("bfs_waves", Num (float_of_int s.net_bfs_waves));
               ("phase_resumes", Num (float_of_int s.phase_resumes));
             ])
         counters)
  in
  let online_section =
    Arr
      (List.map
         (fun (name, (i : Ss_online.Oa.info), t_scratch, t_session) ->
           Obj
             [
               ("instance", Str name);
               ("replans", Num (float_of_int i.replans));
               ("rounds", Num (float_of_int i.total_rounds));
               ("resumes", Num (float_of_int i.resumes));
               ("grouped_rounds", Num (float_of_int i.grouped_rounds));
               ("carried_jobs", Num (float_of_int i.carried_jobs));
               ("monotone_carried", Num (float_of_int i.monotone_carried));
               ("arena_grows", Num (float_of_int i.arena_grows));
               ("scratch_ms", num t_scratch);
               ("session_ms", num t_session);
               ("speedup", num (t_scratch /. Float.max 1e-9 t_session));
             ])
         online)
  in
  let decomposition_section =
    Arr
      (List.map
         (fun (name, components, t_undec, t_seq, t_par) ->
           Obj
             [
               ("instance", Str name);
               ("components", Num (float_of_int components));
               ("domains", Num (float_of_int (Ss_parallel.Pool.default_domains ())));
               ("undecomposed_ms", num t_undec);
               ("sequential_ms", num t_seq);
               ("parallel_ms", num t_par);
               ("seq_speedup", num (t_undec /. Float.max 1e-9 t_seq));
               ("speedup", num (t_undec /. Float.max 1e-9 t_par));
             ])
         decomposition)
  in
  let compressed_section =
    Arr
      (List.map
         (fun (name, (d : Ss_core.Offline.F.stats), t_dense, t_comp) ->
           Obj
             [
               ("instance", Str name);
               ("phases", Num (float_of_int d.phases));
               ("rounds", Num (float_of_int d.rounds));
               ("dense_edges", Num (float_of_int d.net_edges));
               ("dense_pushes", Num (float_of_int d.net_pushes));
               ("dense_bfs_waves", Num (float_of_int d.net_bfs_waves));
               ("dense_ms", num t_dense);
               ("compressed_ms", num t_comp);
               ("speedup", num (t_dense /. Float.max 1e-9 t_comp));
             ])
         compressed)
  in
  let online_engine_section =
    Arr
      (List.map
         (fun (name, jobs, (c : Ss_online.Engine.counters), t_streaming, t_legacy) ->
           Obj
             [
               ("instance", Str name);
               ("jobs", Num (float_of_int jobs));
               ("events", Num (float_of_int c.events));
               ("set_ops", Num (float_of_int c.set_ops));
               ("segments", Num (float_of_int c.emitted));
               ("arena_high_water", Num (float_of_int c.arena_high_water));
               ( "events_per_sec",
                 num (float_of_int c.events /. Float.max 1e-9 (t_streaming /. 1e3)) );
               ("streaming_ms", num t_streaming);
               ("legacy_ms", match t_legacy with Some t -> num t | None -> Null);
               ( "speedup",
                 match t_legacy with
                 | Some t -> num (t /. Float.max 1e-9 t_streaming)
                 | None -> Null );
             ])
         online_engine)
  in
  let throughput_section =
    Arr
      (List.map
         (fun (name, count, (s : Ss_dispatch.Dispatch.stats), t_seq, t_batch, identical) ->
           let qps t = float_of_int count /. Float.max 1e-9 (t /. 1e3) in
           Obj
             [
               ("instance", Str name);
               ("queries", Num (float_of_int count));
               ("distinct", Num (float_of_int s.misses));
               ("hits", Num (float_of_int s.hits));
               ("near_hits", Num (float_of_int s.near_hits));
               ("hit_rate", num (Ss_dispatch.Dispatch.hit_rate s));
               ("evictions", Num (float_of_int s.evictions));
               ("steals", Num (float_of_int s.steals));
               ("domains", Num (float_of_int s.domains));
               ("sequential_ms", num t_seq);
               ("batch_ms", num t_batch);
               ("sequential_qps", num (qps t_seq));
               ("batch_qps", num (qps t_batch));
               ("speedup", num (t_seq /. Float.max 1e-9 t_batch));
               ("bit_identical", Bool identical);
             ])
         throughput)
  in
  let doc =
    Obj
      [
        ("schema", Str "speedscale-bench/v1");
        ("mode", Str mode);
        ("benchmarks", benchmarks);
        ("solver", solver);
        ("online", online_section);
        ("decomposition", decomposition_section);
        ("compressed", compressed_section);
        ("online_engine", online_engine_section);
        ("throughput", throughput_section);
      ]
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n" file

let run_micro ?json_file ?(smoke = false) () =
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
  print_newline ();
  match json_file with
  | None -> ()
  | Some file ->
    emit_json ~file
      ~mode:(if smoke then "smoke" else "micro")
      rows (solver_counters ~smoke) (online_counters ~smoke)
      (decomposition_counters ~smoke)
      (compressed_counters (compressed_specs ~smoke))
      (online_engine_counters (online_engine_specs ~smoke))
      (throughput_counters ~smoke)

(* `main.exe large [--json BENCH_4.json]`: the end-to-end scaling table for
   the sweep oracle (dense round networks vs the sweep on the
   n=500/1000/2000 heavy rows).  Each timing also lands in the
   [benchmarks] section so perf_diff can gate BENCH_4-to-BENCH_4 drift. *)
let run_large ?json_file () =
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
  print_newline ();
  match json_file with
  | None -> ()
  | Some file ->
    let rows =
      List.concat_map
        (fun (name, _, t_dense, t_comp) ->
          [
            ("offline-dense/" ^ name, t_dense *. 1e6);
            ("offline-compressed/" ^ name, t_comp *. 1e6);
          ])
        counters
    in
    emit_json ~file ~mode:"large" rows [] [] [] counters [] []

(* `main.exe online-large [--json BENCH_5.json]`: the end-to-end scaling
   table for the streaming event loop (calendar + incremental active set +
   arena) against the legacy per-interval rescan, on stream workloads at
   n = 1e4/1e5/1e6.  Streaming timings land in [benchmarks] so perf_diff
   can gate BENCH_5-to-BENCH_5 drift; the n=1e6 legacy run is skipped
   (its Theta(n * horizon) rescan would run for hours). *)
let run_online_large ?json_file () =
  print_endline "== large-n online simulation: streaming event loop vs legacy rescan ==";
  let counters = online_engine_counters online_large_specs in
  let printable =
    List.map
      (fun (name, _, (c : Ss_online.Engine.counters), t_streaming, t_legacy) ->
        let events_per_sec = float_of_int c.events /. Float.max 1e-9 (t_streaming /. 1e3) in
        [
          name;
          string_of_int c.events;
          string_of_int c.set_ops;
          string_of_int c.emitted;
          Printf.sprintf "%.2g" events_per_sec;
          Printf.sprintf "%.1f ms" t_streaming;
          (match t_legacy with Some t -> Printf.sprintf "%.1f ms" t | None -> "n/a");
          (match t_legacy with
          | Some t -> Printf.sprintf "%.1fx" (t /. Float.max 1e-9 t_streaming)
          | None -> "n/a");
        ])
      counters
  in
  Ss_numeric.Table.print
    (Ss_numeric.Table.make ~title:""
       ~headers:
         [
           "instance"; "events"; "set ops"; "segments"; "events/s"; "streaming"; "legacy";
           "speedup";
         ]
       printable);
  print_newline ();
  match json_file with
  | None -> ()
  | Some file ->
    let rows =
      List.concat_map
        (fun (name, _, _, t_streaming, t_legacy) ->
          ("online-streaming/" ^ name, t_streaming *. 1e6)
          ::
          (match t_legacy with
          | Some t -> [ ("online-legacy/" ^ name, t *. 1e6) ]
          | None -> []))
        counters
    in
    emit_json ~file ~mode:"online-large" rows [] [] [] [] counters []

(* `main.exe throughput [--json BENCH_6.json]`: batch-dispatch throughput
   against sequential per-query scratch solves on a ≥500-query clustered
   batch with a 75% canonical-duplicate rate.  Both qps figures also land
   in [benchmarks] so perf_diff can gate BENCH_6-to-BENCH_6 drift. *)
let run_throughput ?json_file ?(smoke = false) () =
  print_endline "== batch dispatch: work-stealing crew + canonical memo cache ==";
  let counters = throughput_counters ~smoke in
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
  print_newline ();
  match json_file with
  | None -> ()
  | Some file ->
    let rows =
      List.concat_map
        (fun (name, _, _, t_seq, t_batch, _) ->
          [
            ("dispatch-sequential/" ^ name, t_seq *. 1e6);
            ("dispatch-batch/" ^ name, t_batch *. 1e6);
          ])
        counters
    in
    emit_json ~file ~mode:"throughput" rows [] [] [] [] [] counters

let usage () =
  Printf.printf
    "usage: main.exe [tables | micro | smoke | large | online-large | throughput | <experiment id>] [--json FILE]\n";
  Printf.printf "experiment ids: %s\n" (String.concat " " (Ss_experiments.Registry.ids ()))

let () =
  let rec split_json acc = function
    | [] -> (List.rev acc, None)
    | [ "--json" ] ->
      prerr_endline "--json requires a file argument";
      exit 1
    | "--json" :: file :: rest -> (List.rev acc @ rest, Some file)
    | x :: rest -> split_json (x :: acc) rest
  in
  let modes, json_file = split_json [] (List.tl (Array.to_list Sys.argv)) in
  match modes with
  | [] ->
    Ss_experiments.Registry.run_all ();
    run_micro ?json_file ()
  | [ "tables" ] -> Ss_experiments.Registry.run_all ()
  | [ "micro" ] -> run_micro ?json_file ()
  | [ "smoke" ] -> run_micro ?json_file ~smoke:true ()
  | [ "large" ] -> run_large ?json_file ()
  | [ "online-large" ] -> run_online_large ?json_file ()
  | [ "throughput" ] -> run_throughput ?json_file ()
  | [ id ] ->
    if not (Ss_experiments.Registry.run_one (String.lowercase_ascii id)) then begin
      Printf.printf "unknown experiment id: %s\n" id;
      usage ();
      exit 1
    end
  | _ ->
    usage ();
    exit 1

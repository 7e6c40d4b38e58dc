(* The offline round loop (lib/core/offline.ml): a failed round removes
   every candidate its maximum flow cannot reach from the source, over one
   dense network per component, rewound in place before every round, or
   over the sweep oracle's pair store.

   (a) Agreement: the float run agrees with the exact-rational replay,
       whose schedule passes a zero-tolerance audit; the pipeline's
       schedule energy is the run's.
   (b) Sessions: a warm session workspace reproduces one-shot solves bit
       for bit, counters included, and both equal test/reference.ml's
       whole-instance Fig. 2 solve.
   (c) The parametric invariant, as a QCheck property: accepted phase
       speeds strictly decrease, every component takes 2 phases - 1
       rounds, and on dense- and sweep-sized components alike the round,
       removal and group counters equal those of the pending-set
       reference, which removes the complement of a fresh network's
       minimum-cut source side and starts each phase from the top pending
       set; that reference's output equals the literal Fig. 2 loop's by
       float bits.
   (d) Counters: the rewind and phase-boundary counts and the edge count
       of the dense substrate's layout, zero network counters on the
       sweep, and the pending-set reference's phase and removal counts on
       both.
   (e) The exact-rational replay certifies a float run's partition,
       reservations and speeds.

   That Dinic answers a rewound network exactly as a fresh build is
   checked on the substrate itself (test_flow, "rewound network = fresh
   build"). *)

module Offline = Ss_core.Offline
module Job = Ss_model.Job
module Power = Ss_model.Power
module Rational = Ss_numeric.Rational
module G = Ss_workload.Generators

let close ?(tol = 1e-9) msg expected actual =
  let t = tol *. (1. +. Float.abs expected) in
  if Float.abs (expected -. actual) > t then
    Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

(* --- (a) agreement ------------------------------------------------------ *)

(* The float run against the exact-rational replay, whose materialized
   schedule must pass the zero-tolerance feasibility audit. *)
let test_exact_agree () =
  List.iter
    (fun (machines, seed) ->
      let inst = G.uniform ~seed ~machines ~jobs:8 ~horizon:12. ~max_work:4. () in
      let exact = Offline.solve_exact inst in
      Alcotest.(check int) "exact: schedule problems" 0
        (List.length (Reference.check_exact inst exact));
      let f = Offline.run inst in
      Alcotest.(check int) "exact: phase count"
        (List.length exact.schedule_phases)
        (List.length f.schedule_phases);
      List.iter2
        (fun (a : Offline.F.phase) (b : Offline.Exact.phase) ->
          Alcotest.(check (list int)) "exact: members" b.members a.members;
          Alcotest.(check (array int)) "exact: procs" b.procs a.procs;
          close "float-vs-exact speed" (Rational.to_float b.speed) a.speed)
        f.schedule_phases exact.schedule_phases)
    [ (1, 31); (2, 32); (2, 33); (4, 34) ]

(* The top-level pipeline materializes the run it reports (schedule energy
   is what users see). *)
let test_pipeline_energy_agrees () =
  let p3 = Power.alpha 3. in
  List.iter
    (fun seed ->
      let inst = G.uniform ~seed ~machines:4 ~jobs:15 ~horizon:22. ~max_work:4. () in
      let sched, run = Offline.solve inst in
      let again = Offline.run inst in
      close "pipeline energy" (Offline.energy_of_run p3 run) (Ss_model.Schedule.energy p3 sched);
      Alcotest.(check bool) "pipeline run = Offline.run" true
        (Reference.same_run run again && run.stats = again.stats))
    [ 51; 52; 53 ]

(* --- (b) sessions ------------------------------------------------------- *)

let test_session_and_split () =
  let machines = 4 in
  let session = Offline.F.Session.create () in
  List.iter
    (fun seed ->
      let inst =
        G.clustered ~seed ~machines ~clusters:4 ~jobs_per_cluster:8 ~cluster_span:12. ~gap:3.
          ~max_work:4. ()
      in
      let jobs = Offline.float_jobs inst in
      let tag = Printf.sprintf "split s=%d" seed in
      let fresh = Offline.F.solve ~machines jobs in
      Alcotest.(check (option string)) (tag ^ " = reference") None
        (Reference.offline_mismatch inst fresh);
      (* Twice on the warm workspace: reuse leaks nothing. *)
      for _ = 1 to 2 do
        let warm = Offline.F.Session.solve session ~machines jobs in
        Alcotest.(check bool) (tag ^ " session bitwise") true (Reference.same_run fresh warm);
        Alcotest.(check bool) (tag ^ " session stats") true (fresh.stats = warm.stats)
      done)
    [ 41; 42; 43 ]

(* --- (c) the parametric invariant as a QCheck property ---------------- *)

(* The counters of a solve are fixed by the removal sets of its failed
   rounds.  A failed round's set (the candidates its maximum flow cannot
   reach from the source) is the same for every maximum flow, so the
   pending-set reference, which finds it by a depth-first search on a
   fresh Fig. 1 network every round, must meet the counters of the dense
   oracle's rewound network and of the sweep alike.  Every failed round
   splits one pending set in two and every phase consumes one, so the
   rounds are 2 phases - components.  Times and works are scaled by
   powers of two, which are exact.  The references solve whole instances:
   they run per component. *)
let prop_invariant =
  QCheck.Test.make ~count:60
    ~name:"phase speeds strictly decrease; counters = pending-set reference"
    QCheck.(quad (int_range 0 3) small_nat (int_range (-10) 12) (int_range (-20) 30))
    (fun (log_machines, seed, time_exp, work_exp) ->
      let machines = 1 lsl log_machines and jobs = 8 + (seed mod 9) in
      let inst =
        match seed mod 8 with
        | 0 -> G.uniform ~seed:(seed + 7) ~machines ~jobs ~horizon:16. ~max_work:4. ()
        | 1 ->
          G.uniform ~integral:false ~seed:(seed + 7) ~machines ~jobs ~horizon:16. ~max_work:4.
            ()
        | 2 -> G.heavy ~seed ~machines ~jobs ~horizon:12. ()
        | 3 -> G.poisson ~seed ~machines ~jobs ~rate:1.3 ~mean_work:2. ~slack:2.5 ()
        | 4 ->
          G.clustered ~seed ~machines ~clusters:3 ~jobs_per_cluster:(2 + (jobs / 3))
            ~cluster_span:8. ~gap:2. ~max_work:4. ()
        (* Sweep-sized: one component with n * k >= compress_threshold
           (integral heavy times would keep k below 100). *)
        | 5 ->
          G.uniform ~integral:false ~seed:(seed + 7) ~machines ~jobs:120 ~horizon:20.
            ~max_work:5. ()
        | 6 -> G.heavy ~integral:false ~shape:1.1 ~seed ~machines ~jobs:200 ~horizon:100. ()
        | _ ->
          G.stream ~seed ~machines ~jobs:300 ~rate:4. ~mean_work:2. ~max_laxity:8. ()
      in
      let inst =
        {
          inst with
          jobs =
            Array.map
              (fun (j : Job.t) ->
                {
                  Job.release = Float.ldexp j.release time_exp;
                  deadline = Float.ldexp j.deadline time_exp;
                  work = Float.ldexp j.work work_exp;
                })
              inst.jobs;
        }
      in
      let jobs = Offline.float_jobs inst in
      let run = Offline.F.solve ~machines jobs in
      let rec strictly_decreasing = function
        | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
        | _ -> true
      in
      if
        not
          (strictly_decreasing
             (List.map (fun (p : Offline.F.phase) -> p.speed) run.schedule_phases))
      then QCheck.Test.fail_report "phase speeds do not strictly decrease";
      let comps =
        List.map
          (fun ids -> { inst with jobs = Array.map (fun i -> inst.jobs.(i)) ids })
          (Offline.F.components jobs)
      in
      let refs = List.map Reference.offline_pending comps in
      if
        not
          (List.for_all2
             (fun comp pending ->
               Reference.same_run pending (Reference.offline ~rule:Unreachable comp))
             comps refs)
      then QCheck.Test.fail_report "pending-set reference departs from the literal loop";
      let sum f = List.fold_left (fun acc (r : Offline.F.run) -> acc + f r.stats) 0 refs in
      let peak f = List.fold_left (fun acc (r : Offline.F.run) -> max acc (f r.stats)) 0 refs in
      let s = run.stats in
      if s.rounds <> (2 * s.phases) - List.length comps then
        QCheck.Test.fail_reportf "%d rounds for %d phases over %d components" s.rounds
          s.phases (List.length comps);
      s.rounds = sum (fun s -> s.rounds)
      && s.removals = sum (fun s -> s.removals)
      && s.grouped = sum (fun s -> s.grouped)
      && s.largest_group = peak (fun s -> s.largest_group)
      || QCheck.Test.fail_reportf
           "counters rounds %d removals %d grouped %d largest %d; reference %d %d %d %d"
           s.rounds s.removals s.grouped s.largest_group
           (sum (fun s -> s.rounds))
           (sum (fun s -> s.removals))
           (sum (fun s -> s.grouped))
           (peak (fun s -> s.largest_group)))

(* --- (d) counters ------------------------------------------------------- *)

(* One dense-sized and one sweep-sized component. *)
let test_counters () =
  let small = G.uniform ~seed:55 ~machines:4 ~jobs:40 ~horizon:20. ~max_work:5. () in
  let large =
    G.uniform ~integral:false ~seed:55 ~machines:4 ~jobs:120 ~horizon:20. ~max_work:5. ()
  in
  List.iter
    (fun inst ->
      Alcotest.(check int) "one component" 1 (Offline.component_count inst))
    [ small; large ];
  let dense = Offline.run small and sweep = Offline.run large in
  let d = dense.stats and s = sweep.stats in
  Alcotest.(check bool) "substrates by size" true
    (40 * (Array.length dense.breakpoints - 1) < Offline.F.compress_threshold
    && 120 * (Array.length sweep.breakpoints - 1) >= Offline.F.compress_threshold);
  Alcotest.(check bool) "instances have several phases and removals" true
    (d.phases > 1 && d.removals > 0 && s.phases > 1 && s.removals > 0);
  Alcotest.(check int) "dense: phase_resumes = phases - 1" (d.phases - 1) d.phase_resumes;
  Alcotest.(check int) "dense: one rewind per failed round" (d.rounds - d.phases) d.resumes;
  Alcotest.(check bool) "dense: network counted" true
    (d.net_edges > 0 && d.net_pushes > 0 && d.net_bfs_waves > 0);
  (* The dense layout: one source edge per job, one edge per grid
     interval of each job's window, one sink edge per interval. *)
  let b = dense.breakpoints in
  let index t =
    let rec go i = if Float.equal b.(i) t then i else go (i + 1) in
    go 0
  in
  let window_edges =
    Array.fold_left
      (fun acc (j : Job.t) -> acc + index j.deadline - index j.release)
      0 small.jobs
  in
  Alcotest.(check int) "dense: net_edges = n + window edges + k"
    (Array.length small.jobs + window_edges + Array.length b - 1)
    d.net_edges;
  List.iter
    (fun (tag, (r : Offline.F.stats)) ->
      Alcotest.(check bool)
        (tag ^ ": phases <= rounds <= phases + removals")
        true
        (r.phases <= r.rounds && r.rounds <= r.phases + r.removals);
      Alcotest.(check bool)
        (tag ^ ": grouped <= rounds - phases") true
        (r.grouped <= r.rounds - r.phases);
      Alcotest.(check int) (tag ^ ": rounds = 2 phases - 1") ((2 * r.phases) - 1) r.rounds)
    [ ("dense", d); ("sweep", s) ];
  Alcotest.(check (list int)) "sweep: no network counters" [ 0; 0; 0; 0; 0 ]
    [ s.resumes; s.net_edges; s.net_pushes; s.net_bfs_waves; s.phase_resumes ];
  List.iter
    (fun (tag, inst, (r : Offline.F.stats)) ->
      let expected = (Reference.offline_pending inst).stats in
      Alcotest.(check int) (tag ^ ": reference phases") expected.phases r.phases;
      Alcotest.(check int) (tag ^ ": reference removals") expected.removals r.removals)
    [ ("dense", small, d); ("sweep", large, s) ]

(* --- (e) exact-rational replay certifies a float run ------------------- *)

let test_exact_replay () =
  let inst = G.heavy ~seed:17 ~machines:4 ~jobs:14 ~horizon:12. () in
  let float_run = Offline.run inst in
  let exact_run = Offline.solve_exact inst in
  Alcotest.(check int) "exact replay: phase count"
    (List.length float_run.schedule_phases)
    (List.length exact_run.schedule_phases);
  Alcotest.(check int) "exact replay: removals" float_run.stats.removals
    exact_run.stats.removals;
  List.iter2
    (fun (p : Offline.F.phase) (q : Offline.Exact.phase) ->
      Alcotest.(check (list int)) "exact replay: members" p.members q.members;
      Alcotest.(check (array int)) "exact replay: procs" p.procs q.procs;
      close "exact replay: speed" (Rational.to_float q.speed) p.speed)
    float_run.schedule_phases exact_run.schedule_phases

let () =
  Alcotest.run "round loop"
    [
      ( "agreement",
        [
          Alcotest.test_case "exact-rational replay" `Slow test_exact_agree;
          Alcotest.test_case "pipeline energy" `Quick test_pipeline_energy_agrees;
        ] );
      ( "bitwise agreement",
        [ Alcotest.test_case "solve_split + sessions" `Quick test_session_and_split ] );
      ("parametric invariant", [ QCheck_alcotest.to_alcotest prop_invariant ]);
      ("counters", [ Alcotest.test_case "phase counters" `Quick test_counters ]);
      ( "exact replay",
        [ Alcotest.test_case "rational certification" `Quick test_exact_replay ] );
    ]

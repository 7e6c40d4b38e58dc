(* Golden regression tests.

   Frozen expected values for fixed generator seeds: any behavioural drift
   in the generators, the offline algorithm, the online algorithms or the
   energy accounting shows up here as an exact-value mismatch.  The values
   were recorded from the implementation after it was validated against
   the independent oracles (YDS, Frank-Wolfe band, exact rationals), so
   they encode a certified baseline.

   Tolerances are tight (1e-9 relative): these are determinism checks, not
   accuracy checks. *)

module Job = Ss_model.Job
module Power = Ss_model.Power

let close msg expected actual =
  let tol = 1e-9 *. (1. +. Float.abs expected) in
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

let p2 = Power.alpha 2.
let p3 = Power.alpha 3.

let golden_instance () =
  Ss_workload.Generators.uniform ~seed:12345 ~machines:3 ~jobs:12 ~horizon:20. ~max_work:5. ()

let test_generator_fingerprint () =
  let inst = golden_instance () in
  Alcotest.(check int) "jobs" 12 (Job.num_jobs inst);
  close "total work" 25.5433586163644 (Job.total_work inst);
  close "load factor" 2.14577928383595 (Job.load_factor inst)

let test_offline_fingerprint () =
  let inst = golden_instance () in
  let sched, run = Ss_core.Offline.solve inst in
  close "optimal energy alpha=2" 18.1389727232439 (Ss_model.Schedule.energy p2 sched);
  close "optimal energy alpha=3" 13.2319658994329 (Ss_model.Schedule.energy p3 sched);
  Alcotest.(check int) "phases" 6 run.stats.phases;
  (* Rounds summed over the two components' round loops: 2 phases - 1
     each, so 2 * 6 - 2. *)
  Alcotest.(check int) "rounds" 10 run.stats.rounds;
  Alcotest.(check int) "components" 2 (Ss_core.Offline.component_count inst);
  close "peak speed" 0.835800461016282 (List.hd (Ss_core.Offline.F.speeds run))

(* Schedule digests: the float bits of every segment (job, processor,
   start, end, speed) in the schedule's own order. *)
let schedule_digest (s : Ss_model.Schedule.t) =
  let b = Buffer.create 4096 in
  let add_int n = Buffer.add_int64_le b (Int64.of_int n) in
  let add_float x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  add_int (Ss_model.Schedule.machines s);
  add_int (Ss_model.Schedule.num_segments s);
  Array.iter
    (fun (g : Ss_model.Schedule.segment) ->
      add_int g.job;
      add_int g.proc;
      add_float g.t0;
      add_float g.t1;
      add_float g.speed)
    (Ss_model.Schedule.segments s);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* OA(m) and AVR(m) schedule digests on fixed integral instances: the
   energies above only pin the simulators to a tolerance. *)
let online_digest_cases =
  [
    ( "stream s=5 n=200 m=8",
      (fun () ->
        Ss_workload.Generators.stream ~seed:5 ~machines:8 ~jobs:200 ~rate:4. ~mean_work:2.
          ~max_laxity:8. ()),
      "d03d255fbf828195aa06f709fc9728b4",
      "675abdde09d2df65a223a341e9e1d20e" );
    ( "uniform s=7 n=30 m=1",
      (fun () ->
        Ss_workload.Generators.uniform ~seed:7 ~machines:1 ~jobs:30 ~horizon:40. ~max_work:5. ()),
      "4a56365cc7e1b3cc839e5d0ca8b82052",
      "8fcd550e679918226fd8a7b29d6f46ca" );
    ( "clustered s=9 n=24 m=4",
      (fun () ->
        Ss_workload.Generators.clustered ~seed:9 ~machines:4 ~clusters:3 ~jobs_per_cluster:8
          ~cluster_span:10. ~gap:4. ~max_work:4. ()),
      "cb61b204d494754acd65b8f9b71ba959",
      "2663f184d02d32efdd8bcf04aa6be99d" );
    ( "golden uniform n=12 m=3",
      golden_instance,
      "b0661d197e82e0e91a5ae4f5adac1a82",
      "b146d7a464adce8bb2be75f601a54382" );
  ]

let test_online_fingerprint () =
  let inst = golden_instance () in
  close "OA energy" 13.7966509516412 (Ss_online.Oa.energy p3 inst);
  close "AVR energy" 14.757838105981 (Ss_online.Avr.energy p3 inst);
  close "round-robin energy" 19.2766274545286
    (Ss_online.Nonmigratory.energy Ss_online.Nonmigratory.Round_robin p3 inst);
  List.iter
    (fun (name, make, oa, avr) ->
      let inst = make () in
      Alcotest.(check string)
        (name ^ ": OA schedule digest")
        oa
        (schedule_digest (fst (Ss_online.Oa.run inst)));
      Alcotest.(check string)
        (name ^ ": AVR schedule digest")
        avr
        (schedule_digest (fst (Ss_online.Avr.run inst))))
    online_digest_cases

let test_yds_fingerprint () =
  let inst = golden_instance () in
  close "YDS single-processor energy" 85.15547717738
    (Ss_core.Yds.energy p3 (Ss_core.Yds.solve inst))

let test_staircase_fingerprint () =
  (* The staircase is fully deterministic (no RNG), so these values are
     also analytically meaningful: OPT = 976.746..., OA = 2628 at m=2,
     levels=6, copies=2, alpha=3. *)
  let st = Ss_workload.Generators.staircase ~machines:2 ~levels:6 ~copies:2 () in
  close "staircase OPT" 976.74609375 (Ss_core.Offline.optimal_energy p3 st);
  close "staircase OA" 2628. (Ss_online.Oa.energy p3 st)

let test_video_fingerprint () =
  let v = Ss_workload.Generators.video ~seed:99 ~machines:2 ~frames:10 ~period:2. ~base_work:3. () in
  close "video OPT" 386.352877824286 (Ss_core.Offline.optimal_energy p3 v)

(* The ultimate invariant behind all fingerprints: exact-rational replay of
   the golden instance yields bit-compatible phase speeds. *)
let test_exact_replay_fingerprint () =
  let inst = golden_instance () in
  let run = Ss_core.Offline.run inst in
  let exact = Ss_core.Offline.solve_exact inst in
  List.iter2
    (fun (a : Ss_core.Offline.F.phase) (b : Ss_core.Offline.Exact.phase) ->
      close "phase speed float-vs-exact" (Ss_numeric.Rational.to_float b.speed) a.speed)
    run.schedule_phases exact.schedule_phases

(* Whole-run digests: the float bits of the breakpoints and of every
   phase's members, speed, reservations and (job, interval, time)
   allocation, pinned by value.  One set of instances per round substrate:
   below [compress_threshold] the dense Fig. 1 network answers each round,
   above it the sweep oracle (mandatory shares, then least laxity, then
   augmenting paths) does.  The t_kj split among a phase's equal-speed
   members is the oracle's free choice, so a new oracle order re-records
   these digests; phases, speeds and reservations are checked against
   the reference solver elsewhere.  The heavy n = 1000 case is one of the
   repository benchmark's instances, whose own digest leaves the t_kj
   out.  The first four sweep cases need no augmenting path, so they pin
   the sweep's first stage; the stream n = 150 m = 4 case takes 14 over
   its 41 rounds, two of its accepting rounds among them, so its t_kj
   pin the second. *)
let run_digest (r : Ss_core.Offline.F.run) =
  let b = Buffer.create 4096 in
  let add_int n = Buffer.add_int64_le b (Int64.of_int n) in
  let add_float x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  add_int (Array.length r.breakpoints);
  Array.iter add_float r.breakpoints;
  List.iter
    (fun (p : Ss_core.Offline.F.phase) ->
      add_int (List.length p.members);
      List.iter add_int p.members;
      add_float p.speed;
      Array.iter add_int p.procs;
      add_int (List.length p.alloc);
      List.iter
        (fun (i, j, t) ->
          add_int i;
          add_int j;
          add_float t)
        p.alloc)
    r.schedule_phases;
  Digest.to_hex (Digest.string (Buffer.contents b))

module G = Ss_workload.Generators

let dense_digest_cases =
  [
    ( "uniform s=3 m=2",
      (fun () -> G.uniform ~seed:3 ~machines:2 ~jobs:12 ~horizon:18. ~max_work:4. ()),
      "770e4455f4b38bfe66e1da7b39373262" );
    ( "uniform s=4 m=4",
      (fun () -> G.uniform ~seed:4 ~machines:4 ~jobs:14 ~horizon:18. ~max_work:4. ()),
      "f695b75aed9e633c8fce904bdc0a0a89" );
    ( "poisson s=5 m=3",
      (fun () -> G.poisson ~seed:5 ~machines:3 ~jobs:14 ~rate:1.2 ~mean_work:2.5 ~slack:2.2 ()),
      "ad5ce4bc0966cba54a662ccd50eef511" );
    ( "clustered s=6 m=2",
      (fun () ->
        G.clustered ~seed:6 ~machines:2 ~clusters:3 ~jobs_per_cluster:6 ~cluster_span:10. ~gap:3.
          ~max_work:4. ()),
      "4735a1090968a05f7725dde0c8d16e41" );
  ]

let sweep_digest_cases =
  [
    ( "heavy s=1 n=120 m=4",
      (fun () -> G.heavy ~integral:false ~seed:1 ~machines:4 ~jobs:120 ~horizon:40. ()),
      "6e3a8bd4a686b3b7c71c2bb67c571bdb" );
    ( "heavy s=2 n=150 m=8",
      (fun () ->
        G.heavy ~integral:false ~shape:1.1 ~seed:2 ~machines:8 ~jobs:150 ~horizon:500. ()),
      "a7e21bfb775380f49519b5495429770c" );
    ( "stream s=3 n=120 m=8",
      (fun () ->
        G.stream ~integral:false ~seed:3 ~machines:8 ~jobs:120 ~rate:4. ~mean_work:2.
          ~max_laxity:8. ()),
      "468670fff3e2d9bc81c87f3a7d981587" );
    ( "heavy s=7 n=1000 m=8",
      (fun () -> G.heavy ~shape:1.1 ~seed:7 ~machines:8 ~jobs:1000 ~horizon:500. ()),
      "e126517d4198db7957271a539a8d38c4" );
    ( "stream s=5 n=150 m=4",
      (fun () ->
        G.stream ~integral:false ~seed:5 ~machines:4 ~jobs:150 ~rate:4. ~mean_work:2.
          ~max_laxity:8. ()),
      "5145a850959e1414fe5c5db4da72f2cf" );
  ]

let test_run_digests ~sweep cases () =
  List.iter
    (fun (name, make, expected) ->
      let inst = make () in
      let run = Ss_core.Offline.run inst in
      (* The instance must exercise the substrate it stands for. *)
      let n = Job.num_jobs inst and k = Array.length run.breakpoints - 1 in
      Alcotest.(check bool)
        (name ^ ": substrate")
        sweep
        (Ss_core.Offline.component_count inst = 1
        && n * k >= Ss_core.Offline.F.compress_threshold);
      Alcotest.(check string) (name ^ ": run digest") expected (run_digest run))
    cases

let () =
  Alcotest.run "golden"
    [
      ( "fingerprints",
        [
          Alcotest.test_case "generator" `Quick test_generator_fingerprint;
          Alcotest.test_case "offline" `Quick test_offline_fingerprint;
          Alcotest.test_case "online" `Quick test_online_fingerprint;
          Alcotest.test_case "yds" `Quick test_yds_fingerprint;
          Alcotest.test_case "staircase" `Quick test_staircase_fingerprint;
          Alcotest.test_case "video" `Quick test_video_fingerprint;
          Alcotest.test_case "exact replay" `Quick test_exact_replay_fingerprint;
        ] );
      ( "run digests",
        [
          Alcotest.test_case "dense substrate" `Quick
            (test_run_digests ~sweep:false dense_digest_cases);
          Alcotest.test_case "sweep substrate" `Quick
            (test_run_digests ~sweep:true sweep_digest_cases);
        ] );
    ]

(* Tests for the speed-cap feasibility oracle and its min-cut witness. *)

module Job = Ss_model.Job
module F = Ss_core.Feasibility

let check_bool = Alcotest.(check bool)
let j r d w = Job.make ~release:r ~deadline:d ~work:w

let test_trivially_feasible () =
  let inst = Job.instance ~machines:2 [ j 0. 4. 2.; j 0. 4. 2. ] in
  (* Densities 0.5 each; cap 1 is plenty. *)
  check_bool "feasible at 1" true (F.feasible ~speed_cap:1. inst)

let test_single_job_threshold () =
  (* One job of density 2: feasible iff cap >= 2. *)
  let inst = Job.instance ~machines:4 [ j 0. 2. 4. ] in
  check_bool "below" false (F.feasible ~speed_cap:1.9 inst);
  check_bool "above" true (F.feasible ~speed_cap:2.1 inst);
  Alcotest.(check (float 1e-9)) "min peak" 2. (F.min_peak_speed inst)

let test_parallelism_limit () =
  (* Two machines, three unit-window jobs of work 1 each in [0,1):
     aggregate capacity at cap c is 2c, per-job at most c.  Needs
     3 <= 2c, i.e. c >= 1.5. *)
  let inst = Job.instance ~machines:2 (List.init 3 (fun _ -> j 0. 1. 1.)) in
  check_bool "c=1.4 infeasible" false (F.feasible ~speed_cap:1.4 inst);
  check_bool "c=1.6 feasible" true (F.feasible ~speed_cap:1.6 inst);
  Alcotest.(check (float 1e-9)) "min peak 1.5" 1.5 (F.min_peak_speed inst)

let test_witness_contents () =
  (* A hopeless hotspot: four heavy jobs share [0,1) on one machine; a
     background job elsewhere stays out of the witness. *)
  let inst =
    Job.instance ~machines:1
      (j 5. 10. 0.1 :: List.init 4 (fun _ -> j 0. 1. 5.))
  in
  match F.check ~speed_cap:2. inst with
  | F.Feasible -> Alcotest.fail "expected infeasible"
  | F.Infeasible w ->
    check_bool "hotspot jobs in witness" true
      (List.for_all (fun i -> List.mem i w.jobs) [ 1; 2; 3; 4 ]);
    check_bool "background job absent" true (not (List.mem 0 w.jobs));
    check_bool "demand exceeds capacity" true (w.demand > w.capacity)

let test_min_peak_matches_offline_first_phase () =
  List.iter
    (fun seed ->
      let inst =
        Ss_workload.Generators.uniform ~seed ~machines:3 ~jobs:10 ~horizon:14. ~max_work:5. ()
      in
      let speed = F.min_peak_speed inst in
      let _, run = Ss_core.Offline.solve inst in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "seed %d" seed)
        (List.hd (Ss_core.Offline.F.speeds run)) speed)
    [ 1; 2; 3 ]

(* Every cap that is not positive, NaN included, is rejected with one
   typed error by both entry points; an infinite cap admits everything. *)
let test_guards () =
  let rejected = Invalid_argument "Feasibility.check: speed_cap <= 0" in
  Alcotest.check_raises "cap" rejected (fun () ->
      ignore (F.check ~speed_cap:0. (Job.instance ~machines:1 [ j 0. 1. 1. ])));
  let inst =
    Ss_workload.Generators.uniform ~seed:3 ~machines:2 ~jobs:12 ~horizon:20. ~max_work:5. ()
  in
  List.iter
    (fun (name, cap) ->
      Alcotest.check_raises (name ^ " check") rejected (fun () ->
          ignore (F.check ~speed_cap:cap inst));
      Alcotest.check_raises (name ^ " feasible") rejected (fun () ->
          ignore (F.feasible ~speed_cap:cap inst)))
    [ ("NaN", Float.nan); ("0", 0.); ("-1", -1.) ];
  check_bool "infinite cap: check" true
    (match F.check ~speed_cap:Float.infinity inst with F.Feasible -> true | F.Infeasible _ -> false);
  check_bool "infinite cap: feasible" true (F.feasible ~speed_cap:Float.infinity inst)

(* The bracketing property around the optimum's peak speed. *)
let prop_min_peak_is_threshold =
  QCheck.Test.make ~count:40 ~name:"feasible iff cap >= optimum peak speed"
    QCheck.small_nat
    (fun seed ->
      let inst =
        Ss_workload.Generators.uniform ~seed:(seed + 5) ~machines:2 ~jobs:8 ~horizon:12.
          ~max_work:4. ()
      in
      let s = F.min_peak_speed inst in
      F.feasible ~speed_cap:(s *. 1.001) inst && not (F.feasible ~speed_cap:(s *. 0.98) inst))

(* The offline optimal schedule itself fits under its own peak. *)
let prop_optimal_schedule_fits_cap =
  QCheck.Test.make ~count:30 ~name:"optimal schedule speed never exceeds min peak"
    QCheck.small_nat
    (fun seed ->
      let inst =
        Ss_workload.Generators.uniform ~seed:(seed + 50) ~machines:3 ~jobs:9 ~horizon:14.
          ~max_work:4. ()
      in
      let sched = Ss_core.Offline.optimal_schedule inst in
      Ss_model.Schedule.max_speed sched <= F.min_peak_speed inst *. (1. +. 1e-9))

(* Units of work carry no meaning: scaling every work and the cap by the
   same power of two 2^a scales the witness's demand and capacity by 2^a
   and changes nothing else, bit for bit, for tiny and huge works alike. *)
let prop_scale_invariant =
  let module G = Ss_workload.Generators in
  QCheck.Test.make ~count:200 ~name:"verdict and witness invariant under 2^a work scaling"
    QCheck.(quad (int_range 0 2) small_nat (int_range 0 4) (int_range (-200) 200))
    (fun (family, seed, factor, a) ->
      let inst =
        match family with
        | 0 -> G.uniform ~seed ~machines:2 ~jobs:12 ~horizon:20. ~max_work:4. ()
        | 1 -> G.heavy ~shape:1.5 ~seed ~machines:4 ~jobs:40 ~horizon:20. ()
        | _ ->
          G.clustered ~seed ~machines:3 ~clusters:4 ~jobs_per_cluster:6 ~cluster_span:10. ~gap:3.
            ~max_work:4. ()
      in
      let cap = F.min_peak_speed inst *. [| 0.5; 0.9; 0.999; 1.001; 1.5 |].(factor) in
      let scale (j : Job.t) = { j with work = Float.ldexp j.work a } in
      let scaled = { inst with jobs = Array.map scale inst.jobs } in
      let same = Reference.same_float in
      match (F.check ~speed_cap:cap inst, F.check ~speed_cap:(Float.ldexp cap a) scaled) with
      | F.Feasible, F.Feasible -> true
      | F.Infeasible w, F.Infeasible w' ->
        w.jobs = w'.jobs && w.intervals = w'.intervals
        && same (Float.ldexp w.demand a) w'.demand
        && same (Float.ldexp w.capacity a) w'.capacity
      | _ -> false)

let () =
  Alcotest.run "feasibility"
    [
      ( "unit",
        [
          Alcotest.test_case "trivially feasible" `Quick test_trivially_feasible;
          Alcotest.test_case "single job threshold" `Quick test_single_job_threshold;
          Alcotest.test_case "parallelism limit" `Quick test_parallelism_limit;
          Alcotest.test_case "witness" `Quick test_witness_contents;
          Alcotest.test_case "min peak = first phase" `Quick test_min_peak_matches_offline_first_phase;
          Alcotest.test_case "guards" `Quick test_guards;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_min_peak_is_threshold; prop_optimal_schedule_fits_cap; prop_scale_invariant ] );
    ]

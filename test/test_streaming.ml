(* Tests for the streaming simulation layer.

   The event engine (event calendar + incremental active set) must be an
   *invisible* optimization: every simulator has to
   produce the schedule that the pre-streaming loops produced.  Those
   loops — whole-array rescans per unit interval or per arrival, OA's
   scratch planner and BKP's per-sample deadline rebuild — now live only
   in test/reference.ml, and the agreement properties below compare each
   simulator with them by float bits.  These tests also pin the
   calendar structure directly, the metamorphic time-shift
   property and the stream workload generator. *)

module Job = Ss_model.Job
module Power = Ss_model.Power
module Schedule = Ss_model.Schedule
module Engine = Ss_online.Engine
module Avr = Ss_online.Avr
module Oa = Ss_online.Oa
module Bkp = Ss_online.Bkp
module G = Ss_workload.Generators

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let j r d w = Job.make ~release:r ~deadline:d ~work:w

(* The three instance families the agreement grid runs over: independent
   uniform windows, well-separated clusters (idle gaps exercise the
   calendar fast-forward), and heavily overlapping windows (large active
   sets). *)
let uniform_instance seed =
  G.uniform ~seed:(seed + 3) ~machines:(1 + (seed mod 4)) ~jobs:(4 + (seed mod 9))
    ~horizon:16. ~max_work:5. ()

let clustered_instance seed =
  G.clustered ~seed:(seed + 5) ~machines:3 ~clusters:3 ~jobs_per_cluster:4
    ~cluster_span:8. ~gap:5. ~max_work:4. ()

let heavy_instance seed = G.heavy ~seed:(seed + 7) ~machines:4 ~jobs:24 ~horizon:20. ()

let families = [ uniform_instance; clustered_instance; heavy_instance ]

let instance_of seed = List.nth families (seed mod 3) (seed / 3)

(* --- Calendar ----------------------------------------------------------- *)

let test_calendar_buckets_match_arriving () =
  let inst = uniform_instance 11 in
  let cal = Engine.Calendar.make inst in
  for e = 0 to Engine.Calendar.num_events cal - 1 do
    let t = Engine.Calendar.time cal e in
    Alcotest.(check (list int))
      (Printf.sprintf "arrivals at event %d" e)
      (Reference.arriving inst t)
      (Engine.Calendar.arrivals_at cal e)
  done;
  (* Every job appears in exactly one arrival bucket and one expiry
     bucket, at its own release/deadline event. *)
  Array.iteri
    (fun i (jb : Job.t) ->
      let re = Engine.Calendar.release_event cal i in
      let de = Engine.Calendar.deadline_event cal i in
      check_bool "release time interned" true (Engine.Calendar.time cal re = jb.release);
      check_bool "deadline time interned" true (Engine.Calendar.time cal de = jb.deadline);
      check_bool "in arrival bucket" true
        (List.mem i (Engine.Calendar.arrivals_at cal re));
      check_bool "in expiry bucket" true (List.mem i (Engine.Calendar.expiries_at cal de)))
    inst.jobs

let test_calendar_distinguishes_float_noise () =
  (* Two releases a ULP-scale wiggle apart are *different* events: the
     calendar interns exact values, never tolerance-merges, so its buckets
     agree with an exact-equality scan of the job array. *)
  let eps = 1e-9 in
  let inst =
    Job.instance ~machines:1 [ j 0. 4. 1.; j eps 4. 1.; j 1. 5. 2. ]
  in
  let cal = Engine.Calendar.make inst in
  let bucket t =
    match Engine.Calendar.find cal t with
    | Some e -> Engine.Calendar.arrivals_at cal e
    | None -> []
  in
  Alcotest.(check (list int)) "exact 0." [ 0 ] (bucket 0.);
  Alcotest.(check (list int)) "exact eps" [ 1 ] (bucket eps);
  Alcotest.(check (list int)) "scan 0." [ 0 ] (Reference.arriving inst 0.);
  Alcotest.(check (list int)) "scan eps" [ 1 ] (Reference.arriving inst eps);
  check_bool "distinct events" true
    (Engine.Calendar.find cal 0. <> Engine.Calendar.find cal eps);
  Alcotest.(check (option int)) "absent time" None (Engine.Calendar.find cal 0.5)

let test_calendar_event_times_sorted_distinct () =
  let inst = heavy_instance 2 in
  let cal = Engine.Calendar.make inst in
  for e = 1 to Engine.Calendar.num_events cal - 1 do
    check_bool "strictly ascending" true
      (Engine.Calendar.time cal (e - 1) < Engine.Calendar.time cal e)
  done;
  let arrs = Engine.Calendar.arrival_events cal in
  Array.iter
    (fun e -> check_bool "arrival event non-empty" true
        (Engine.Calendar.arrivals_at cal e <> []))
    arrs

(* --- Bitwise agreement with the reference --------------------------------

   The names keep "legacy": the reference is the pre-streaming algorithm
   (per-interval and per-arrival rescans, scratch OA replanning, per-sample
   BKP rebuild). *)

let prop_avr_streaming_bitwise =
  QCheck.Test.make ~count:60 ~name:"AVR streaming = legacy, bit for bit" QCheck.small_nat
    (fun seed ->
      let inst = instance_of seed in
      let s1, i1 = Avr.run inst in
      let s2, i2 = Reference.avr inst in
      i1 = i2 && Reference.same_schedule s1 s2)

let prop_oa_streaming_bitwise =
  QCheck.Test.make ~count:30 ~name:"OA streaming = legacy across planner paths"
    QCheck.small_nat
    (fun seed ->
      let inst = instance_of seed in
      let s1, _, plans1 = Oa.run_detailed inst in
      let s2, plans2 = Reference.oa inst in
      Reference.same_schedule s1 s2 && Reference.same_plans plans1 plans2)

let prop_bkp_streaming_bitwise =
  QCheck.Test.make ~count:15 ~name:"BKP streaming = legacy (schedule and residue)"
    QCheck.small_nat
    (fun seed ->
      let inst =
        G.poisson ~seed:(seed + 21) ~machines:1 ~jobs:6 ~rate:1.1 ~mean_work:2. ~slack:2.5 ()
      in
      let o1 = Bkp.run ~steps_per_event:16 inst in
      let o2 = Reference.bkp ~steps_per_event:16 inst in
      Reference.same_schedule o1.schedule o2.schedule
      && Reference.same_float o1.max_residue o2.max_residue)

(* --- Metamorphic: integral time shift ----------------------------------- *)

let prop_time_shift_invariance_streaming =
  QCheck.Test.make ~count:20 ~name:"integral time shift leaves streaming energies fixed"
    QCheck.small_nat
    (fun seed ->
      let p = Power.alpha 2.5 in
      let inst = uniform_instance (seed + 40) in
      let shifted =
        { inst with Job.jobs = Array.map (Job.shift_time 13.) inst.jobs }
      in
      let relclose a b = Float.abs (a -. b) <= 1e-6 *. (1. +. Float.abs a) in
      relclose
        (Schedule.energy p (fst (Avr.run inst)))
        (Schedule.energy p (fst (Avr.run shifted)))
      && relclose (Oa.energy p inst) (Oa.energy p shifted))

(* --- Stream generator --------------------------------------------------- *)

let prop_stream_generator_shape =
  QCheck.Test.make ~count:40 ~name:"stream generator: count, order, bounded laxity"
    QCheck.small_nat
    (fun seed ->
      let n = 50 in
      let max_laxity = 6. in
      let inst =
        G.stream ~seed:(seed + 1) ~machines:4 ~jobs:n ~rate:3. ~mean_work:2. ~max_laxity ()
      in
      let jobs = Array.to_list inst.Job.jobs in
      List.length jobs = n
      && Job.integral_times inst
      && List.for_all (fun (jb : Job.t) -> jb.work > 0.) jobs
      && (let rec sorted = function
            | (a : Job.t) :: (b :: _ as rest) -> a.release <= b.release && sorted rest
            | _ -> true
          in
          sorted jobs)
      (* Integralization can stretch a window by < 2 beyond the raw draw. *)
      && List.for_all
           (fun (jb : Job.t) -> jb.deadline -. jb.release <= max_laxity +. 2.)
           jobs)

let test_stream_generator_guards () =
  let mk ~jobs ~rate ~max_laxity () =
    ignore (G.stream ~seed:1 ~machines:2 ~jobs ~rate ~mean_work:1. ~max_laxity ())
  in
  Alcotest.check_raises "jobs" (Invalid_argument "Generators.stream: jobs <= 0")
    (mk ~jobs:0 ~rate:1. ~max_laxity:4.);
  Alcotest.check_raises "rate" (Invalid_argument "Generators.stream: bad parameters")
    (mk ~jobs:3 ~rate:0. ~max_laxity:4.);
  Alcotest.check_raises "laxity" (Invalid_argument "Generators.stream: bad parameters")
    (mk ~jobs:3 ~rate:1. ~max_laxity:0.5)

(* --- Counters ------------------------------------------------------------ *)

let test_counters_populated () =
  let inst = G.stream ~seed:9 ~machines:4 ~jobs:80 ~rate:3. ~mean_work:2. ~max_laxity:5. () in
  let stats = Engine.counters () in
  let s1, _ = Avr.run ~stats inst in
  check_bool "events counted" true (stats.events > 0);
  (* Every job enters and leaves the active set exactly once (bar jobs
     expiring at the horizon end, removed implicitly). *)
  check_bool "set ops ~ 2n" true
    (stats.set_ops >= Array.length inst.jobs && stats.set_ops <= 2 * Array.length inst.jobs);
  (* [Schedule.make] keeps every emitted segment. *)
  check_int "emitted = schedule segments" (Schedule.num_segments s1) stats.emitted;
  check_int "high-water = segments held" (Schedule.num_segments s1) stats.arena_high_water

let test_oa_counters_populated () =
  let inst = uniform_instance 17 in
  let stats = Engine.counters () in
  let _ = Oa.run ~stats inst in
  check_bool "replan events counted" true (stats.events > 0);
  check_bool "live-set ops counted" true (stats.set_ops > 0);
  check_bool "segments counted" true (stats.emitted > 0)

let () =
  Alcotest.run "streaming"
    [
      ( "calendar",
        [
          Alcotest.test_case "buckets = arriving" `Quick test_calendar_buckets_match_arriving;
          Alcotest.test_case "float noise kept distinct" `Quick
            test_calendar_distinguishes_float_noise;
          Alcotest.test_case "sorted distinct events" `Quick
            test_calendar_event_times_sorted_distinct;
        ] );
      ( "generator",
        [ Alcotest.test_case "parameter guards" `Quick test_stream_generator_guards ] );
      ( "counters",
        [
          Alcotest.test_case "avr streaming" `Quick test_counters_populated;
          Alcotest.test_case "oa streaming" `Quick test_oa_counters_populated;
        ] );
      ( "agreement",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_avr_streaming_bitwise;
            prop_oa_streaming_bitwise;
            prop_bkp_streaming_bitwise;
            prop_time_shift_invariance_streaming;
            prop_stream_generator_shape;
          ] );
    ]

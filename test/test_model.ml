(* Model-layer tests: job validation, interval grids, power functions,
   schedule accounting, the feasibility checker (including failure
   injection) and the wrap-pack construction. *)

module Job = Ss_model.Job
module Interval = Ss_model.Interval
module Power = Ss_model.Power
module Schedule = Ss_model.Schedule
module Offline = Ss_core.Offline
module Q = Ss_numeric.Rational
module G = Ss_workload.Generators

let checkf msg = Alcotest.(check (float 1e-9)) msg
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let j r d w = Job.make ~release:r ~deadline:d ~work:w

(* --- jobs -------------------------------------------------------------- *)

let test_job_validation () =
  check_bool "valid" true (Job.is_valid (Job.instance ~machines:2 [ j 0. 1. 1. ]));
  List.iter
    (fun (name, mk) ->
      match mk () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" name)
    [
      ("empty window", fun () -> Job.instance ~machines:1 [ j 2. 2. 1. ]);
      ("reversed window", fun () -> Job.instance ~machines:1 [ j 3. 1. 1. ]);
      ("zero work", fun () -> Job.instance ~machines:1 [ j 0. 1. 0. ]);
      ("no machines", fun () -> Job.instance ~machines:0 [ j 0. 1. 1. ]);
      ("no jobs", fun () -> Job.instance ~machines:1 []);
      ("nan", fun () -> Job.instance ~machines:1 [ j Float.nan 1. 1. ]);
      ("density underflows", fun () -> Job.instance ~machines:1 [ j 0. 1e300 1e-300 ]);
      ("density overflows", fun () -> Job.instance ~machines:1 [ j 0. 1e-300 1e300 ]);
      ("subnormal window", fun () -> Job.instance ~machines:1 [ j 0. 1e-310 1. ]);
      ("window width overflows", fun () -> Job.instance ~machines:1 [ j (-1e308) 1e308 1. ]);
    ]

let test_job_accessors () =
  let job = j 2. 6. 8. in
  checkf "density" 2. (Job.density job);
  checkf "span" 4. (Job.span job);
  let inst = Job.instance ~machines:2 [ job; j 0. 4. 4. ] in
  checkf "total work" 12. (Job.total_work inst);
  let lo, hi = Job.horizon inst in
  checkf "horizon lo" 0. lo;
  checkf "horizon hi" 6. hi;
  checkf "load factor" 1.5 (Job.load_factor inst);
  check_bool "integral" true (Job.integral_times inst);
  check_bool "not integral" false
    (Job.integral_times (Job.instance ~machines:1 [ j 0.5 2. 1. ]))

let test_job_transforms () =
  let job = j 1. 3. 4. in
  let scaled = Job.scale_work 2. job in
  checkf "scale work" 8. scaled.work;
  let stretched = Job.scale_time 2. job in
  checkf "stretch release" 2. stretched.release;
  checkf "stretch deadline" 6. stretched.deadline;
  let shifted = Job.shift_time 5. job in
  checkf "shift release" 6. shifted.release

(* --- interval grid ----------------------------------------------------- *)

let test_grid_structure () =
  let jobs = [| j 0. 4. 1.; j 1. 3. 1.; j 2. 6. 1. |] in
  let g = Interval.make jobs in
  (* Breakpoints: 0 1 2 3 4 6. *)
  check_int "intervals" 5 (Interval.length g);
  checkf "width I0" 1. (Interval.width g 0);
  checkf "width last" 2. (Interval.width g 4);
  Alcotest.(check (list int)) "active I0" [ 0 ] (Interval.active g 0);
  Alcotest.(check (list int)) "active I1" [ 0; 1 ] (Interval.active g 1);
  Alcotest.(check (list int)) "active I2" [ 0; 1; 2 ] (Interval.active g 2);
  Alcotest.(check (list int)) "active I3" [ 0; 2 ] (Interval.active g 3);
  Alcotest.(check (list int)) "active I4" [ 2 ] (Interval.active g 4);
  checkf "total width" 6. (Interval.total_width g)

let test_grid_locate () =
  let g = Interval.make [| j 0. 4. 1.; j 1. 3. 1. |] in
  Alcotest.(check (option int)) "locate 0.5" (Some 0) (Interval.locate g 0.5);
  Alcotest.(check (option int)) "locate 1" (Some 1) (Interval.locate g 1.);
  Alcotest.(check (option int)) "locate 3.9" (Some 2) (Interval.locate g 3.9);
  Alcotest.(check (option int)) "locate 4 (end)" None (Interval.locate g 4.);
  Alcotest.(check (option int)) "locate -1" None (Interval.locate g (-1.))

(* --- power functions ---------------------------------------------------- *)

let test_power_alpha () =
  let p = Power.alpha 3. in
  checkf "eval" 8. (Power.eval p 2.);
  checkf "deriv" 12. (Power.deriv p 2.);
  checkf "energy" 16. (Power.energy p ~speed:2. ~duration:2.);
  checkf "waterfill g" 16. (Power.waterfill_level p 2.);
  Alcotest.(check (option (float 1e-12))) "exponent" (Some 3.) (Power.exponent p);
  Alcotest.check_raises "alpha <= 1" (Invalid_argument "Power.alpha: requires alpha > 1")
    (fun () -> ignore (Power.alpha 1.))

let test_power_poly () =
  (* s^2 + 3s + 2 (with idle power 2). *)
  let p = Power.poly [ (1., 2.); (3., 1.); (2., 0.) ] in
  checkf "eval" 12. (Power.eval p 2.);
  checkf "deriv" 7. (Power.deriv p 2.);
  checkf "idle" 2. (Power.eval p 0.);
  check_bool "plausible convex" true (Power.plausible_convex p);
  Alcotest.check_raises "bad exponent"
    (Invalid_argument "Power.poly: exponent in (0,1) breaks convexity") (fun () ->
      ignore (Power.poly [ (1., 0.5) ]))

let test_power_custom () =
  let p = Power.custom ~name:"s^2" ~eval:(fun s -> s *. s) ~deriv:(fun s -> 2. *. s) in
  checkf "eval" 9. (Power.eval p 3.);
  check_bool "convex" true (Power.plausible_convex p);
  let bad = Power.custom ~name:"sqrt" ~eval:sqrt ~deriv:(fun s -> 0.5 /. sqrt s) in
  check_bool "concave rejected" false (Power.plausible_convex bad)

(* --- schedules ---------------------------------------------------------- *)

let seg job proc t0 t1 speed = { Schedule.job; proc; t0; t1; speed }

let two_job_instance = Job.instance ~machines:2 [ j 0. 2. 2.; j 0. 2. 4. ]

let good_schedule () =
  Schedule.make ~machines:2 [ seg 0 0 0. 2. 1.; seg 1 1 0. 2. 2. ]

let test_schedule_accounting () =
  let s = good_schedule () in
  let p = Power.alpha 2. in
  (* P(1)*2 + P(2)*2 = 2 + 8 at alpha = 2. *)
  checkf "energy" 10. (Schedule.energy p s);
  let w = Schedule.work_by_job ~jobs:2 s in
  checkf "work 0" 2. w.(0);
  checkf "work 1" 4. w.(1);
  let busy = Schedule.busy_time_by_proc s in
  checkf "busy p0" 2. busy.(0);
  checkf "max speed" 2. (Schedule.max_speed s);
  let at = Schedule.speeds_at s 1. in
  checkf "speed at (p0)" 1. at.(0);
  checkf "speed at (p1)" 2. at.(1);
  check_int "segments" 2 (Schedule.num_segments s)

let test_schedule_feasible () =
  check_bool "feasible" true (Schedule.is_feasible two_job_instance (good_schedule ()))

let test_failure_injection () =
  let expect_error name sched pred =
    match Schedule.check two_job_instance sched with
    | [] -> Alcotest.failf "%s accepted" name
    | errs ->
      check_bool name true (List.exists pred errs);
      check_bool (name ^ " = reference") true
        (Reference.same_infeasibilities errs (Reference.check two_job_instance sched))
  in
  (* Too little work. *)
  expect_error "wrong work"
    (Schedule.make ~machines:2 [ seg 0 0 0. 1. 1.; seg 1 1 0. 2. 2. ])
    (function Schedule.Wrong_work { job = 0; _ } -> true | _ -> false);
  (* Outside window. *)
  expect_error "outside window"
    (Schedule.make ~machines:2 [ seg 0 0 2. 4. 1.; seg 1 1 0. 2. 2. ])
    (function Schedule.Outside_window 0 -> true | _ -> false);
  (* Processor double-booked. *)
  expect_error "processor overlap"
    (Schedule.make ~machines:2 [ seg 0 0 0. 2. 1.; seg 1 0 1. 3. 2. ])
    (function Schedule.Processor_overlap { proc = 0; _ } -> true | _ -> false);
  (* Same job on two processors at once. *)
  expect_error "parallel execution"
    (Schedule.make ~machines:2 [ seg 0 0 0. 2. 0.5; seg 0 1 0. 2. 0.5; seg 1 0 0. 0.0001 40000. ])
    (function Schedule.Parallel_execution { job = 0; _ } -> true | _ -> false);
  (* Unknown job id. *)
  expect_error "unknown job"
    (Schedule.make ~machines:2 [ seg 0 0 0. 2. 1.; seg 1 1 0. 2. 2.; seg 7 0 0. 0.001 1. ])
    (function Schedule.Unknown_job 7 -> true | _ -> false);
  (* Finite segments whose work sum overflows into NaN. *)
  expect_error "overflowing work"
    (Schedule.make ~machines:2 [ seg 0 0 0. 1. 1e308; seg 0 0 1. 2. 1e308; seg 1 1 0. 2. 2. ])
    (function Schedule.Wrong_work { job = 0; _ } -> true | _ -> false)

let test_schedule_constructor_guards () =
  List.iter
    (fun (name, segs) ->
      match Schedule.make ~machines:2 segs with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" name)
    [
      ("bad proc", [ seg 0 5 0. 1. 1. ]);
      ("empty segment", [ seg 0 0 1. 1. 1. ]);
      ("negative speed", [ seg 0 0 0. 1. (-1.) ]);
      ("nan speed", [ seg 0 0 0. 1. Float.nan ]);
      ("infinite speed", [ seg 0 0 0. 1. Float.infinity ]);
      ("infinite end", [ seg 0 0 0. Float.infinity 1. ]);
    ]

(* One migration (P0 to P1) and one preemption on P1: only the
   migration counts. *)
let test_migration_and_preemption () =
  let s =
    Schedule.make ~machines:2
      [ seg 0 0 0. 1. 1.; seg 0 1 1. 2. 1.; seg 0 1 3. 4. 1. ]
  in
  check_int "total migrations" 1 (Schedule.total_migrations ~jobs:1 s)

let test_concat () =
  let a = Schedule.make ~machines:2 [ seg 0 0 0. 1. 2. ] in
  let b = Schedule.make ~machines:2 [ seg 1 1 1. 2. 2. ] in
  check_int "concat segments" 2 (Schedule.num_segments (Schedule.concat a b));
  Alcotest.check_raises "machine mismatch"
    (Invalid_argument "Schedule.concat: machine count mismatch") (fun () ->
      ignore (Schedule.concat a (Schedule.empty ~machines:3)))

(* No processor or job id sizes an allocation: on 2^40 machines, with a
   segment of job 2^40 and one on the last processor, each given out of
   the stored order, [make], [concat], [check] and [total_migrations]
   answer as on a small schedule. *)
let test_huge_ids () =
  let machines = 1 lsl 40 and big = 1 lsl 40 in
  let last = machines - 1 in
  let inst = Job.instance ~machines [ j 0. 4. 4.; j 0. 4. 4. ] in
  let a =
    Schedule.make ~machines
      [ seg 1 1 2. 4. 1.; seg 0 0 2. 4. 1.; seg big 1 0. 1. 1.; seg 0 0 0. 2. 1. ]
  in
  check_bool "make" true
    (Reference.same_segments
       [ seg 0 0 0. 2. 1.; seg 0 0 2. 4. 1.; seg big 1 0. 1. 1.; seg 1 1 2. 4. 1. ]
       (Array.to_list (Schedule.segments a)));
  let b = Schedule.make ~machines [ seg 1 last 0. 2. 1. ] in
  let s = Schedule.concat b a in
  check_bool "concat" true
    (Reference.same_segments
       [
         seg 0 0 0. 2. 1.; seg 0 0 2. 4. 1.; seg big 1 0. 1. 1.; seg 1 1 2. 4. 1.;
         seg 1 last 0. 2. 1.;
       ]
       (Array.to_list (Schedule.segments s)));
  check_bool "check" true
    (Reference.same_infeasibilities [ Schedule.Unknown_job big ] (Schedule.check inst s));
  check_int "migrations of the instance's jobs" 1 (Schedule.total_migrations ~jobs:2 s);
  check_int "migrations up to job 2^40" 1 (Schedule.total_migrations ~jobs:(big + 1) s)

(* Random faulty schedules against the float instance of the reference
   audit (one filter and sort per processor and per job) and the per-job
   migration count: up to 12 jobs on up to 4 processors, the offline
   optimum or nothing, plus up to 30 segments on a half-unit grid, so
   that starts tie across processors, one job's segments overlap, and job
   ids run past the instance. *)
let prop_check_matches_reference =
  QCheck.Test.make ~count:500 ~name:"check and total_migrations = per-job reference"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Ss_workload.Rng.create ~seed in
      let int bound = Ss_workload.Rng.int rng ~bound in
      let half k = 0.5 *. float_of_int k in
      let n = 1 + int 12 and machines = 1 + int 4 in
      let inst =
        Job.instance ~machines
          (List.init n (fun _ ->
               let r = half (int 16) in
               j r (r +. half (1 + int 16)) (half (1 + int 12))))
      in
      let base =
        if Ss_workload.Rng.bool rng then Offline.optimal_schedule inst
        else Schedule.empty ~machines
      in
      let noise =
        List.init (int 31) (fun _ ->
            let t0 = half (int 48) in
            seg (int (n + 2)) (int machines) t0 (t0 +. half (1 + int 8)) (half (1 + int 6)))
      in
      let s = Schedule.concat base (Schedule.make ~machines noise) in
      Reference.same_infeasibilities (Schedule.check inst s) (Reference.check inst s)
      && List.for_all
           (fun jobs -> Schedule.total_migrations ~jobs s = Reference.total_migrations ~jobs s)
           [ n; n + 2 ])

(* --- wrap_pack ---------------------------------------------------------- *)

(* The one Lemma 2 packer, on floats: its segments in emission order and
   the number of processors it used. *)
let wrap_pack ~t0 ~t1 ~proc_offset ~speed entries =
  let segs = ref [] in
  let used =
    Offline.F.wrap_pack ~t0 ~t1 ~proc_offset ~speed
      (Array.of_list (List.map fst entries))
      (Array.of_list (List.map snd entries))
      ~pos:0 ~len:(List.length entries)
      ~emit:(fun job proc t0 t1 speed -> segs := { Schedule.job; proc; t0; t1; speed } :: !segs)
  in
  (List.rev !segs, used)

(* The same packer on the exact field, fed the same durations (floats
   embed exactly): [(job, proc, t0, t1)] per segment and the processors
   used, with zero slack. *)
let exact_wrap_pack ~len entries =
  let segs = ref [] in
  let used =
    Offline.Exact.wrap_pack ~t0:Q.zero ~t1:(Q.of_float len) ~proc_offset:0 ~speed:Q.one
      (Array.of_list (List.map fst entries))
      (Array.of_list (List.map (fun (_, dur) -> Q.of_float dur) entries))
      ~pos:0 ~len:(List.length entries)
      ~emit:(fun job proc t0 t1 _ -> segs := (job, proc, t0, t1) :: !segs)
  in
  (!segs, used)

let test_wrap_pack_basic () =
  (* Three jobs of 1.5, 1.0, 0.5 into windows of length 1.5: exactly 2 procs. *)
  let segs, used =
    wrap_pack ~t0:0. ~t1:1.5 ~proc_offset:0 ~speed:2.
      [ (0, 1.5); (1, 1.0); (2, 0.5) ]
  in
  check_int "uses 2 procs" 2 used;
  let total = Ss_numeric.Kahan.sum_list (List.map (fun s -> s.Schedule.t1 -. s.t0) segs) in
  checkf "total time" 3. total;
  (* Full job first: job 0 occupies processor 0 fully. *)
  let j0 = List.filter (fun s -> s.Schedule.job = 0) segs in
  check_int "job 0 single segment" 1 (List.length j0);
  check_bool "job 0 proc 0" true ((List.hd j0).proc = 0)

let test_wrap_pack_split_no_overlap () =
  (* A piece wrapping the boundary must not overlap itself in time. *)
  let segs, used =
    wrap_pack ~t0:10. ~t1:11. ~proc_offset:3 ~speed:1.
      [ (0, 0.75); (1, 0.75); (2, 0.5) ]
  in
  check_int "uses 2" 2 used;
  let j1 = List.filter (fun s -> s.Schedule.job = 1) segs in
  check_int "job 1 split" 2 (List.length j1);
  (match j1 with
  | [ a; b ] ->
    check_bool "no time overlap" true (a.t1 <= b.t0 +. 1e-9 || b.t1 <= a.t0 +. 1e-9);
    check_bool "different procs" true (a.proc <> b.proc)
  | _ -> Alcotest.fail "expected split");
  check_bool "offset respected" true
    (List.for_all (fun s -> s.Schedule.proc >= 3) segs)

let test_wrap_pack_guards () =
  Alcotest.check_raises "piece too long"
    (Invalid_argument "Offline.wrap_pack: piece longer than interval") (fun () ->
      ignore (wrap_pack ~t0:0. ~t1:1. ~proc_offset:0 ~speed:1. [ (0, 1.5) ]));
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Offline.wrap_pack: empty interval") (fun () ->
      ignore (wrap_pack ~t0:1. ~t1:1. ~proc_offset:0 ~speed:1. [ (0, 0.5) ]))

(* Both fields: within 1e-6 on floats, exactly on rationals. *)
let prop_wrap_pack_conserves_time =
  QCheck.Test.make ~count:200 ~name:"wrap_pack conserves per-job durations"
    QCheck.(pair small_nat (int_range 1 8))
    (fun (seed, njobs) ->
      let rng = Ss_workload.Rng.create ~seed:(seed + 13) in
      let len = Ss_workload.Rng.uniform rng ~lo:0.5 ~hi:4. in
      let entries =
        List.init njobs (fun i -> (i, Ss_workload.Rng.uniform rng ~lo:0.01 ~hi:len))
      in
      let segs, used = wrap_pack ~t0:0. ~t1:len ~proc_offset:0 ~speed:1. entries in
      let total_in = Ss_numeric.Kahan.sum_list (List.map snd entries) in
      let exact_segs, exact_used = exact_wrap_pack ~len entries in
      let exact_total =
        List.fold_left (fun acc (_, dur) -> Q.add acc (Q.of_float dur)) Q.zero entries
      in
      (* Per job, durations survive. *)
      List.for_all
        (fun (i, dur) ->
          let got =
            Ss_numeric.Kahan.sum_list
              (List.filter_map
                 (fun s ->
                   if s.Schedule.job = i then Some (s.Schedule.t1 -. s.t0) else None)
                 segs)
          in
          let exact_got =
            List.fold_left
              (fun acc (job, _, t0, t1) -> if job = i then Q.add acc (Q.sub t1 t0) else acc)
              Q.zero exact_segs
          in
          Float.abs (got -. dur) <= 1e-6 *. (1. +. dur) && Q.equal exact_got (Q.of_float dur))
        entries
      && float_of_int used >= total_in /. len -. 1e-6
      && Q.compare (Q.mul (Q.of_int exact_used) (Q.of_float len)) exact_total >= 0)

(* Both fields: touching within 1e-9 on floats, not overlapping at all on
   rationals. *)
let prop_wrap_pack_no_machine_overlap =
  QCheck.Test.make ~count:200 ~name:"wrap_pack never double-books a processor"
    QCheck.(pair small_nat (int_range 1 10))
    (fun (seed, njobs) ->
      let rng = Ss_workload.Rng.create ~seed:(seed + 99) in
      let len = 1. in
      let entries =
        List.init njobs (fun i -> (i, Ss_workload.Rng.uniform rng ~lo:0.05 ~hi:1.))
      in
      let segs, _ = wrap_pack ~t0:0. ~t1:len ~proc_offset:0 ~speed:1. entries in
      let sorted =
        List.sort
          (fun a b ->
            match compare a.Schedule.proc b.Schedule.proc with
            | 0 -> Float.compare a.Schedule.t0 b.Schedule.t0
            | c -> c)
          segs
      in
      let rec ok = function
        | a :: (b :: _ as rest) ->
          (a.Schedule.proc <> b.Schedule.proc || a.t1 <= b.t0 +. 1e-9) && ok rest
        | _ -> true
      in
      let exact_segs, _ = exact_wrap_pack ~len entries in
      let exact_sorted =
        List.sort
          (fun (_, p1, a, _) (_, p2, b, _) ->
            match Int.compare p1 p2 with 0 -> Q.compare a b | c -> c)
          exact_segs
      in
      let rec exact_ok = function
        | (_, p1, _, e1) :: ((_, p2, s2, _) :: _ as rest) ->
          (p1 <> p2 || Q.compare e1 s2 <= 0) && exact_ok rest
        | _ -> true
      in
      ok sorted && exact_ok exact_sorted)

(* The array packer against test/reference.ml's list packer, on both
   fields: the same segments (by float bits on floats, exactly on
   rationals), the same processor count and the same exceptions.  A
   third of the pieces sit within the slack of zero or of the interval
   length, or just past it, so both guards and every drop fire; some
   intervals are empty; and the block is a slice of longer arrays whose
   other entries would trip the length guard if the packer read them. *)
let prop_wrap_pack_matches_list_packer =
  QCheck.Test.make ~count:500 ~name:"wrap_pack = the list packer, both fields"
    QCheck.(pair small_nat (int_range 0 10))
    (fun (seed, njobs) ->
      let rng = Ss_workload.Rng.create ~seed:(seed + 4242) in
      let uniform lo hi = Ss_workload.Rng.uniform rng ~lo ~hi in
      let pick bound = Ss_workload.Rng.int rng ~bound in
      let t0 = uniform (-4.) 4. in
      let t1 = if pick 15 = 0 then t0 -. float_of_int (pick 2) else t0 +. uniform 0.25 4. in
      let w = t1 -. t0 in
      let eps = Ss_numeric.Field.Float.slack w in
      let near =
        [| 0.; eps /. 2.; eps; 2. *. eps; w -. (2. *. eps); w -. eps; w -. (eps /. 2.); w;
           w +. (eps /. 2.); w +. eps; w +. (2. *. eps) |]
      in
      let entries =
        List.init njobs (fun i ->
            (i, if pick 3 = 0 then near.(pick (Array.length near)) else uniform 0. (Float.max w 0.)))
      in
      let pad = pick 3 and proc_offset = pick 4 and speed = uniform 0.5 3. in
      let padded xs junk = Array.of_list (List.init pad (fun _ -> junk) @ xs @ [ junk ]) in
      let jobs = padded (List.map fst entries) (-1) in
      (* The segments a packer emits and the processors it used, or the
         message it raised. *)
      let run pack =
        let segs = ref [] in
        match pack (fun job proc a b v -> segs := (job, proc, a, b, v) :: !segs) with
        | used -> Ok (List.rev !segs, used)
        | exception Invalid_argument m -> Error m
      in
      let same eq got want =
        match (got, want) with
        | Ok (a, u), Ok (b, v) ->
          u = v
          && List.length a = List.length b
          && List.for_all2
               (fun (j, p, s, e, x) (j', p', s', e', x') ->
                 j = j' && p = p' && eq s s' && eq e e' && eq x x')
               a b
        | Error m, Error m' -> String.equal m m'
        | _ -> false
      in
      let junk = (3. *. Float.abs w) +. 1. and q = Q.of_float in
      let exact_entries = List.map (fun (i, d) -> (i, q d)) entries in
      same Reference.same_float
        (run (fun emit ->
             Offline.F.wrap_pack ~t0 ~t1 ~proc_offset ~speed ~emit jobs
               (padded (List.map snd entries) junk)
               ~pos:pad ~len:njobs))
        (run (fun emit -> Reference.Float_packer.wrap_pack ~t0 ~t1 ~proc_offset ~speed ~emit entries))
      && same Q.equal
           (run (fun emit ->
                Offline.Exact.wrap_pack ~t0:(q t0) ~t1:(q t1) ~proc_offset ~speed:(q speed) ~emit
                  jobs
                  (padded (List.map snd exact_entries) (q junk))
                  ~pos:pad ~len:njobs))
           (run (fun emit ->
                Reference.Exact_packer.wrap_pack ~t0:(q t0) ~t1:(q t1) ~proc_offset
                  ~speed:(q speed) ~emit exact_entries)))

(* --- Schedule.make keeps the stored order -------------------------------- *)

(* Schedules from the offline solver on the dense path and on the sweep,
   and from OA(m) and AVR(m). *)
let stored_order_schedules =
  lazy
    (let dense = G.uniform ~seed:5 ~machines:3 ~jobs:20 ~horizon:20. ~max_work:5. () in
     let sweep = G.heavy ~shape:1.1 ~seed:7 ~machines:8 ~jobs:200 ~horizon:500. () in
     let k = Array.length (Offline.run sweep).breakpoints - 1 in
     assert (200 * k >= Offline.F.compress_threshold);
     let online = G.stream ~seed:41 ~machines:4 ~jobs:60 ~rate:4. ~mean_work:2. ~max_laxity:8. () in
     [
       ("offline dense", fst (Offline.solve dense));
       ("offline sweep", fst (Offline.solve sweep));
       ("OA(m)", fst (Ss_online.Oa.run online));
       ("AVR(m)", fst (Ss_online.Avr.run online));
     ])

let shuffle seed l =
  let a = Array.of_list l in
  let rng = Ss_workload.Rng.create ~seed in
  for i = Array.length a - 1 downto 1 do
    let j = Ss_workload.Rng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Time-major is the order the producers hand over: every processor's
   segments in start order, the processors interleaved. *)
let prop_make_stored_order =
  QCheck.Test.make ~count:20
    ~name:"Schedule.make: stored, reversed and shuffled input, and time-major input, give the same segments"
    QCheck.small_nat (fun seed ->
      List.for_all
        (fun (name, s) ->
          let stored = Array.to_list (Schedule.segments s) in
          let time_major =
            List.stable_sort (fun (a : Schedule.segment) b -> Float.compare a.t0 b.t0) stored
          in
          List.for_all
            (fun (order, input) ->
              Reference.same_schedule s (Schedule.make ~machines:(Schedule.machines s) input)
              || QCheck.Test.fail_reportf "%s, %s input (seed %d)" name order seed)
            [
              ("stored", stored);
              ("reversed", List.rev stored);
              ("shuffled", shuffle seed stored);
              ("time-major", time_major);
            ])
        (Lazy.force stored_order_schedules))

let () =
  Alcotest.run "model"
    [
      ( "job",
        [
          Alcotest.test_case "validation" `Quick test_job_validation;
          Alcotest.test_case "accessors" `Quick test_job_accessors;
          Alcotest.test_case "transforms" `Quick test_job_transforms;
        ] );
      ( "interval",
        [
          Alcotest.test_case "structure" `Quick test_grid_structure;
          Alcotest.test_case "locate" `Quick test_grid_locate;
        ] );
      ( "power",
        [
          Alcotest.test_case "alpha" `Quick test_power_alpha;
          Alcotest.test_case "poly" `Quick test_power_poly;
          Alcotest.test_case "custom" `Quick test_power_custom;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "accounting" `Quick test_schedule_accounting;
          Alcotest.test_case "feasible" `Quick test_schedule_feasible;
          Alcotest.test_case "failure injection" `Quick test_failure_injection;
          Alcotest.test_case "constructor guards" `Quick test_schedule_constructor_guards;
          Alcotest.test_case "migrations/preemptions" `Quick test_migration_and_preemption;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "huge processor and job ids" `Quick test_huge_ids;
        ] );
      ( "wrap_pack",
        [
          Alcotest.test_case "basic" `Quick test_wrap_pack_basic;
          Alcotest.test_case "split no overlap" `Quick test_wrap_pack_split_no_overlap;
          Alcotest.test_case "guards" `Quick test_wrap_pack_guards;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_check_matches_reference;
            prop_wrap_pack_conserves_time;
            prop_wrap_pack_no_machine_overlap;
            prop_wrap_pack_matches_list_packer;
            prop_make_stored_order;
          ] );
    ]

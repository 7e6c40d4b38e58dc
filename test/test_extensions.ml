(* Tests for the extension modules: rendering, profiles, discrete speed
   menus, sleep-state management, OA plan monotonicity (Lemmas 7/8) and
   the Theorem 2 potential audit. *)

module Job = Ss_model.Job
module Power = Ss_model.Power
module Schedule = Ss_model.Schedule
module Render = Ss_model.Render
module Profile = Ss_model.Profile
module Discrete = Ss_core.Discrete
module Sleep = Ss_core.Sleep

let check_bool = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg

let sample_instance seed =
  Ss_workload.Generators.uniform ~seed ~machines:3 ~jobs:10 ~horizon:14. ~max_work:4. ()

(* --- render ------------------------------------------------------------- *)

let test_render_shape () =
  let inst = sample_instance 1 in
  let sched = Ss_core.Offline.optimal_schedule inst in
  let out = Render.render ~config:{ width = 40; show_speeds = true } sched in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  (* Header + 2 rows per processor + legend. *)
  Alcotest.(check int) "line count" (1 + (2 * 3) + 1) (List.length lines);
  check_bool "legend present" true
    (List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "jobs") lines)

let test_render_empty () =
  Alcotest.(check string) "empty" "(empty schedule)\n" (Render.render (Schedule.empty ~machines:2))

let test_render_occupancy_matches_schedule () =
  (* A deterministic one-job schedule: the row must contain the letter 'a'
     exactly in the occupied half. *)
  let sched = Schedule.make ~machines:1 [ { job = 0; proc = 0; t0 = 0.; t1 = 1.; speed = 1. } ] in
  let out = Render.render ~config:{ width = 10; show_speeds = false } ~t0:0. ~t1:2. sched in
  let row = List.nth (String.split_on_char '\n' out) 1 in
  (* "P0  |aaaaa.....|" *)
  check_bool "first half busy" true (String.contains row 'a');
  let cells = String.sub row 5 10 in
  Alcotest.(check string) "occupancy" "aaaaa....." cells

let test_job_letters () =
  Alcotest.(check char) "a" 'a' (Render.job_letter 0);
  Alcotest.(check char) "z" 'z' (Render.job_letter 25);
  Alcotest.(check char) "A" 'A' (Render.job_letter 26);
  Alcotest.(check char) "overflow" '#' (Render.job_letter 99)

let test_svg_wellformed () =
  let inst = sample_instance 7 in
  let sched = Ss_core.Offline.optimal_schedule inst in
  let svg = Render.to_svg sched in
  check_bool "starts with <svg" true (String.length svg > 4 && String.sub svg 0 4 = "<svg");
  check_bool "ends with </svg>" true
    (let t = String.trim svg in
     String.sub t (String.length t - 6) 6 = "</svg>");
  (* One rect per segment. *)
  let count_sub needle hay =
    let n = String.length needle and h = String.length hay in
    let c = ref 0 in
    for i = 0 to h - n do
      if String.sub hay i n = needle then incr c
    done;
    !c
  in
  Alcotest.(check int) "rect per segment" (Schedule.num_segments sched) (count_sub "<rect" svg);
  Alcotest.(check int) "title per rect" (Schedule.num_segments sched) (count_sub "<title>" svg)

let test_svg_empty () =
  let svg = Render.to_svg (Schedule.empty ~machines:2) in
  check_bool "self closing" true (String.length svg > 0 && String.sub svg 0 4 = "<svg")

let test_svg_save () =
  let inst = sample_instance 8 in
  let sched = Ss_core.Offline.optimal_schedule inst in
  let path = Filename.temp_file "ss_svg" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Render.save_svg path sched;
      let ic = open_in path in
      let len = in_channel_length ic in
      close_in ic;
      check_bool "non-empty file" true (len > 100))

let test_job_colors_distinct () =
  let colors = List.init 12 Render.job_color in
  Alcotest.(check int) "distinct colors" 12 (List.length (List.sort_uniq compare colors))

(* --- profile ------------------------------------------------------------ *)

let test_profile_energy_consistency () =
  let inst = sample_instance 2 in
  let sched = Ss_core.Offline.optimal_schedule inst in
  let p = Power.alpha 2.5 in
  Alcotest.(check (float 1e-6))
    "profile energy = schedule energy"
    (Schedule.energy p sched)
    (Profile.energy_from_profile p sched)

let test_profile_csv () =
  let sched = Schedule.make ~machines:2 [ { job = 0; proc = 0; t0 = 0.; t1 = 2.; speed = 1.5 } ] in
  let csv = Profile.to_csv (Power.alpha 2.) sched in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + 1 piece" 2 (List.length lines);
  Alcotest.(check string) "header" "time,total_speed,total_power,speed_p0,speed_p1"
    (List.hd lines);
  check_bool "sample row" true
    (String.length (List.nth lines 1) > 0 && (List.nth lines 1).[0] = '1')

let test_profile_peak () =
  let sched =
    Schedule.make ~machines:2
      [
        { job = 0; proc = 0; t0 = 0.; t1 = 1.; speed = 2. };
        { job = 1; proc = 1; t0 = 0.; t1 = 1.; speed = 1. };
        { job = 2; proc = 0; t0 = 1.; t1 = 2.; speed = 3. };
      ]
  in
  (* Peak total power at alpha=2: max(4+1, 9) = 9. *)
  checkf "peak" 9. (Profile.peak_total_power (Power.alpha 2.) sched)

(* --- discrete menus ------------------------------------------------------ *)

let test_bracket () =
  let m = Discrete.make_levels [ 1.; 2.; 4. ] in
  Alcotest.(check (pair (float 0.) (float 0.))) "inside" (2., 4.) (Discrete.bracket m 3.);
  Alcotest.(check (pair (float 0.) (float 0.))) "exact" (2., 2.) (Discrete.bracket m 2.);
  Alcotest.(check (pair (float 0.) (float 0.))) "below menu" (0., 1.) (Discrete.bracket m 0.5);
  Alcotest.(check (pair (float 0.) (float 0.))) "top" (4., 4.) (Discrete.bracket m 4.);
  (match Discrete.bracket m 5. with
  | exception Discrete.Speed_out_of_range _ -> ()
  | _ -> Alcotest.fail "expected out of range")

let test_quantize_preserves_work_and_feasibility () =
  let inst = sample_instance 3 in
  let sched = Ss_core.Offline.optimal_schedule inst in
  let peak = Schedule.max_speed sched in
  let menu = Discrete.geometric_menu ~lo:(peak /. 6.) ~hi:(peak *. 1.01) ~count:5 in
  let q = Discrete.quantize menu sched in
  check_bool "feasible" true (Schedule.is_feasible inst q);
  let w0 = Schedule.work_by_job ~jobs:(Job.num_jobs inst) sched in
  let w1 = Schedule.work_by_job ~jobs:(Job.num_jobs inst) q in
  Array.iteri
    (fun i a -> Alcotest.(check (float 1e-6)) (Printf.sprintf "work %d" i) a w1.(i))
    w0;
  (* Only menu speeds (or exact originals hitting menu values) appear. *)
  Array.iter
    (fun (s : Schedule.segment) ->
      check_bool "menu speed" true
        (let lo, hi = Discrete.bracket menu s.speed in
         Float.abs (s.speed -. lo) <= 1e-9 || Float.abs (s.speed -. hi) <= 1e-9))
    (Schedule.segments q)

let test_quantize_energy_convexity () =
  (* Discrete energy >= continuous, and equals the PWL-power energy of the
     continuous schedule. *)
  let inst = sample_instance 4 in
  let sched = Ss_core.Offline.optimal_schedule inst in
  let p = Power.cube in
  let peak = Schedule.max_speed sched in
  let menu = Discrete.geometric_menu ~lo:(peak /. 4.) ~hi:(peak *. 1.01) ~count:4 in
  let cmp = Discrete.compare_energy p menu sched in
  check_bool "discrete >= continuous" true (cmp.discrete >= cmp.continuous -. 1e-9);
  let pwl = Discrete.interpolated_power p menu in
  Alcotest.(check (float 1e-6))
    "discrete energy = PWL energy of continuous schedule"
    (Schedule.energy pwl sched)
    cmp.discrete

let test_menu_guards () =
  Alcotest.check_raises "empty" (Invalid_argument "Discrete.make_levels: empty") (fun () ->
      ignore (Discrete.make_levels []));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Discrete.make_levels: levels must be positive") (fun () ->
      ignore (Discrete.make_levels [ 0.; 1. ]))

let prop_quantize_penalty_decreases_with_levels =
  QCheck.Test.make ~count:15 ~name:"finer menus never cost more" QCheck.small_nat
    (fun seed ->
      let inst = sample_instance (seed + 10) in
      let sched = Ss_core.Offline.optimal_schedule inst in
      let peak = Schedule.max_speed sched in
      let p = Power.cube in
      (* Nested menus: every level of the coarse menu is in the fine one. *)
      let coarse = Discrete.geometric_menu ~lo:(peak /. 8.) ~hi:(peak *. 1.01) ~count:3 in
      let fine =
        Discrete.geometric_menu ~lo:(peak /. 8.) ~hi:(peak *. 1.01) ~count:5
      in
      ignore fine;
      (* Compare coarse menu against doubling its levels by inserting
         midpoints (a strict superset). *)
      let coarse_list = [ peak /. 8.; peak *. 0.36; peak *. 1.01 ] in
      let fine_list =
        coarse_list @ List.map (fun s -> s *. 1.5) [ peak /. 8.; peak *. 0.36 ]
      in
      let e c = (Discrete.compare_energy p (Discrete.make_levels c) sched).discrete in
      ignore coarse;
      e fine_list <= e coarse_list +. 1e-9)

(* --- sleep ---------------------------------------------------------------- *)

let test_gaps () =
  let sched =
    Schedule.make ~machines:2
      [
        { job = 0; proc = 0; t0 = 1.; t1 = 2.; speed = 1. };
        { job = 1; proc = 0; t0 = 4.; t1 = 5.; speed = 1. };
        { job = 2; proc = 1; t0 = 0.; t1 = 5.; speed = 1. };
      ]
  in
  match Sleep.gaps ~horizon:(0., 5.) sched with
  | [ (0, gaps0); (1, gaps1) ] ->
    Alcotest.(check (list (float 1e-9))) "proc 0 gaps" [ 1.; 2. ] gaps0;
    Alcotest.(check (list (float 1e-9))) "proc 1 gaps" [] gaps1
  | _ -> Alcotest.fail "shape"

(* One pass over the stored order against the per-processor filter, by
   float bits: offline, OA(m) and AVR(m) schedules, and random segments
   that overlap, leave processors idle and arrive out of order, over the
   schedule's extent and over a random window. *)
let prop_gaps_match_filter =
  QCheck.Test.make ~count:100 ~name:"Sleep.gaps = per-processor filter"
    QCheck.(pair small_nat (int_range 0 3))
    (fun (seed, kind) ->
      let inst = sample_instance (seed + 1) in
      let rng = Ss_workload.Rng.create ~seed:(seed + 77) in
      let sched =
        match kind with
        | 0 -> Ss_core.Offline.optimal_schedule inst
        | 1 -> Ss_online.Oa.schedule inst
        | 2 -> Ss_online.Avr.schedule inst
        | _ ->
          let machines = 1 + Ss_workload.Rng.int rng ~bound:5 in
          Schedule.make ~machines
            (List.init (Ss_workload.Rng.int rng ~bound:12) (fun job ->
                 let t0 = Ss_workload.Rng.uniform rng ~lo:0. ~hi:10. in
                 {
                   Schedule.job;
                   proc = Ss_workload.Rng.int rng ~bound:machines;
                   t0;
                   t1 = t0 +. Ss_workload.Rng.uniform rng ~lo:0.1 ~hi:4.;
                   speed = 1.;
                 }))
      in
      let a = Ss_workload.Rng.uniform rng ~lo:(-1.) ~hi:8. in
      let horizon = (a, a +. Ss_workload.Rng.uniform rng ~lo:0. ~hi:10.) in
      let same x y =
        List.length x = List.length y
        && List.for_all2
             (fun (p, g) (q, h) ->
               p = q && List.length g = List.length h && List.for_all2 Reference.same_float g h)
             x y
      in
      same (Sleep.gaps sched) (Reference.sleep_gaps sched)
      && same (Sleep.gaps ~horizon sched) (Reference.sleep_gaps ~horizon sched))

let test_gap_costs () =
  let d = Sleep.device ~idle_power:2. ~wake_energy:4. in
  checkf "break even" 2. (Sleep.break_even d);
  checkf "always on" 6. (Sleep.gap_cost d Sleep.Always_on 3.);
  checkf "optimal short" 2. (Sleep.gap_cost d Sleep.Optimal 1.);
  checkf "optimal long" 4. (Sleep.gap_cost d Sleep.Optimal 3.);
  checkf "ski short" 2. (Sleep.gap_cost d Sleep.Ski_rental 1.);
  checkf "ski long" 8. (Sleep.gap_cost d Sleep.Ski_rental 3.)

let test_sleep_orderings () =
  let inst = sample_instance 5 in
  let sched = Ss_core.Offline.optimal_schedule inst in
  let d = Sleep.device ~idle_power:0.3 ~wake_energy:0.8 in
  let r = Sleep.analyze (Power.cube) d sched in
  check_bool "optimal <= always on" true (r.optimal <= r.always_on +. 1e-9);
  check_bool "optimal <= ski" true (r.optimal <= r.ski_rental +. 1e-9);
  check_bool "ski <= 2 optimal" true (r.ski_rental <= (2. *. r.optimal) +. 1e-9)

let test_sleep_guards () =
  Alcotest.check_raises "device" (Invalid_argument "Sleep.device: bad parameters")
    (fun () -> ignore (Sleep.device ~idle_power:0. ~wake_energy:1.));
  let inst = sample_instance 6 in
  let sched = Ss_core.Offline.optimal_schedule inst in
  Alcotest.check_raises "P(0) > 0"
    (Invalid_argument "Sleep.analyze: P(0) must be 0 (static power comes from the device model)")
    (fun () ->
      ignore
        (Sleep.analyze
           (Power.poly [ (1., 2.); (1., 0.) ])
           (Sleep.device ~idle_power:1. ~wake_energy:1.)
           sched))

(* --- OA plans: Lemmas 7 and 8 -------------------------------------------- *)

(* Lemma 7 / Lemma 10: across consecutive replans, the planned speed of
   every job still alive can only increase. *)
let prop_lemma7_speed_monotone =
  QCheck.Test.make ~count:40 ~name:"Lemma 7: planned job speeds never decrease"
    QCheck.small_nat
    (fun seed ->
      let inst =
        Ss_workload.Generators.uniform ~seed:(seed + 31) ~machines:2 ~jobs:8 ~horizon:12.
          ~max_work:4. ()
      in
      let _, _, plans = Ss_online.Oa.run_detailed inst in
      let rec ok = function
        | (a : Ss_online.Oa.plan) :: (b :: _ as rest) ->
          List.for_all
            (fun (job, s_new) ->
              match List.assoc_opt job a.job_speeds with
              | None -> true (* newly arrived *)
              | Some s_old -> s_new >= s_old -. (1e-7 *. (1. +. s_old)))
            b.job_speeds
          && ok rest
        | _ -> true
      in
      ok plans)

(* The potential audit (Theorem 2 proof properties) on random instances. *)
let prop_potential_holds =
  QCheck.Test.make ~count:15 ~name:"potential properties (a) and (b) hold"
    QCheck.small_nat
    (fun seed ->
      let inst =
        Ss_workload.Generators.uniform ~seed:(seed + 91) ~machines:2 ~jobs:7 ~horizon:12.
          ~max_work:4. ()
      in
      Ss_online.Potential.holds ~tol:1e-5 (Ss_online.Potential.audit ~alpha:2.5 inst))

let test_potential_staircase () =
  let inst = Ss_workload.Generators.staircase ~machines:2 ~levels:5 ~copies:2 () in
  let a = Ss_online.Potential.audit ~alpha:3. inst in
  check_bool "holds on the adversary" true (Ss_online.Potential.holds ~tol:1e-6 a);
  (* The integral consequence: E_OA <= a^a E_OPT. *)
  check_bool "theorem consequence" true (a.energy_oa <= (27. *. a.energy_opt) +. 1e-6)

let test_potential_guard () =
  Alcotest.check_raises "alpha" (Invalid_argument "Potential.audit: alpha <= 1") (fun () ->
      ignore (Ss_online.Potential.audit ~alpha:1. (sample_instance 1)))

let () =
  Alcotest.run "extensions"
    [
      ( "render",
        [
          Alcotest.test_case "shape" `Quick test_render_shape;
          Alcotest.test_case "empty" `Quick test_render_empty;
          Alcotest.test_case "occupancy" `Quick test_render_occupancy_matches_schedule;
          Alcotest.test_case "letters" `Quick test_job_letters;
          Alcotest.test_case "svg wellformed" `Quick test_svg_wellformed;
          Alcotest.test_case "svg empty" `Quick test_svg_empty;
          Alcotest.test_case "svg save" `Quick test_svg_save;
          Alcotest.test_case "job colors" `Quick test_job_colors_distinct;
        ] );
      ( "profile",
        [
          Alcotest.test_case "energy consistency" `Quick test_profile_energy_consistency;
          Alcotest.test_case "csv" `Quick test_profile_csv;
          Alcotest.test_case "peak" `Quick test_profile_peak;
        ] );
      ( "discrete",
        [
          Alcotest.test_case "bracket" `Quick test_bracket;
          Alcotest.test_case "quantize work/feasibility" `Quick test_quantize_preserves_work_and_feasibility;
          Alcotest.test_case "energy convexity" `Quick test_quantize_energy_convexity;
          Alcotest.test_case "guards" `Quick test_menu_guards;
        ] );
      ( "sleep",
        [
          Alcotest.test_case "gaps" `Quick test_gaps;
          Alcotest.test_case "gap costs" `Quick test_gap_costs;
          Alcotest.test_case "orderings" `Quick test_sleep_orderings;
          Alcotest.test_case "guards" `Quick test_sleep_guards;
        ] );
      ( "potential",
        [
          Alcotest.test_case "staircase" `Quick test_potential_staircase;
          Alcotest.test_case "guard" `Quick test_potential_guard;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_quantize_penalty_decreases_with_levels;
            prop_lemma7_speed_monotone;
            prop_potential_holds;
            prop_gaps_match_filter;
          ] );
    ]

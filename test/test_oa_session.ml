(* Cross-arrival solver sessions: agreement and ledger tests.

   The session OA path (a persistent Offline.F.Session plus slice-only
   materialization) is engineered to be *bit-identical* to the scratch
   planner in test/reference.ml (a fresh solver and a full
   materialization per arrival): grouped removals and in-place
   rewinds reach the same phase partition (the unique fixed point), the
   accepted flows are canonical, and [slice_of_run] replicates the segment
   order of clip-after-materialize.  These tests pin all of that down, by
   float bits, plus Lemma 7 counted from OA's plan history. *)

module Job = Ss_model.Job
module Schedule = Ss_model.Schedule
module Oa = Ss_online.Oa
module G = Ss_workload.Generators
module O = Ss_core.Offline

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A spread of workloads and machine counts for the agreement suite. *)
let traces =
  [
    ("poisson m=4 n=60", G.poisson ~seed:11 ~machines:4 ~jobs:60 ~rate:1.2 ~mean_work:2.5 ~slack:2.5 ());
    ("poisson m=2 n=30", G.poisson ~seed:5 ~machines:2 ~jobs:30 ~rate:0.8 ~mean_work:1.5 ~slack:3. ());
    ("uniform m=1 n=20", G.uniform ~seed:3 ~machines:1 ~jobs:20 ~horizon:25. ~max_work:4. ());
    ("uniform m=3 n=24", G.uniform ~seed:17 ~machines:3 ~jobs:24 ~horizon:18. ~max_work:5. ());
    ("bursty m=2 n=32", G.bursty ~seed:29 ~machines:2 ~bursts:4 ~jobs_per_burst:8 ~gap:5. ~max_work:3. ());
    ("heavy m=5 n=40", G.heavy_tailed ~seed:41 ~machines:5 ~jobs:40 ~horizon:30. ~shape:1.8 ());
  ]

(* --- session OA == scratch OA ------------------------------------------ *)

let test_session_matches_scratch () =
  List.iter
    (fun (name, inst) ->
      let s_inc, _, plans_inc = Oa.run_detailed inst in
      let s_scr, plans_scr = Reference.oa inst in
      check_bool
        (name ^ ": schedules bit-identical")
        true
        (Reference.same_schedule s_inc s_scr);
      check_bool (name ^ ": plans bit-identical") true
        (Reference.same_plans plans_inc plans_scr))
    traces

let prop_session_matches_scratch =
  QCheck.Test.make ~count:25 ~name:"session OA == scratch OA on random traces"
    QCheck.(pair (int_range 1 5) small_nat)
    (fun (machines, salt) ->
      let inst =
        G.uniform ~seed:((salt * 7919) + 13) ~machines ~jobs:(6 + (salt mod 18))
          ~horizon:16. ~max_work:4. ()
      in
      let s_inc, _ = Oa.run inst in
      let s_scr, _ = Reference.oa inst in
      Reference.same_schedule s_inc s_scr)

(* --- Session.solve == solve, solve after solve ------------------------- *)

let test_session_solve_agrees_across_solves () =
  (* Feed a session a sequence of overlapping sub-instances (growing
     prefixes of a workload), each solved on 1, 2, 4 and 8 machines in
     turn; every run must equal a fresh solve of the same jobs on the same
     machines, even though the session reuses one arena throughout and
     the machine count changes from one solve to the next. *)
  let inst = G.poisson ~seed:23 ~machines:3 ~jobs:25 ~rate:1. ~mean_work:2. ~slack:2.5 () in
  let jobs = O.float_jobs inst in
  let session = O.F.Session.create () in
  for k = 1 to Array.length jobs do
    let prefix = Array.sub jobs 0 k in
    List.iter
      (fun machines ->
        let from_session = O.F.Session.solve session ~machines prefix in
        let from_scratch = O.F.solve ~machines prefix in
        check_bool
          (Printf.sprintf "prefix %d, m=%d: session run == scratch run" k machines)
          true
          (Reference.same_run from_session from_scratch))
      [ 1; 2; 4; 8 ]
  done

(* --- slice_of_run == clip(schedule_of_run) ----------------------------- *)

let test_slice_equals_clipped_materialization () =
  List.iter
    (fun (name, (inst : Job.instance)) ->
      let run = O.run inst in
      let machines = inst.machines in
      let full =
        Array.to_list (Schedule.segments (O.schedule_of_run ~machines run))
      in
      let times = Array.to_list run.breakpoints in
      let lo_hi =
        (* grid-aligned windows plus off-grid ones *)
        (match times with
        | t0 :: _ ->
          let tn = List.nth times (List.length times - 1) in
          let mid = 0.5 *. (t0 +. tn) in
          [ (t0, tn); (t0, mid); (mid, tn); (t0 +. 0.3, mid +. 0.1) ]
        | [] -> [])
        @
        match times with
        | a :: b :: _ -> [ (a, b) ]
        | _ -> []
      in
      List.iter
        (fun (lo, hi) ->
          if hi > lo then
            check_bool
              (Printf.sprintf "%s: slice [%g,%g) == clip" name lo hi)
              true
              (Reference.same_segments
                 (O.slice_of_run ~machines run ~lo ~hi)
                 (Reference.clip_segments ~lo ~hi full)))
        lo_hi)
    traces

(* --- the Lemma 7 ledger and the other session counters ----------------- *)

(* Across the plan history: live jobs that an earlier replan also planned,
   and those of them whose planned speed did not drop, in the float
   field's approximate order. *)
let lemma7_counts (plans : Oa.plan list) =
  let prev_speed = Hashtbl.create 64 in
  let carried = ref 0 and monotone = ref 0 in
  List.iter
    (fun (p : Oa.plan) ->
      List.iter
        (fun (id, cur) ->
          (match Hashtbl.find_opt prev_speed id with
          | Some prev ->
            incr carried;
            let tol = 1e-9 *. Float.max 1. (Float.max (Float.abs prev) (Float.abs cur)) in
            if prev <= cur +. tol then incr monotone
          | None -> ());
          Hashtbl.replace prev_speed id cur)
        p.job_speeds)
    plans;
  (!carried, !monotone)

let test_session_ledger () =
  let inst = List.assoc "poisson m=4 n=60" traces in
  let _, (info : Oa.info), plans = Oa.run_detailed inst in
  let carried, monotone = lemma7_counts plans in
  check_bool "some jobs carried across replans" true (carried > 0);
  check_int "Lemma 7: every carried job kept a monotone speed" carried monotone;
  check_bool "replans happened" true (info.replans > 0);
  check_bool "rounds at least one per replan" true
    (info.total_rounds >= info.replans);
  (* The arena is grow-only: once warm it stops growing (far fewer grows
     than replans). *)
  check_bool
    (Printf.sprintf "arena grows (%d) << replans (%d)" info.arena_grows
       info.replans)
    true
    (info.arena_grows < info.replans / 2)

(* A session takes its machine count per solve, which validates it. *)
let test_session_create_validates () =
  let session = O.F.Session.create () in
  let jobs = [| { O.F.release = 0.; deadline = 1.; work = 1. } |] in
  List.iter
    (fun machines ->
      Alcotest.check_raises
        (Printf.sprintf "machines = %d rejected" machines)
        (Invalid_argument "Offline.solve: machines <= 0")
        (fun () -> ignore (O.F.Session.solve session ~machines jobs)))
    [ 0; -1 ];
  check_bool "the session still solves" true
    (Reference.same_run
       (O.F.Session.solve session ~machines:2 jobs)
       (O.F.solve ~machines:2 jobs))

let () =
  Alcotest.run "oa_session"
    [
      ( "agreement",
        [
          Alcotest.test_case "session == scratch on fixed traces" `Quick
            test_session_matches_scratch;
          QCheck_alcotest.to_alcotest prop_session_matches_scratch;
          Alcotest.test_case "Session.solve == solve across solves" `Quick
            test_session_solve_agrees_across_solves;
          Alcotest.test_case "slice == clipped materialization" `Quick
            test_slice_equals_clipped_materialization;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "Lemma 7 ledger and counters" `Quick
            test_session_ledger;
          Alcotest.test_case "create validates machines" `Quick
            test_session_create_validates;
        ] );
    ]

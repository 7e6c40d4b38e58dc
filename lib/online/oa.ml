(* Optimal Available for m processors — OA(m), Section 3.1 of the paper.

   Whenever a job arrives, recompute an optimal schedule for all currently
   available unfinished work (using the offline algorithm of Section 2) and
   follow it until the next arrival.  Theorem 2: the total energy is at
   most alpha^alpha times optimal for P(s) = s^alpha.

   At m = 1 this is exactly the classical OA of Yao, Demers and Shenker.

   Replanning runs on a cross-arrival solver session: one persistent flow
   arena and scratch workspace serve every replan, failed rounds remove
   every candidate their maximum flow cannot reach from the source at
   once, and only the plan slice up to the next arrival is materialized.
   test/reference.ml replans from scratch per arrival (a fresh solver and
   a full materialization) and the tests compare the two by float bits.

   [run_detailed] additionally records each replanning decision (the
   planned constant speed of every live job).  The plan history is where
   the paper's Lemma 7 is checked — across arrivals no live job's planned
   speed drops — and the Potential module consumes it to audit the
   Theorem 2 potential function numerically. *)

module Job = Ss_model.Job
module Schedule = Ss_model.Schedule
module Offline = Ss_core.Offline

type plan = {
  at : float;                      (* replan (arrival) time *)
  upto : float;                    (* plan followed until this time *)
  job_speeds : (int * float) list; (* planned constant speed per live job *)
}

type info = {
  replans : int;            (* offline recomputations (one per arrival time) *)
  total_rounds : int;       (* max-flow computations across all replans *)
  grouped_rounds : int;     (* failed rounds clearing > 1 victim *)
  arena_grows : int;        (* replans that had to grow the session arena *)
}

(* Relative completion tolerance of the replanning loop. *)
let tol = 1e-9

let run_detailed ?stats (inst : Job.instance) =
  (match Job.validate inst with
  | [] -> ()
  | _ -> invalid_arg "Oa.run: invalid instance");
  let session = Offline.F.Session.create () in
  let plans = ref [] in
  let replans = ref 0 in
  let total_rounds = ref 0 in
  let grouped_rounds = ref 0 in
  let planner ~now ~upto (live : Engine.live array) =
    incr replans;
    let sub_jobs =
      Array.map
        (fun (l : Engine.live) ->
          { Offline.F.release = now; deadline = l.deadline; work = l.remaining })
        live
    in
    let ids = Array.map (fun (l : Engine.live) -> l.id) live in
    let run = Offline.F.Session.solve session ~machines:inst.machines sub_jobs in
    total_rounds := !total_rounds + run.stats.rounds;
    grouped_rounds := !grouped_rounds + run.stats.grouped;
    (* Planned speed of every live job (its class speed).  The phases'
       members partition the live jobs, which come in ascending id order,
       so listing the speeds by local index lists them by id. *)
    let speed = Array.make (Array.length live) 0. in
    List.iter
      (fun (ph : Offline.F.phase) -> List.iter (fun local -> speed.(local) <- ph.speed) ph.members)
      run.schedule_phases;
    let job_speeds = List.init (Array.length live) (fun local -> (ids.(local), speed.(local))) in
    plans := { at = now; upto; job_speeds } :: !plans;
    (* Follow the plan until the next arrival: materialize only that
       slice, then remap to original ids. *)
    Offline.slice_of_run ~machines:inst.machines run ~lo:now ~hi:upto
    |> List.map (fun (s : Schedule.segment) -> { s with job = ids.(s.job) })
  in
  let schedule = Engine.replan_fold ?stats ~tol ~plan:planner inst in
  let info =
    {
      replans = !replans;
      total_rounds = !total_rounds;
      grouped_rounds = !grouped_rounds;
      arena_grows = Offline.F.Session.arena_grows session;
    }
  in
  (schedule, info, List.rev !plans)

let run ?stats inst =
  let schedule, info, _ = run_detailed ?stats inst in
  (schedule, info)

let schedule inst =
  let s, _, _ = run_detailed inst in
  s

let energy power inst = Schedule.energy power (schedule inst)

(* Theorem 2 guarantee. *)
let competitive_bound ~alpha =
  if alpha <= 1. then invalid_arg "Oa.competitive_bound: alpha <= 1";
  alpha ** alpha

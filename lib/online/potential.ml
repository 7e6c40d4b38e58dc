(* Executable audit of the Theorem 2 potential function.

   The competitive analysis of OA(m) rests on the potential

     Phi(t) =  a * sum_i s_i^(a-1) (W_OA(i) - a W_OPT(i))
             - a^2 * sum_i (s'_i)^(a-1) W'_OPT(i)

   where the classes J_i (speed s_i) partition OA's *current plan*, W_OA /
   W_OPT are the remaining works of those jobs under OA and OPT, and the
   primed sets hold jobs OA already finished but OPT has not (grouped by
   the speed OA last used).  The proof shows

     (a) Phi does not increase when a job arrives or completes, and
     (b) between events,
         sum_l P(s_OA,l) - a^a sum_l P(s_OPT,l) + dPhi/dt <= 0.

   Integrating yields E_OA <= a^a E_OPT.  This module evaluates Phi along
   an actual OA run against an actual optimal schedule and checks (a) and
   (b) piece by piece.  Both schedules are piecewise constant and the
   remaining works are linear inside a piece, so Phi is piecewise linear
   and the finite difference over a piece is its exact derivative. *)

module Job = Ss_model.Job
module Schedule = Ss_model.Schedule
module Power = Ss_model.Power

type piece = {
  t0 : float;
  t1 : float;
  oa_power : float;     (* sum_l P(s_OA,l), constant on the piece *)
  opt_power : float;    (* sum_l P(s_OPT,l) *)
  phi0 : float;
  phi1 : float;
  lhs : float;          (* oa_power - a^a opt_power + dPhi/dt  (want <= 0) *)
}

type arrival_jump = {
  time : float;
  before : float;       (* Phi just before the replan, old plan *)
  after : float;        (* Phi with the new plan *)
}

type audit = {
  alpha : float;
  pieces : piece list;
  jumps : arrival_jump list;
  max_piece_violation : float;   (* max lhs, scaled; <= tol when (b) holds *)
  max_jump_violation : float;    (* max (after - before), scaled *)
  energy_oa : float;
  energy_opt : float;
}

(* Work rate of each job in a schedule at a given instant. *)
let rates_at (sched : Schedule.t) n time =
  let r = Array.make n 0. in
  Array.iter
    (fun (s : Schedule.segment) -> if s.t0 <= time && time < s.t1 then r.(s.job) <- s.speed)
    (Schedule.segments sched);
  r

let total_power power (sched : Schedule.t) time =
  let speeds = Schedule.speeds_at sched time in
  Ss_numeric.Kahan.sum_array (Array.map (Power.eval power) speeds)

(* Group (job, speed) pairs into classes of equal speed (tolerance-based:
   class speeds coming out of the planner are bit-identical per class, but
   we stay safe). *)
let classes_of job_speed_list =
  let sorted = List.sort (fun (_, a) (_, b) -> Float.compare b a) job_speed_list in
  let rec go acc current current_speed = function
    | [] -> List.rev (if current = [] then acc else (current_speed, List.rev current) :: acc)
    | (j, s) :: rest ->
      if current = [] then go acc [ j ] s rest
      else if Float.abs (s -. current_speed) <= 1e-9 *. (1. +. current_speed) then
        go acc (j :: current) current_speed rest
      else go ((current_speed, List.rev current) :: acc) [ j ] s rest
  in
  go [] [] 0. sorted

(* Phi given the current states.
   [plan_speed]: planned speed per job (NaN when not in the plan);
   [rem_oa], [rem_opt]: remaining works; [last_speed]: speed OA last used
   for jobs it has finished. *)
let phi ~alpha ~plan_speed ~rem_oa ~rem_opt ~last_speed =
  let n = Array.length rem_oa in
  let live = ref [] in
  let finished = ref [] in
  for j = 0 to n - 1 do
    if rem_oa.(j) > 1e-9 && not (Float.is_nan plan_speed.(j)) then
      live := (j, plan_speed.(j)) :: !live
    else if rem_oa.(j) <= 1e-9 && rem_opt.(j) > 1e-12 && not (Float.is_nan last_speed.(j))
    then finished := (j, last_speed.(j)) :: !finished
  done;
  let term_live =
    Ss_numeric.Kahan.sum_list
      (List.map
         (fun (speed, members) ->
           let w_oa = Ss_numeric.Kahan.sum_list (List.map (fun j -> rem_oa.(j)) members) in
           let w_opt = Ss_numeric.Kahan.sum_list (List.map (fun j -> rem_opt.(j)) members) in
           (speed ** (alpha -. 1.)) *. (w_oa -. (alpha *. w_opt)))
         (classes_of !live))
  in
  let term_finished =
    Ss_numeric.Kahan.sum_list
      (List.map
         (fun (speed, members) ->
           let w_opt = Ss_numeric.Kahan.sum_list (List.map (fun j -> rem_opt.(j)) members) in
           (speed ** (alpha -. 1.)) *. w_opt)
         (classes_of !finished))
  in
  (alpha *. term_live) -. (alpha *. alpha *. term_finished)

let audit ~alpha (inst : Job.instance) =
  if alpha <= 1. then invalid_arg "Potential.audit: alpha <= 1";
  let power = Power.alpha alpha in
  let n = Array.length inst.jobs in
  let opt_sched = Ss_core.Offline.optimal_schedule inst in
  let oa_sched, _, plans = Oa.run_detailed inst in
  let energy_oa = Schedule.energy power oa_sched in
  let energy_opt = Schedule.energy power opt_sched in
  (* Piece boundaries: all segment boundaries of both schedules plus every
     replan time. *)
  let boundaries =
    List.sort_uniq Float.compare
      (List.concat
         [
           List.concat_map
             (fun (s : Schedule.segment) -> [ s.t0; s.t1 ])
             (Array.to_list (Schedule.segments oa_sched));
           List.concat_map
             (fun (s : Schedule.segment) -> [ s.t0; s.t1 ])
             (Array.to_list (Schedule.segments opt_sched));
           List.map (fun (p : Oa.plan) -> p.at) plans;
         ])
  in
  (* States evolved over pieces. *)
  let rem_oa = Array.map (fun (j : Job.t) -> j.work) inst.jobs in
  let rem_opt = Array.map (fun (j : Job.t) -> j.work) inst.jobs in
  let plan_speed = Array.make n Float.nan in
  let last_speed = Array.make n Float.nan in
  let current_plans = ref plans in
  let pieces = ref [] in
  let jumps = ref [] in
  let apply_plan (p : Oa.plan) time =
    let before = phi ~alpha ~plan_speed ~rem_oa ~rem_opt ~last_speed in
    List.iter (fun (j, s) -> plan_speed.(j) <- s) p.job_speeds;
    let after = phi ~alpha ~plan_speed ~rem_oa ~rem_opt ~last_speed in
    jumps := { time; before; after } :: !jumps
  in
  let rec walk = function
    | a :: (b :: _ as rest) ->
      (* Replans scheduled at time [a]. *)
      (match !current_plans with
      | p :: more when Float.abs (p.Oa.at -. a) <= 1e-12 ->
        apply_plan p a;
        current_plans := more
      | _ -> ());
      let mid = 0.5 *. (a +. b) in
      let phi0 = phi ~alpha ~plan_speed ~rem_oa ~rem_opt ~last_speed in
      let oa_rates = rates_at oa_sched n mid in
      let opt_rates = rates_at opt_sched n mid in
      let dt = b -. a in
      for j = 0 to n - 1 do
        rem_oa.(j) <- Float.max 0. (rem_oa.(j) -. (oa_rates.(j) *. dt));
        if rem_oa.(j) <= 1e-9 && oa_rates.(j) > 0. then last_speed.(j) <- plan_speed.(j);
        rem_opt.(j) <- Float.max 0. (rem_opt.(j) -. (opt_rates.(j) *. dt))
      done;
      let phi1 = phi ~alpha ~plan_speed ~rem_oa ~rem_opt ~last_speed in
      let oa_power = total_power power oa_sched mid in
      let opt_power = total_power power opt_sched mid in
      let lhs = oa_power -. ((alpha ** alpha) *. opt_power) +. ((phi1 -. phi0) /. dt) in
      pieces := { t0 = a; t1 = b; oa_power; opt_power; phi0; phi1; lhs } :: !pieces;
      walk rest
    | _ -> ()
  in
  walk boundaries;
  let pieces = List.rev !pieces in
  let jumps = List.rev !jumps in
  let scale p = Float.max 1. (p.oa_power +. ((alpha ** alpha) *. p.opt_power)) in
  let max_piece_violation =
    List.fold_left (fun acc p -> Float.max acc (p.lhs /. scale p)) neg_infinity pieces
  in
  let max_jump_violation =
    List.fold_left
      (fun acc j -> Float.max acc ((j.after -. j.before) /. Float.max 1. (Float.abs j.before)))
      neg_infinity jumps
  in
  {
    alpha;
    pieces;
    jumps;
    max_piece_violation;
    max_jump_violation;
    energy_oa;
    energy_opt;
  }

(* The integral consequence of (a) + (b): the drift inequality summed over
   pieces must bound E_OA - a^a E_OPT by the total potential drop. *)
let holds ~tol a =
  a.max_piece_violation <= tol && a.max_jump_violation <= tol

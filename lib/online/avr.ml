(* Average Rate for m processors — AVR(m), Section 3.2 / Fig. 3.

   In each unit interval I_t, every active job receives exactly its density
   δ_i = w_i / (d_i - r_i) units of work.  Jobs whose density exceeds the
   average load of the rest get a dedicated processor at speed δ_i
   (peeling); the remainder is balanced at the uniform speed Δ'/|M| and
   wrap-packed across the remaining processors by the offline solver's
   Lemma 2 packer (Offline.F.wrap_pack).  Theorem 3:
   ((2α)^α)/2 + 1 -competitive for P(s) = s^α.

   Release times and deadlines must be integral (the paper's wlog). *)

module Job = Ss_model.Job
module Schedule = Ss_model.Schedule
module Power = Ss_model.Power

type info = {
  intervals : int;
  peeled : int;            (* dedicated-processor assignments, total *)
}

(* One step of the unit-interval algorithm (the paper's Fig. 3): schedule
   density * |interval| work for each active job inside [t0, t1), peeling
   over-dense jobs onto dedicated processors.  Emits segments through
   [emit]; returns the peel count. *)
let schedule_interval ~machines ~density ~emit ~t0 ~t1 active =
  (* Same compensated adds in the same list order as
     [Kahan.sum_list (List.map ...)], minus the intermediate list — this
     runs once per unit interval on the simulators' hot path. *)
  let density_sum ids =
    let acc = Ss_numeric.Kahan.create () in
    List.iter (fun i -> Ss_numeric.Kahan.add acc density.(i)) ids;
    Ss_numeric.Kahan.total acc
  in
  let rest = ref active in
  let free = ref machines in
  let proc = ref 0 in
  let peeled = ref 0 in
  let continue_peeling = ref true in
  while !continue_peeling && !rest <> [] do
    let delta' = density_sum !rest in
    let imax =
      List.fold_left (fun acc i -> if density.(i) > density.(acc) then i else acc)
        (List.hd !rest) !rest
    in
    if density.(imax) > delta' /. float_of_int !free then begin
      assert (!free > 1);
      emit { Schedule.job = imax; proc = !proc; t0; t1; speed = density.(imax) };
      rest := List.filter (fun i -> i <> imax) !rest;
      decr free;
      incr proc;
      incr peeled
    end
    else continue_peeling := false
  done;
  if !rest <> [] then begin
    let delta' = density_sum !rest in
    let speed = delta' /. float_of_int !free in
    (* Each job runs density/speed fraction of the interval. *)
    let entries = List.map (fun i -> (i, (t1 -. t0) *. density.(i) /. speed)) !rest in
    let used =
      Ss_core.Offline.F.wrap_pack ~t0 ~t1 ~proc_offset:!proc ~speed entries
        ~emit:(fun job proc t0 t1 speed -> emit { Schedule.job; proc; t0; t1; speed })
    in
    if used > !free then failwith "Avr: packing exceeded free processors"
  end;
  !peeled

(* The sweep over the unit grid: one pass over the shared event calendar
   keeps the active set incrementally (enter at the release event, leave
   at the deadline event), so building all per-interval active lists costs
   O((n + g) log n) for g unit intervals, not the O(n g) of re-scanning
   every job per interval.  Idle stretches — no active job until the next
   calendar event — are skipped in O(1) instead of walked unit by unit.
   The set is materialized ascending by id. *)
let run ?stats (inst : Job.instance) =
  (match Job.validate inst with
  | [] -> ()
  | _ -> invalid_arg "Avr.run: invalid instance");
  if not (Job.integral_times inst) then
    invalid_arg "Avr.run: AVR(m) requires integral release times and deadlines";
  let lo, hi = Job.horizon inst in
  let t_start = int_of_float lo and t_end = int_of_float hi in
  let n = Array.length inst.jobs in
  let density = Array.init n (fun i -> Job.density inst.jobs.(i)) in
  let cal = Engine.Calendar.make inst in
  let num_events = Engine.Calendar.num_events cal in
  let active = Engine.Active.create () in
  let emitted = ref [] in
  let emit s = emitted := s :: !emitted in
  let peeled_total = ref 0 in
  let intervals_scheduled = ref 0 in
  let ev = ref 0 in
  let t = ref t_start in
  while !t < t_end do
    let ft = float_of_int !t in
    while !ev < num_events && Engine.Calendar.time cal !ev <= ft do
      List.iter (Engine.Active.add active) (Engine.Calendar.arrivals_at cal !ev);
      List.iter (Engine.Active.remove active) (Engine.Calendar.expiries_at cal !ev);
      incr ev
    done;
    if Engine.Active.is_empty active then
      (* Idle: fast-forward to the next event (or the horizon end). *)
      t :=
        if !ev < num_events then
          max (!t + 1) (int_of_float (Engine.Calendar.time cal !ev))
        else t_end
    else begin
      (* Lines 3-6 of Fig. 3. *)
      peeled_total :=
        !peeled_total
        + schedule_interval ~machines:inst.machines ~density ~emit ~t0:ft
            ~t1:(float_of_int (!t + 1))
            (Engine.Active.elements active);
      incr intervals_scheduled;
      incr t
    end
  done;
  Engine.record stats (fun c ->
      c.events <- c.events + !intervals_scheduled;
      c.set_ops <- c.set_ops + Engine.Active.ops active);
  let schedule = Schedule.make ~machines:inst.machines (List.rev !emitted) in
  Engine.record_schedule stats schedule;
  (schedule, { intervals = t_end - t_start; peeled = !peeled_total })

let schedule inst = fst (run inst)

let energy power inst = Schedule.energy power (schedule inst)

(* The classical single-processor AVR: speed Δ_t = total active density in
   I_t.  Used by experiment E5 to verify the inequality chain of the
   Theorem 3 proof. *)
let single_processor_energy power (inst : Job.instance) =
  if not (Job.integral_times inst) then
    invalid_arg "Avr.single_processor_energy: requires integral times";
  let lo, hi = Job.horizon inst in
  let t_start = int_of_float lo and t_end = int_of_float hi in
  Ss_numeric.Kahan.sum_f (t_end - t_start) (fun off ->
      let t0 = float_of_int (t_start + off) and t1 = float_of_int (t_start + off + 1) in
      let delta =
        Ss_numeric.Kahan.sum_f (Array.length inst.jobs) (fun i ->
            let j = inst.jobs.(i) in
            if j.release <= t0 && t1 <= j.deadline then Job.density j else 0.)
      in
      Power.eval power delta)

(* Theorem 3 guarantee. *)
let competitive_bound ~alpha =
  if alpha <= 1. then invalid_arg "Avr.competitive_bound: alpha <= 1";
  (((2. *. alpha) ** alpha) /. 2.) +. 1.

(* Yao et al.'s single-processor AVR guarantee, used in the proof. *)
let single_processor_bound ~alpha =
  if alpha <= 1. then invalid_arg "Avr.single_processor_bound: alpha <= 1";
  ((2. *. alpha) ** alpha) /. 2.

(* Idle-period management with a sleep state.

   The paper's conclusion points to Irani, Shukla and Gupta's model — a
   processor that burns static power even at speed 0 unless transitioned
   into a sleep state, waking at a fixed energy cost — and asks for its
   combination with multi-processor speed scaling.  This module supplies
   that combination on top of any schedule produced by the repository:

   - enumerate each processor's idle gaps over the horizon,
   - charge each gap either the idle power (stay awake) or the wake-up
     energy (sleep), via
       * the offline optimum: sleep iff gap >= break-even,
       * the classical 2-competitive ski-rental policy: stay awake for one
         break-even period, then sleep.

   Dynamic (speed-dependent) energy is unchanged; only static energy is
   managed, so results compose additively with Schedule.energy under a
   P with P(0) = 0. *)

module Schedule = Ss_model.Schedule

type device = {
  idle_power : float;   (* static power while awake and idle *)
  wake_energy : float;  (* energy to return from the sleep state *)
}

let device ~idle_power ~wake_energy =
  if idle_power <= 0. || wake_energy < 0. then invalid_arg "Sleep.device: bad parameters";
  { idle_power; wake_energy }

let break_even d = d.wake_energy /. d.idle_power

(* Idle gaps of one processor inside [lo, hi), from its segments in start
   order (the stored order of one processor).  Gaps at the horizon edges
   are included: a processor idle before its first job (or after its last)
   can sleep there too. *)
let gaps_of_proc ~lo ~hi segments =
  let busy = List.filter (fun (s : Schedule.segment) -> s.t1 > lo && s.t0 < hi) segments in
  let rec walk cursor acc = function
    | [] -> if hi > cursor then (hi -. cursor) :: acc else acc
    | (s : Schedule.segment) :: rest ->
      let acc = if s.t0 > cursor then (s.t0 -. cursor) :: acc else acc in
      walk (Float.max cursor s.t1) acc rest
  in
  List.rev (walk lo [] busy)

let gaps ?horizon (sched : Schedule.t) =
  let segments = Array.to_list (Schedule.segments sched) in
  let lo, hi =
    match horizon with
    | Some (lo, hi) -> (lo, hi)
    | None ->
      ( List.fold_left (fun acc (s : Schedule.segment) -> Float.min acc s.t0) infinity segments,
        List.fold_left (fun acc (s : Schedule.segment) -> Float.max acc s.t1) neg_infinity segments )
  in
  List.init (Schedule.machines sched) (fun proc ->
      let own = List.filter (fun (s : Schedule.segment) -> s.proc = proc) segments in
      (proc, gaps_of_proc ~lo ~hi own))

type policy = Always_on | Optimal | Ski_rental

(* Static energy of one gap under a policy.  Initial state is awake, and
   the processor must be awake again at the end of the gap. *)
let gap_cost d policy g =
  match policy with
  | Always_on -> d.idle_power *. g
  | Optimal -> Float.min (d.idle_power *. g) d.wake_energy
  | Ski_rental ->
    let be = break_even d in
    if g <= be then d.idle_power *. g else (d.idle_power *. be) +. d.wake_energy

let static_energy ?horizon d policy sched =
  Ss_numeric.Kahan.sum_list
    (List.concat_map (fun (_, gs) -> List.map (gap_cost d policy) gs) (gaps ?horizon sched))

type report = {
  dynamic : float;
  always_on : float;
  optimal : float;
  ski_rental : float;
}

(* Total energy report: dynamic part under P (must have P(0) = 0, the
   static part is what the device model charges) plus each idle policy. *)
let analyze ?horizon power d sched =
  if Ss_model.Power.eval power 0. > 0. then
    invalid_arg "Sleep.analyze: P(0) must be 0 (static power comes from the device model)";
  let dynamic = Schedule.energy power sched in
  {
    dynamic;
    always_on = static_energy ?horizon d Always_on sched;
    optimal = static_energy ?horizon d Optimal sched;
    ski_rental = static_energy ?horizon d Ski_rental sched;
  }

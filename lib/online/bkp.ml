(* The single-processor BKP algorithm (Bansal, Kimbrel, Pruhs, J.ACM 2007).

   The paper's conclusion poses the multi-processor extension of this
   algorithm as an open problem; we implement the single-processor version
   as the comparison point (it beats OA for large alpha:
   2 (alpha/(alpha-1))^alpha e^alpha competitive).

   At time t the algorithm estimates the highest density the adversary has
   committed to:

     v(t) = max_{t' > t}  w(t, e t - (e-1) t', t') / (e (t' - t))

   where w(t, t1, t2) is the work of jobs released by time t with window
   inside [t1, t2), and runs at speed e v(t), scheduling by EDF (via the
   Edf executor).

   Simulation is discretized: each inter-event span is cut into
   [steps_per_event] slices and the speed is held constant per slice.
   Discretization can leave a vanishing fraction of work unfinished at a
   deadline; [run] reports the largest such residue so callers (and tests)
   can check it shrinks with the step count.  This module is an extension
   beyond the paper's scope and is excluded from the headline
   experiments. *)

module Job = Ss_model.Job
module Schedule = Ss_model.Schedule

type outcome = {
  schedule : Schedule.t;
  max_residue : float;    (* largest unfinished fraction at any deadline *)
}

let euler = Float.exp 1.

(* w(t, t1, t2) of the definition: work of jobs released by [t] whose
   window lies inside [t1, t2). *)
let window_work (inst : Job.instance) t t1 t2 =
  Ss_numeric.Kahan.sum_f (Array.length inst.jobs) (fun i ->
      let j = inst.jobs.(i) in
      if j.release <= t && j.release >= t1 && j.deadline <= t2 then j.work else 0.)

(* v(t) against the sorted distinct deadlines: binary search for the
   first deadline > t, then fold over that suffix.  The maximum over t' of
   a ratio of a piecewise-constant numerator and linear denominator is
   attained at a deadline, so the suffix is the whole candidate set. *)
let speed_estimate (inst : Job.instance) deadlines t =
  let len = Array.length deadlines in
  let lo = ref 0 and hi = ref len in
  while !hi > !lo do
    let mid = (!lo + !hi) / 2 in
    if deadlines.(mid) <= t then lo := mid + 1 else hi := mid
  done;
  let v = ref 0. in
  for i = !lo to len - 1 do
    let t' = deadlines.(i) in
    let t1 = (euler *. t) -. ((euler -. 1.) *. t') in
    v := Float.max !v (window_work inst t t1 t' /. (euler *. (t' -. t)))
  done;
  !v

(* Event times (releases and deadlines) refined [steps_per_event]-fold. *)
let slices ~steps_per_event (inst : Job.instance) =
  let base = Engine.event_times inst in
  let rec refine acc = function
    | a :: (b :: _ as rest) ->
      let acc = ref acc in
      for s = 0 to steps_per_event - 1 do
        acc :=
          (a +. ((b -. a) *. float_of_int s /. float_of_int steps_per_event)) :: !acc
      done;
      refine !acc rest
    | [ last ] -> last :: acc
    | [] -> acc
  in
  List.sort_uniq Float.compare (refine [] base)

let run ?stats ?(steps_per_event = 64) (inst : Job.instance) =
  (match Job.validate inst with
  | [] -> ()
  | _ -> invalid_arg "Bkp.run: invalid instance");
  if inst.machines <> 1 then invalid_arg "Bkp.run: single-processor algorithm";
  (* The distinct deadlines are interned once, so each of the
     ~steps_per_event·n speed samples costs a binary search, not a sort. *)
  let deadlines =
    Array.to_list inst.jobs
    |> List.map (fun (j : Job.t) -> j.deadline)
    |> List.sort_uniq Float.compare
    |> Array.of_list
  in
  let speed_at t = euler *. speed_estimate inst deadlines t in
  let out = Edf.run ?stats ~slices:(slices ~steps_per_event inst) ~speed_at inst in
  let max_residue =
    List.fold_left
      (fun acc (i, residual) -> Float.max acc (residual /. inst.jobs.(i).work))
      0. out.unfinished
  in
  { schedule = out.schedule; max_residue }

let energy ?steps_per_event power inst =
  Schedule.energy power (run ?steps_per_event inst).schedule

let competitive_bound ~alpha =
  if alpha <= 1. then invalid_arg "Bkp.competitive_bound: alpha <= 1";
  2. *. ((alpha /. (alpha -. 1.)) ** alpha) *. (euler ** alpha)

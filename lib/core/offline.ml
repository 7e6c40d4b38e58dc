(* The paper's main contribution (Section 2, Fig. 2) as the library
   exposes it.  The solver itself (the round loop, both round oracles and
   the Lemma 2 packer) is written once, in offline_solver.ml, and compiled
   once per field (lib/core/dune): [F] on floats over [Maxflow.Float], and
   [Exact] on rationals over [Maxflow.Exact], which replays the float run
   to certify it.  This module adds the float pipeline around [F]:
   instance validation, the schedule materialization ([schedule_of_run],
   [slice_of_run]), energy from the phase structure, and the entry point
   of the exact replay. *)

module F = Offline_float
module Exact = Offline_exact

module Job = Ss_model.Job
module Power = Ss_model.Power
module Schedule = Ss_model.Schedule

let float_jobs (inst : Job.instance) =
  Array.map
    (fun (j : Job.t) -> { F.release = j.release; deadline = j.deadline; work = j.work })
    inst.jobs

(* [F.pack] emits each processor's segments in start order, so collecting
   them per processor hands [Schedule.make] its stored (proc, t0, job)
   order.  The collection doubles up to the highest processor emitted
   (at most min(m, n) of them) and never past [machines]. *)
let schedule_of_run ~machines (run : F.run) =
  let by_proc = ref [||] in
  F.pack ~machines ~first:0 ~last:(Array.length run.breakpoints - 2) run
    ~emit:(fun job proc t0 t1 speed ->
      let a = !by_proc in
      if proc >= Array.length a then begin
        by_proc := Array.make (Int.max (proc + 1) (Int.min machines (2 * Array.length a))) [];
        Array.blit a 0 !by_proc 0 (Array.length a)
      end;
      !by_proc.(proc) <- { Schedule.job; proc; t0; t1; speed } :: !by_proc.(proc));
  let segments = ref [] in
  for p = Array.length !by_proc - 1 downto 0 do
    segments := List.rev_append !by_proc.(p) !segments
  done;
  Schedule.make ~machines !segments

(* Materialize only the part of a run that overlaps [lo, hi): wrap-pack
   just the grid intervals meeting the window and clip the result.  Equal
   to clipping the full [schedule_of_run] output to the window — same
   segments in the same order — but skips packing everything outside,
   which is the common case in online replanning where a plan is only
   followed until the next arrival. *)
let slice_of_run ~machines (run : F.run) ~lo ~hi =
  let b = run.breakpoints in
  let k = Array.length b - 1 in
  let first = ref 0 in
  while !first < k && b.(!first + 1) <= lo do
    incr first
  done;
  let last = ref (!first - 1) in
  while !last + 1 < k && b.(!last + 1) < hi do
    incr last
  done;
  let segments = ref [] in
  F.pack ~machines ~first:!first ~last:!last run
    ~emit:(fun job proc t0 t1 speed ->
      let t0 = Float.max t0 lo and t1 = Float.min t1 hi in
      if t1 > t0 then segments := { Schedule.job; proc; t0; t1; speed } :: !segments);
  (* The order [Schedule.make] installs, so a slice equals the clipped
     full schedule segment for segment, in sequence. *)
  List.sort Schedule.compare_segment !segments

(* Number of independent sub-instances the decomposition layer splits the
   instance into (1 = nothing to gain from decomposition). *)
let component_count (inst : Job.instance) =
  List.length (F.components (float_jobs inst))

(* Every entry point below takes an instance [Job.validate] accepts,
   densities included, and rejects any other with one typed error. *)
let check_instance inst =
  if not (Job.is_valid inst) then invalid_arg "Offline.solve: invalid instance"

let run (inst : Job.instance) =
  check_instance inst;
  F.solve ~machines:inst.machines (float_jobs inst)

let solve (inst : Job.instance) =
  let run = run inst in
  (schedule_of_run ~machines:inst.machines run, run)

let optimal_schedule inst = fst (solve inst)

let optimal_energy power inst = Schedule.energy power (optimal_schedule inst)

(* Energy computed directly from the phase structure (each phase runs
   P(speed) for its total reserved time); equals the schedule energy and is
   cheaper when no schedule is needed. *)
let energy_of_run power (run : F.run) =
  Ss_numeric.Kahan.sum_list
    (List.map
       (fun (p : F.phase) ->
         Power.eval power p.speed *. F.phase_busy_time run p)
       run.schedule_phases)

(* Exact-rational replay: jobs are embedded exactly (floats are dyadic
   rationals) and the whole algorithm runs in exact arithmetic. *)
let exact_jobs (inst : Job.instance) =
  let r = Ss_numeric.Rational.of_float in
  Array.map
    (fun (j : Job.t) ->
      { Exact.release = r j.release; deadline = r j.deadline; work = r j.work })
    inst.jobs

let solve_exact (inst : Job.instance) =
  check_instance inst;
  Exact.solve ~machines:inst.machines (exact_jobs inst)

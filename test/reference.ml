(* A naive reference simulator for the online algorithms.

   Each function re-derives a simulator's output the slow, obvious way:
   whole-array rescans per unit interval (AVR) or per arrival (OA), a
   fresh offline solve plus a full materialization clipped to the followed
   slice for every OA replan, and BKP's v(t) rebuilt from the job array at
   every speed sample.  The library runs each simulator on one
   event-driven path (calendar, incremental active set, arena, solver
   session); the tests require that path to equal these functions by
   float bits ([same_schedule], [same_plans]), not by polymorphic [=],
   which cannot tell -0.0 from 0.0. *)

module Job = Ss_model.Job
module Schedule = Ss_model.Schedule
module Offline = Ss_core.Offline
module Avr = Ss_online.Avr
module Oa = Ss_online.Oa
module Bkp = Ss_online.Bkp
module Edf = Ss_online.Edf

(* --- float-bits comparisons --------------------------------------------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_segment (a : Schedule.segment) (b : Schedule.segment) =
  a.job = b.job && a.proc = b.proc && same_float a.t0 b.t0 && same_float a.t1 b.t1
  && same_float a.speed b.speed

let same_segments a b = List.length a = List.length b && List.for_all2 same_segment a b

let same_schedule a b =
  Schedule.machines a = Schedule.machines b
  && same_segments
       (Array.to_list (Schedule.segments a))
       (Array.to_list (Schedule.segments b))

let same_plans (a : Oa.plan list) (b : Oa.plan list) =
  let same_speed (i, s) (j, t) = i = j && same_float s t in
  List.length a = List.length b
  && List.for_all2
       (fun (p : Oa.plan) (q : Oa.plan) ->
         same_float p.at q.at && same_float p.upto q.upto
         && List.length p.job_speeds = List.length q.job_speeds
         && List.for_all2 same_speed p.job_speeds q.job_speeds)
       a b

(* --- whole-array scans --------------------------------------------------- *)

let job_ids (inst : Job.instance) = List.init (Array.length inst.jobs) Fun.id

(* Jobs released exactly at [t], ascending by id. *)
let arriving (inst : Job.instance) t =
  List.filter (fun i -> inst.jobs.(i).Job.release = t) (job_ids inst)

(* Distinct release times, ascending. *)
let arrival_times (inst : Job.instance) =
  Array.to_list inst.jobs
  |> List.map (fun (j : Job.t) -> j.release)
  |> List.sort_uniq Float.compare

(* Jobs whose window covers [lo, hi) entirely, ascending by id. *)
let active_jobs (inst : Job.instance) ~lo ~hi =
  List.filter
    (fun i ->
      let j = inst.jobs.(i) in
      j.release <= lo && hi <= j.deadline)
    (job_ids inst)

(* Segments clipped to [lo, hi); segments outside the window vanish. *)
let clip_segments ~lo ~hi segments =
  List.filter_map
    (fun (s : Schedule.segment) ->
      let t0 = Float.max s.t0 lo and t1 = Float.min s.t1 hi in
      if t1 > t0 then Some { s with t0; t1 } else None)
    segments

(* --- AVR(m): one whole-array rescan per unit interval -------------------- *)

let avr (inst : Job.instance) =
  let lo, hi = Job.horizon inst in
  let t_start = int_of_float lo and t_end = int_of_float hi in
  let density = Array.map Job.density inst.jobs in
  let segments = ref [] in
  let emit s = segments := s :: !segments in
  let peeled = ref 0 in
  for t = t_start to t_end - 1 do
    let t0 = float_of_int t and t1 = float_of_int (t + 1) in
    peeled :=
      !peeled
      + Avr.schedule_interval ~machines:inst.machines ~density ~emit ~t0 ~t1
          (active_jobs inst ~lo:t0 ~hi:t1)
  done;
  ( Schedule.make ~machines:inst.machines !segments,
    { Avr.intervals = t_end - t_start; peeled = !peeled } )

(* --- OA(m): one whole-array rescan and one scratch solve per arrival ----- *)

let oa_tol = 1e-9

let oa (inst : Job.instance) =
  let n = Array.length inst.jobs in
  let done_work = Array.make n 0. in
  let events = Array.of_list (arrival_times inst) in
  let horizon_end = snd (Job.horizon inst) in
  let slices = ref [] in
  let plans = ref [] in
  Array.iteri
    (fun e now ->
      let upto = if e + 1 < Array.length events then events.(e + 1) else horizon_end in
      let live =
        List.filter
          (fun i ->
            let j = inst.jobs.(i) in
            j.release <= now && j.work -. done_work.(i) > oa_tol *. Float.max 1. j.work)
          (job_ids inst)
      in
      if live <> [] then begin
        let ids = Array.of_list live in
        let sub =
          Array.map
            (fun i ->
              let j = inst.jobs.(i) in
              if j.deadline <= now then failwith "Reference.oa: job past its deadline";
              { Offline.F.release = now; deadline = j.deadline; work = j.work -. done_work.(i) })
            ids
        in
        let run = Offline.F.solve ~machines:inst.machines sub in
        let job_speeds =
          List.concat_map
            (fun (ph : Offline.F.phase) -> List.map (fun l -> (ids.(l), ph.speed)) ph.members)
            run.schedule_phases
          |> List.sort (fun (i1, s1) (i2, s2) ->
                 match Int.compare i1 i2 with 0 -> Float.compare s1 s2 | c -> c)
        in
        plans := { Oa.at = now; upto; job_speeds } :: !plans;
        let full = Offline.schedule_of_run ~machines:inst.machines run in
        let slice =
          clip_segments ~lo:now ~hi:upto (Array.to_list (Schedule.segments full))
          |> List.map (fun (s : Schedule.segment) -> { s with job = ids.(s.job) })
        in
        List.iter
          (fun (s : Schedule.segment) ->
            done_work.(s.job) <- done_work.(s.job) +. ((s.t1 -. s.t0) *. s.speed))
          slice;
        slices := slice :: !slices
      end)
    events;
  (Schedule.make ~machines:inst.machines (List.concat !slices), List.rev !plans)

(* --- BKP: v(t) rebuilt from the job array at every sample ---------------- *)

let bkp ?(steps_per_event = 64) (inst : Job.instance) =
  let e = Float.exp 1. in
  let window_work t t1 t2 =
    Ss_numeric.Kahan.sum_f (Array.length inst.jobs) (fun i ->
        let j = inst.jobs.(i) in
        if j.release <= t && j.release >= t1 && j.deadline <= t2 then j.work else 0.)
  in
  let v t =
    Array.to_list inst.jobs
    |> List.filter_map (fun (j : Job.t) -> if j.deadline > t then Some j.deadline else None)
    |> List.sort_uniq Float.compare
    |> List.fold_left
         (fun acc t' ->
           let t1 = (e *. t) -. ((e -. 1.) *. t') in
           Float.max acc (window_work t t1 t' /. (e *. (t' -. t))))
         0.
  in
  let out =
    Edf.run ~slices:(Bkp.slices ~steps_per_event inst) ~speed_at:(fun t -> e *. v t) inst
  in
  let max_residue =
    List.fold_left
      (fun acc (i, residual) -> Float.max acc (residual /. inst.jobs.(i).work))
      0. out.unfinished
  in
  { Bkp.schedule = out.schedule; max_residue }

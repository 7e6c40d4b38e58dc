(* Concrete schedules: per-processor timelines of (job, speed) segments.

   Every algorithm in the repository — the offline optimum, OA(m), AVR(m),
   the non-migratory baselines — materializes its decisions as a value of
   this type, so one feasibility checker and one energy accountant serve
   them all.  The Lemma 2 wrap-packing that builds the offline, OA(m)
   and AVR(m) schedules lives with the solver
   (Ss_core.Offline.F.wrap_pack), in its field arithmetic, and the
   exact-rational replay (Offline.Exact) is compiled from the same source,
   so it certifies the code that production runs.  The
   audit compares adjacent segments in the stored (proc, t0, job) order
   and in one stable sort by (job, t0): O(S log S) for S segments. *)

type segment = {
  job : int;
  proc : int;
  t0 : float;
  t1 : float;
  speed : float;
}

type t = {
  machines : int;
  segments : segment array;    (* sorted by (proc, t0, job) *)
}

let compare_segment a b =
  match Int.compare a.proc b.proc with
  | 0 -> (match Float.compare a.t0 b.t0 with 0 -> Int.compare a.job b.job | c -> c)
  | c -> c

let make ~machines segments =
  if machines <= 0 then invalid_arg "Schedule.make: machines <= 0";
  let arr = Array.of_list segments in
  Array.iter
    (fun s ->
      if s.proc < 0 || s.proc >= machines then invalid_arg "Schedule.make: processor out of range";
      if not (Float.is_finite s.t0 && Float.is_finite s.t1 && Float.is_finite s.speed) then
        invalid_arg "Schedule.make: non-finite segment";
      if not (s.t0 < s.t1) then invalid_arg "Schedule.make: empty or negative segment";
      if s.speed <= 0. then invalid_arg "Schedule.make: non-positive speed";
      if s.job < 0 then invalid_arg "Schedule.make: negative job id")
    arr;
  (* Input already in the stored order, as the offline packer hands it
     over, is kept as it is; one pair out of order sorts the whole. *)
  let n = Array.length arr in
  let i = ref 1 in
  while !i < n && compare_segment arr.(!i - 1) arr.(!i) <= 0 do
    incr i
  done;
  if !i < n then Array.sort compare_segment arr;
  { machines; segments = arr }

let empty ~machines = { machines; segments = [||] }

let machines t = t.machines
let segments t = Array.copy t.segments
let num_segments t = Array.length t.segments

let concat a b =
  if a.machines <> b.machines then invalid_arg "Schedule.concat: machine count mismatch";
  let arr = Array.append a.segments b.segments in
  Array.sort compare_segment arr;
  { machines = a.machines; segments = arr }

let duration s = s.t1 -. s.t0
let seg_work s = duration s *. s.speed

let energy power t =
  Ss_numeric.Kahan.sum_f (Array.length t.segments) (fun i ->
      let s = t.segments.(i) in
      Power.energy power ~speed:s.speed ~duration:(duration s))

let work_by_job ~jobs t =
  let w = Array.make jobs 0. in
  let acc = Array.init jobs (fun _ -> Ss_numeric.Kahan.create ()) in
  Array.iter
    (fun s -> if s.job < jobs then Ss_numeric.Kahan.add acc.(s.job) (seg_work s))
    t.segments;
  for i = 0 to jobs - 1 do
    w.(i) <- Ss_numeric.Kahan.total acc.(i)
  done;
  w

let busy_time_by_proc t =
  let b = Array.make t.machines 0. in
  Array.iter (fun s -> b.(s.proc) <- b.(s.proc) +. duration s) t.segments;
  b

let max_speed t =
  Array.fold_left (fun acc s -> Float.max acc s.speed) 0. t.segments

(* Per-processor speeds at an instant (useful for plots/inspection). *)
let speeds_at t time =
  let v = Array.make t.machines 0. in
  Array.iter
    (fun s -> if s.t0 <= time && time < s.t1 then v.(s.proc) <- s.speed)
    t.segments;
  v

(* [f a b] on each pair of consecutive segments of one job, in (job, t0)
   order.  The sort is stable over the stored (proc, t0, job) order, so
   equal starts keep processor order. *)
let iter_job_pairs t f =
  let by_job = Array.copy t.segments in
  Array.stable_sort
    (fun a b -> match Int.compare a.job b.job with 0 -> Float.compare a.t0 b.t0 | c -> c)
    by_job;
  for i = 0 to Array.length by_job - 2 do
    let a = by_job.(i) and b = by_job.(i + 1) in
    if a.job = b.job then f a b
  done

let total_migrations ~jobs t =
  let acc = ref 0 in
  iter_job_pairs t (fun a b -> if a.job < jobs && a.proc <> b.proc then incr acc);
  !acc

type infeasibility =
  | Unknown_job of int
  | Outside_window of int
  | Wrong_work of { job : int; got : float; want : float }
  | Processor_overlap of { proc : int; time : float }
  | Parallel_execution of { job : int; time : float }

let pp_infeasibility ppf = function
  | Unknown_job j -> Format.fprintf ppf "segment references unknown job %d" j
  | Outside_window j -> Format.fprintf ppf "job %d executed outside [r,d)" j
  | Wrong_work { job; got; want } ->
    Format.fprintf ppf "job %d work %.9g, required %.9g" job got want
  | Processor_overlap { proc; time } ->
    Format.fprintf ppf "processor %d double-booked near t=%.9g" proc time
  | Parallel_execution { job; time } ->
    Format.fprintf ppf "job %d on two processors near t=%.9g" job time

(* Relative tolerance of the audit on times and works. *)
let tol = 1e-6

(* Full feasibility audit against an instance. *)
let check (inst : Job.instance) t =
  let errs = ref [] in
  let n = Array.length inst.jobs in
  let push e = errs := e :: !errs in
  let rel_tol x = tol *. (1. +. Float.abs x) in
  (* Segment-level checks. *)
  Array.iter
    (fun s ->
      if s.job >= n then push (Unknown_job s.job)
      else begin
        let j = inst.jobs.(s.job) in
        if s.t0 < j.release -. rel_tol j.release || s.t1 > j.deadline +. rel_tol j.deadline
        then push (Outside_window s.job)
      end)
    t.segments;
  (* Work accounting, negated so that a NaN total is wrong work. *)
  let w = work_by_job ~jobs:n t in
  for i = 0 to n - 1 do
    let want = inst.jobs.(i).work in
    if not (Float.abs (w.(i) -. want) <= tol *. Float.max 1. want) then
      push (Wrong_work { job = i; got = w.(i); want })
  done;
  (* No processor double-booking: segments are sorted by (proc, t0). *)
  let m = Array.length t.segments in
  for i = 0 to m - 2 do
    let a = t.segments.(i) and b = t.segments.(i + 1) in
    if a.proc = b.proc && b.t0 < a.t1 -. rel_tol a.t1 then
      push (Processor_overlap { proc = a.proc; time = b.t0 })
  done;
  (* No job running on two processors at once. *)
  iter_job_pairs t (fun a b ->
      if a.job < n && b.t0 < a.t1 -. rel_tol a.t1 then
        push (Parallel_execution { job = a.job; time = b.t0 }));
  List.rev !errs

let is_feasible inst t = check inst t = []

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule m=%d (%d segments)@," t.machines (Array.length t.segments);
  Array.iter
    (fun s ->
      Format.fprintf ppf "  P%d [%.6g,%.6g) J%d s=%.6g@," s.proc s.t0 s.t1 s.job s.speed)
    t.segments;
  Format.fprintf ppf "@]"

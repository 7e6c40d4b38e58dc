(* Concrete schedules: per-processor timelines of (job, speed) segments.

   Every algorithm in the repository — the offline optimum, OA(m), AVR(m),
   the non-migratory baselines — materializes its decisions as a value of
   this type, so one feasibility checker and one energy accountant serve
   them all.  The Lemma 2 wrap-packing that builds the offline, OA(m)
   and AVR(m) schedules lives with the solver
   (Ss_core.Offline.F.wrap_pack), in its field arithmetic, and the
   exact-rational replay (Offline.Exact) is compiled from the same source,
   so it certifies the code that production runs.

   This module owns the segment order: one routine, [arrange], buckets
   segments by processor for storage and by job for the audit.  Every
   producer builds its schedule left to right, so each processor's
   segments arrive in start order and storing them sorts nothing.  The
   audit compares adjacent segments in both orders. *)

type segment = {
  job : int;
  proc : int;
  t0 : float;
  t1 : float;
  speed : float;
}

type t = {
  machines : int;
  segments : segment array;    (* by (proc, t0, job) *)
}

(* --- the one segment order ----------------------------------------------
   [arrange ~key ~cmp a]: [a] in order of [key], a non-negative int, then
   of [cmp] within one key; [a] itself when it already is.  Otherwise the
   segments are bucketed by key, stably, into a fresh array, and a bucket
   is sorted, stably, only when it arrived out of [cmp] order.  Buckets
   run up to the highest key present.  Keys as sparse as the segments (the
   highest not below their count, as a random assignment over many
   machines gives) make one bucket, so no id sizes an allocation. *)

let in_order cmp a lo hi =
  let i = ref (lo + 1) in
  while !i < hi && cmp a.(!i - 1) a.(!i) <= 0 do
    incr i
  done;
  !i >= hi

let arrange ~key ~cmp a =
  let n = Array.length a in
  let order x y = match Int.compare (key x) (key y) with 0 -> cmp x y | c -> c in
  if in_order order a 0 n then a
  else begin
    let top = Array.fold_left (fun m s -> Int.max m (key s)) 0 a in
    let b = Array.copy a in
    if top >= n then Array.stable_sort order b
    else begin
      (* [next.(k)]: the next free slot of bucket [k]; after the fill, the
         end of bucket [k]. *)
      let next = Array.make (top + 2) 0 in
      Array.iter (fun s -> next.(key s + 1) <- next.(key s + 1) + 1) a;
      for k = 1 to top do
        next.(k) <- next.(k) + next.(k - 1)
      done;
      Array.iter
        (fun s ->
          let k = key s in
          b.(next.(k)) <- s;
          next.(k) <- next.(k) + 1)
        a;
      for k = 0 to top do
        let lo = if k = 0 then 0 else next.(k - 1) and hi = next.(k) in
        if not (in_order cmp b lo hi) then begin
          let bucket = Array.sub b lo (hi - lo) in
          Array.stable_sort cmp bucket;
          Array.blit bucket 0 b lo (hi - lo)
        end
      done
    end;
    b
  end

let by_start a b = Float.compare a.t0 b.t0

(* The stored order: by processor, then start, then job. *)
let by_proc =
  arrange ~key:(fun s -> s.proc) ~cmp:(fun a b ->
      match by_start a b with 0 -> Int.compare a.job b.job | c -> c)

let stored_order segments = Array.to_list (by_proc (Array.of_list segments))

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
  { machines; segments = by_proc arr }

let empty ~machines = { machines; segments = [||] }

let machines t = t.machines
let segments t = Array.copy t.segments
let num_segments t = Array.length t.segments

let concat a b =
  if a.machines <> b.machines then invalid_arg "Schedule.concat: machine count mismatch";
  { machines = a.machines; segments = by_proc (Array.append a.segments b.segments) }

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

(* [f a b] on each pair of consecutive segments of one of the first
   [jobs] jobs, in (job, t0) order; equal starts keep the stored order, as
   a stable sort would.  Ids from [jobs] on share one bucket, so the
   buckets are sized by the job count, never by an id. *)
let iter_job_pairs ~jobs t f =
  let by_job = arrange ~key:(fun s -> Int.min s.job jobs) ~cmp:by_start t.segments in
  for i = 0 to Array.length by_job - 2 do
    let a = by_job.(i) and b = by_job.(i + 1) in
    if a.job = b.job && a.job < jobs then f a b
  done

let total_migrations ~jobs t =
  let acc = ref 0 in
  iter_job_pairs ~jobs t (fun a b -> if a.proc <> b.proc then incr acc);
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
  iter_job_pairs ~jobs:n t (fun a b ->
      if b.t0 < a.t1 -. rel_tol a.t1 then
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

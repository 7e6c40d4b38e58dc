(* Jobs and problem instances.

   A job is the triple (release, deadline, work) of the Yao–Demers–Shenker
   model; an instance adds the processor count m.  Job ids are positions in
   the instance's job array and are used as stable handles everywhere
   (schedules, flow networks, online state). *)

type t = {
  release : float;
  deadline : float;
  work : float;
}

type instance = {
  jobs : t array;
  machines : int;
}

let make ~release ~deadline ~work = { release; deadline; work }

let density j = j.work /. (j.deadline -. j.release)
let span j = j.deadline -. j.release

type error =
  | Empty_instance
  | No_machines
  | Bad_window of int       (* release >= deadline *)
  | Bad_work of int         (* work <= 0 *)
  | Not_finite of int
  | Bad_density of int      (* work / (deadline - release) is 0 or infinite *)

let validate_job i j =
  if
    not
      (Float.is_finite j.release && Float.is_finite j.deadline && Float.is_finite j.work)
  then Some (Not_finite i)
  else if j.release >= j.deadline then Some (Bad_window i)
  else if j.work <= 0. then Some (Bad_work i)
  else
    let d = density j in
    if d > 0. && Float.is_finite d then None else Some (Bad_density i)

let validate inst =
  let errs = ref [] in
  if inst.machines <= 0 then errs := [ No_machines ];
  if Array.length inst.jobs = 0 then errs := Empty_instance :: !errs;
  Array.iteri
    (fun i j -> match validate_job i j with Some e -> errs := e :: !errs | None -> ())
    inst.jobs;
  List.rev !errs

let is_valid inst = validate inst = []

let instance ~machines jobs =
  let inst = { jobs = Array.of_list jobs; machines } in
  match validate inst with
  | [] -> inst
  | e :: _ ->
    let msg =
      match e with
      | Empty_instance -> "no jobs"
      | No_machines -> "machines <= 0"
      | Bad_window i -> Printf.sprintf "job %d: release >= deadline" i
      | Bad_work i -> Printf.sprintf "job %d: work <= 0" i
      | Not_finite i -> Printf.sprintf "job %d: non-finite field" i
      | Bad_density i -> Printf.sprintf "job %d: density not a positive finite float" i
    in
    invalid_arg ("Job.instance: " ^ msg)

let num_jobs inst = Array.length inst.jobs

let horizon inst =
  let lo = Array.fold_left (fun acc j -> Float.min acc j.release) infinity inst.jobs in
  let hi = Array.fold_left (fun acc j -> Float.max acc j.deadline) neg_infinity inst.jobs in
  (lo, hi)

let total_work inst =
  Ss_numeric.Kahan.sum_f (Array.length inst.jobs) (fun i -> inst.jobs.(i).work)

(* AVR(m) assumes integral release times and deadlines (paper, Section 3.2,
   "without loss of generality"). *)
let integral_times inst =
  Array.for_all (fun j -> Float.is_integer j.release && Float.is_integer j.deadline) inst.jobs

(* Load factor: total density divided by aggregate capacity at speed 1.
   Purely descriptive (speeds are unbounded), used to label workloads. *)
let load_factor inst =
  let total_density =
    Ss_numeric.Kahan.sum_f (Array.length inst.jobs) (fun i -> density inst.jobs.(i))
  in
  total_density /. float_of_int inst.machines

let scale_work factor j = { j with work = factor *. j.work }

let scale_time factor j =
  { release = factor *. j.release; deadline = factor *. j.deadline; work = j.work }

let shift_time delta j =
  { j with release = j.release +. delta; deadline = j.deadline +. delta }

let pp ppf j =
  Format.fprintf ppf "[r=%g d=%g w=%g]" j.release j.deadline j.work

let pp_instance ppf inst =
  Format.fprintf ppf "@[<v>instance m=%d n=%d@," inst.machines (Array.length inst.jobs);
  Array.iteri (fun i j -> Format.fprintf ppf "  J%d %a@," i pp j) inst.jobs;
  Format.fprintf ppf "@]"

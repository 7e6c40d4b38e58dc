(* Independent optimum solver for the offline problem.

   The feasible region is the product of per-job simplices: job k
   distributes its work w_k over its active grid intervals.  The objective
   sums the per-interval convex oracle energies (see Oracle).  Frank-Wolfe
   over a product of simplices has a trivial linear minimization step (for
   each job, put everything on the interval with the smallest marginal
   P'(s)), and its duality gap

     gap_t = <grad E(X_t), X_t - S_t>  >=  E(X_t) - OPT

   yields a certified lower bound E(X_t) - gap_t on the true optimum.  The
   combinatorial algorithm (Ss_core.Offline) is validated against the band
   [lower_bound, energy] produced here — two completely independent
   algorithms agreeing pins the optimum down. *)

module Job = Ss_model.Job
module Interval = Ss_model.Interval
module Power = Ss_model.Power

type report = {
  energy : float;        (* objective at the returned allocation (>= OPT) *)
  lower_bound : float;   (* best certified lower bound on OPT *)
  gap : float;           (* final relative duality gap *)
  iterations : int;      (* iterations actually performed *)
}

type workspace = {
  grid : Interval.grid;
  n : int;
  machines : int;
  power : Power.t;
  job_intervals : int array array;  (* active grid intervals per job *)
  members : (int * int) array array; (* per interval: (job, slot in job_intervals) *)
}

let make_workspace power (inst : Job.instance) =
  let grid = Interval.make inst.jobs in
  let n = Array.length inst.jobs in
  let k = Interval.length grid in
  let job_intervals =
    Array.init n (fun _ -> ref [])
    |> fun refs ->
    (for j = k - 1 downto 0 do
       List.iter (fun i -> refs.(i) := j :: !(refs.(i))) (Interval.active grid j)
     done;
     Array.map (fun r -> Array.of_list !r) refs)
  in
  let members = Array.make k [||] in
  for j = 0 to k - 1 do
    let entries =
      List.map
        (fun i ->
          let slot = ref (-1) in
          Array.iteri (fun p jj -> if jj = j then slot := p) job_intervals.(i);
          (i, !slot))
        (Interval.active grid j)
    in
    members.(j) <- Array.of_list entries
  done;
  { grid; n; machines = inst.machines; power; job_intervals; members }

(* Allocation indexed as alloc.(job).(slot). *)
let initial_alloc ws (inst : Job.instance) =
  Array.init ws.n (fun i ->
      let js = ws.job_intervals.(i) in
      let total =
        Ss_numeric.Kahan.sum_f (Array.length js) (fun p -> Interval.width ws.grid js.(p))
      in
      Array.map (fun j -> inst.jobs.(i).work *. Interval.width ws.grid j /. total) js)

let interval_works ws alloc j =
  Array.map (fun (i, slot) -> alloc.(i).(slot)) ws.members.(j)

let eval_energy ws alloc =
  Ss_numeric.Kahan.sum_f (Interval.length ws.grid) (fun j ->
      if Array.length ws.members.(j) = 0 then 0.
      else
        (Oracle.solve ws.power ~l:(Interval.width ws.grid j) ~machines:ws.machines
           (interval_works ws alloc j))
          .energy)

let eval_gradient ws alloc =
  let grad = Array.map (fun row -> Array.make (Array.length row) 0.) alloc in
  for j = 0 to Interval.length ws.grid - 1 do
    if Array.length ws.members.(j) > 0 then begin
      let res =
        Oracle.solve ws.power ~l:(Interval.width ws.grid j) ~machines:ws.machines
          (interval_works ws alloc j)
      in
      let g = Oracle.gradient ws.power res in
      Array.iteri (fun idx (i, slot) -> grad.(i).(slot) <- g.(idx)) ws.members.(j)
    end
  done;
  grad

(* Linear minimization over the product of simplices + duality gap. *)
let lmo_and_gap ws (inst : Job.instance) alloc grad =
  let target = Array.map (fun row -> Array.make (Array.length row) 0.) alloc in
  let gap = Ss_numeric.Kahan.create () in
  for i = 0 to ws.n - 1 do
    let row = grad.(i) in
    let best = ref 0 in
    for p = 1 to Array.length row - 1 do
      if row.(p) < row.(!best) then best := p
    done;
    target.(i).(!best) <- inst.jobs.(i).work;
    for p = 0 to Array.length row - 1 do
      Ss_numeric.Kahan.add gap (row.(p) *. (alloc.(i).(p) -. target.(i).(p)))
    done
  done;
  (target, Ss_numeric.Kahan.total gap)

let blend alloc target gamma =
  Array.map2
    (Array.map2 (fun x s -> ((1. -. gamma) *. x) +. (gamma *. s)))
    alloc target

(* Exact-ish line search: ternary search on the convex 1-D slice. *)
let line_search ws alloc target =
  let f gamma = eval_energy ws (blend alloc target gamma) in
  let lo = ref 0. and hi = ref 1. in
  for _ = 1 to 30 do
    let a = !lo +. ((!hi -. !lo) /. 3.) in
    let b = !hi -. ((!hi -. !lo) /. 3.) in
    if f a <= f b then hi := b else lo := a
  done;
  0.5 *. (!lo +. !hi)

let solve ?(iterations = 300) ?(tol = 1e-6) power (inst : Job.instance) =
  (match Job.validate inst with
  | [] -> ()
  | _ -> invalid_arg "Frank_wolfe.solve: invalid instance");
  let ws = make_workspace power inst in
  let alloc = ref (initial_alloc ws inst) in
  let best_lb = ref neg_infinity in
  let energy = ref (eval_energy ws !alloc) in
  let iters = ref 0 in
  (try
     for _ = 1 to iterations do
       incr iters;
       let grad = eval_gradient ws !alloc in
       let target, gap = lmo_and_gap ws inst !alloc grad in
       best_lb := Float.max !best_lb (!energy -. gap);
       if gap <= tol *. Float.max 1. !energy then raise Exit;
       alloc := blend !alloc target (line_search ws !alloc target);
       energy := eval_energy ws !alloc
     done
   with Exit -> ());
  {
    energy = !energy;
    lower_bound = Float.min !best_lb !energy;
    gap = (!energy -. !best_lb) /. Float.max 1e-300 !energy;
    iterations = !iters;
  }

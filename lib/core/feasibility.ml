(* Feasibility under a speed cap.

   The paper's model allows unbounded speeds, so every valid instance is
   schedulable; real processors have a maximum frequency (the related-work
   line of speed-bounded scheduling [3, 7, 10]).  Whether an instance fits
   under a cap s_max is a single max-flow question on the Fig. 1 network
   measured in work units:

     source --(w_k)--> job k --(s_max |I_j|)--> interval j --(m s_max |I_j|)--> sink

   The instance is feasible iff the max flow moves all the work.  When it
   is not, the minimum cut yields a witness: a set of jobs whose combined
   windows simply do not contain enough processor-seconds at s_max.

   The smallest feasible cap equals the first phase speed s_1 of the
   offline algorithm (the optimum's peak speed — no schedule can have a
   smaller maximum because the optimum minimizes the speed profile in the
   majorization order).

   The network is built in a canonical frame: works and cap are scaled by
   the power of two 2^-e that brings the largest work into [1/2, 1), and
   the witness is scaled back by 2^e.  Both scalings are exact, so the
   verdict does not depend on the unit of work, while the max-flow
   tolerances and the accept test, which are absolute below 1, see
   quantities of order 1. *)

module Job = Ss_model.Job
module Interval = Ss_model.Interval
module MF = Ss_flow.Maxflow.Float

type witness = {
  jobs : int list;        (* over-demanding job set *)
  intervals : int list;   (* the grid intervals they must fit into *)
  demand : float;         (* their total work *)
  capacity : float;       (* processor-work available to them at the cap *)
}

type verdict = Feasible | Infeasible of witness

let check ~speed_cap (inst : Job.instance) =
  (match Job.validate inst with
  | [] -> ()
  | _ -> invalid_arg "Feasibility.check: invalid instance");
  (* Written so that a NaN cap fails too; +infinity passes and answers
     [Feasible]. *)
  if not (speed_cap > 0.) then invalid_arg "Feasibility.check: speed_cap <= 0";
  let grid = Interval.make inst.jobs in
  let k = Interval.length grid in
  let n = Array.length inst.jobs in
  let max_work = Array.fold_left (fun m (j : Job.t) -> Float.max m j.work) 0. inst.jobs in
  let e = snd (Float.frexp max_work) in
  let speed_cap = Float.ldexp speed_cap (-e) and work i = Float.ldexp inst.jobs.(i).work (-e) in
  (* Vertices: 0 source, 1 sink, 2..n+1 jobs, n+2.. intervals. *)
  let g = MF.create ~n:(2 + n + k) in
  let job_v i = 2 + i and ivl_v j = 2 + n + j in
  for i = 0 to n - 1 do
    ignore (MF.add_edge g ~src:0 ~dst:(job_v i) ~cap:(work i))
  done;
  for j = 0 to k - 1 do
    let width = Interval.width grid j in
    List.iter
      (fun i ->
        ignore (MF.add_edge g ~src:(job_v i) ~dst:(ivl_v j) ~cap:(speed_cap *. width)))
      (Interval.active grid j);
    ignore
      (MF.add_edge g ~src:(ivl_v j) ~dst:1
         ~cap:(float_of_int inst.machines *. speed_cap *. width))
  done;
  let value = MF.dinic g ~source:0 ~sink:1 in
  let total = Float.ldexp (Job.total_work inst) (-e) in
  if Float.abs (value -. total) <= 1e-9 *. (1. +. total) then Feasible
  else begin
    (* Min-cut witness: source-side jobs are the over-demanding set; the
       sink-side intervals they can use are where capacity ran out. *)
    let side = MF.min_cut g ~source:0 in
    let jobs = ref [] and demand = ref 0. in
    for i = n - 1 downto 0 do
      if side.(job_v i) then begin
        jobs := i :: !jobs;
        demand := !demand +. work i
      end
    done;
    let intervals = ref [] and capacity = ref 0. in
    for j = k - 1 downto 0 do
      (* Intervals on the source side contribute their full sink capacity
         to the cut, i.e. they are usable by the cut jobs. *)
      if side.(ivl_v j) then begin
        intervals := j :: !intervals;
        capacity :=
          !capacity +. (float_of_int inst.machines *. speed_cap *. Interval.width grid j)
      end
    done;
    Infeasible
      {
        jobs = !jobs;
        intervals = !intervals;
        demand = Float.ldexp !demand e;
        capacity = Float.ldexp !capacity e;
      }
  end

let feasible ~speed_cap inst =
  match check ~speed_cap inst with Feasible -> true | Infeasible _ -> false

(* The optimum's peak speed: the first (fastest) phase of the offline
   algorithm; no feasible schedule can stay below it. *)
let min_peak_speed (inst : Job.instance) =
  let run = Offline.run inst in
  match run.schedule_phases with
  | [] -> invalid_arg "Feasibility.min_peak_speed: empty instance"
  | first :: _ -> first.speed

(* Non-migratory baselines.

   The paper's introduction contrasts the migratory setting (polynomial
   offline optimum, this repository's core) with the non-migratory one,
   which is NP-hard even for unit works [Albers, Müller, Schmelzer] and is
   approached by randomized assignment [Greiner, Nonner, Souza: assign
   each job to a processor uniformly at random, then run the
   single-processor optimum per processor].  These baselines quantify the
   benefit of migration in experiment E7.

   Each strategy fixes a job -> processor assignment, then schedules every
   processor's jobs optimally (offline algorithm at m = 1). *)

module Job = Ss_model.Job
module Schedule = Ss_model.Schedule

type strategy =
  | Round_robin           (* by release order *)
  | Least_work            (* accumulated work, greedy *)
  | Random of int         (* uniform, Greiner-Nonner-Souza style; seed *)

let strategy_name = function
  | Round_robin -> "round-robin"
  | Least_work -> "least-work"
  | Random seed -> Printf.sprintf "random(seed=%d)" seed

(* Deterministic splitmix64 step, so Random assignments are reproducible
   without depending on the workload library. *)
let splitmix64 state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let assign strategy (inst : Job.instance) =
  let n = Array.length inst.jobs in
  let m = inst.machines in
  let order = Array.init n (fun i -> i) in
  (* Stable release-order processing for the greedy strategies. *)
  Array.sort
    (fun a b ->
      match Float.compare inst.jobs.(a).release inst.jobs.(b).release with
      | 0 -> Int.compare a b
      | c -> c)
    order;
  let assignment = Array.make n 0 in
  (match strategy with
  | Round_robin -> Array.iteri (fun pos i -> assignment.(i) <- pos mod m) order
  | Least_work ->
    (* One of the first n processors is empty at every pick. *)
    let width = Int.min m n in
    let load = Array.make width 0. in
    Array.iter
      (fun i ->
        let best = ref 0 in
        for l = 1 to width - 1 do
          if load.(l) < load.(!best) then best := l
        done;
        assignment.(i) <- !best;
        load.(!best) <- load.(!best) +. inst.jobs.(i).work)
      order
  | Random seed ->
    let state = ref (Int64.of_int seed) in
    for i = 0 to n - 1 do
      let r = Int64.to_int (Int64.logand (splitmix64 state) 0x3FFFFFFFL) in
      assignment.(i) <- r mod m
    done);
  assignment

let schedule_of_assignment (inst : Job.instance) assignment =
  let n = Array.length inst.jobs in
  (* The jobs grouped by processor, ascending ids within one group: only
     the processors the assignment uses, however many machines there are. *)
  let by_proc = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare assignment.(a) assignment.(b)) by_proc;
  let segments = ref [] in
  let first = ref 0 in
  while !first < n do
    let proc = assignment.(by_proc.(!first)) in
    let last = ref !first in
    while !last + 1 < n && assignment.(by_proc.(!last + 1)) = proc do
      incr last
    done;
    let ids = Array.sub by_proc !first (!last - !first + 1) in
    let sub = Job.instance ~machines:1 (Array.to_list (Array.map (fun i -> inst.jobs.(i)) ids)) in
    (* One processor's optimum, in start order: the processors in
       ascending order hand [Schedule.make] its stored order. *)
    Array.iter
      (fun (s : Schedule.segment) -> segments := { s with proc; job = ids.(s.job) } :: !segments)
      (Schedule.segments (Ss_core.Offline.optimal_schedule sub));
    first := !last + 1
  done;
  Schedule.make ~machines:inst.machines (List.rev !segments)

let solve strategy (inst : Job.instance) =
  schedule_of_assignment inst (assign strategy inst)

let energy strategy power inst = Schedule.energy power (solve strategy inst)

(* Best of several random seeds: a cheap proxy for the expectation. *)
let best_random ~tries power inst =
  if tries <= 0 then invalid_arg "Nonmigratory.best_random: tries <= 0";
  let best = ref infinity in
  for seed = 1 to tries do
    best := Float.min !best (energy (Random seed) power inst)
  done;
  !best

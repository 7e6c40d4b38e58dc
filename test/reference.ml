(* Naive references for the offline solver and the online algorithms.

   [offline] is the paper's Fig. 2 written out plainly: the whole
   instance, no decomposition, no sweep oracle and no workspace, and a
   fresh Fig. 1 network per round on [Maxflow.Float].  It runs the
   library's Dinic; what keeps it independent is the network it builds
   from scratch each round, not a second max-flow code.  Every phase
   starts from all remaining jobs.  A failed round removes, by
   default, every Lemma 4-certified job, found by a direct scan over all
   (job, interval) edges; with [~rule:Unreachable] it removes every
   candidate outside [Net.min_cut]'s source side, found by a depth-first
   search on that fresh network.  [offline_pending] is the same loop
   under the [Unreachable] rule, except that a failed round pushes its
   victims onto a stack of pending sets and each phase starts from the
   top set instead of all remaining jobs.  The library solves
   components in turn on one workspace, answers large rounds with the
   sweep oracle, removes the unreachable candidates it reads off the
   oracle's last BFS and keeps them as pending sets; the tests require
   its output to equal [offline] under both rules by float bits
   ([offline_mismatch]), [offline_pending]'s output to equal [offline]'s
   by float bits, and the library's counters to equal [offline_pending]'s
   per component.

   The online functions re-derive a simulator's output the slow, obvious
   way: whole-array rescans per unit interval (AVR) or per arrival (OA), a
   fresh offline solve plus a full materialization clipped to the followed
   slice for every OA replan, and BKP's v(t) rebuilt from the job array at
   every speed sample.  The library runs each simulator on one
   event-driven path (calendar, incremental active set, solver session);
   the tests require that path to equal these functions by float bits
   ([same_schedule], [same_plans]), not by polymorphic [=], which cannot
   tell -0.0 from 0.0.

   [schedule_of_run] is the Lemma 2 packer interval by interval, with each
   phase's allocation filtered afresh for every interval into a list that
   [List_packer]'s [wrap_pack] packs; the library counting-sorts every
   phase's allocation once into flat arrays and packs array slices, and
   the tests require equal segments by float bits.  [List_packer] (in
   both fields) and [Sorted_grid] are the block packer and the solver's
   grid as they were first written: a list per block, and the
   breakpoints by [List.sort_uniq], each window by binary search and the
   components by a sort of the jobs by release.  The library reads the
   grid off one sort of the endpoints; the tests require equal blocks,
   breakpoints by float bits, windows and components.

   [sleep_gaps] filters the whole schedule once per processor, where
   [Sleep.gaps] walks the stored order once.

   [Audit] is the schedule audit, written once over the field: one
   processor and one job at a time, each filtering and sorting the whole
   segment list.  Its float instance [check] reads [Schedule.work_by_job]'s
   totals and returns [Schedule.infeasibility] lists, and the tests
   require them to equal [Schedule.check]'s (which audits on one
   (job, t0) order) by float bits;
   [check_tight] drops the slack on times.  Its rational instance
   ([check_exact], [audit_exact]) audits what [Offline.Exact.pack] emits at
   zero tolerance, and reports job ids and processors out of range.
   [total_migrations] counts one job at a time. *)

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

let same_infeasibility (a : Schedule.infeasibility) (b : Schedule.infeasibility) =
  match (a, b) with
  | Unknown_job i, Unknown_job j | Outside_window i, Outside_window j -> i = j
  | Wrong_work a, Wrong_work b ->
    a.job = b.job && same_float a.got b.got && same_float a.want b.want
  | Processor_overlap a, Processor_overlap b -> a.proc = b.proc && same_float a.time b.time
  | Parallel_execution a, Parallel_execution b -> a.job = b.job && same_float a.time b.time
  | _ -> false

let same_infeasibilities a b =
  List.length a = List.length b && List.for_all2 same_infeasibility a b

let same_plans (a : Oa.plan list) (b : Oa.plan list) =
  let same_speed (i, s) (j, t) = i = j && same_float s t in
  List.length a = List.length b
  && List.for_all2
       (fun (p : Oa.plan) (q : Oa.plan) ->
         same_float p.at q.at && same_float p.upto q.upto
         && List.length p.job_speeds = List.length q.job_speeds
         && List.for_all2 same_speed p.job_speeds q.job_speeds)
       a b

(* Breakpoints, members, speeds, procs and every (job, interval, time)
   allocation, by float bits; the stats counters are provenance and left
   out. *)
let same_run (a : Offline.F.run) (b : Offline.F.run) =
  let same_alloc (i, j, t) (i', j', t') = i = i' && j = j' && same_float t t' in
  let same_phase (p : Offline.F.phase) (q : Offline.F.phase) =
    p.members = q.members && same_float p.speed q.speed && p.procs = q.procs
    && List.length p.alloc = List.length q.alloc
    && List.for_all2 same_alloc p.alloc q.alloc
  in
  Array.length a.breakpoints = Array.length b.breakpoints
  && Array.for_all2 same_float a.breakpoints b.breakpoints
  && List.length a.schedule_phases = List.length b.schedule_phases
  && List.for_all2 same_phase a.schedule_phases b.schedule_phases

(* --- offline (Fig. 2): a fresh network per round ------------------------- *)

module Fl = Ss_numeric.Field.Float
module Net = Ss_flow.Maxflow.Float

(* The removal rule of a failed round. *)
type rule =
  | One_hop      (* a non-full edge into an unsaturated interval (Lemma 4) *)
  | Unreachable  (* outside the source side of the minimum cut *)

(* [~pending:false] starts every phase from all remaining jobs;
   [~pending:true] from the top of a stack of pending sets, on which the
   whole instance starts and every failed round pushes its victims. *)
let fig2 ~rule ~pending (inst : Job.instance) : Offline.F.run =
  let jobs = inst.jobs and machines = inst.machines in
  let n = Array.length jobs in
  let breakpoints =
    Array.to_list jobs
    |> List.concat_map (fun (j : Job.t) -> [ j.release; j.deadline ])
    |> List.sort_uniq Float.compare |> Array.of_list
  in
  let k = Array.length breakpoints - 1 in
  let width j = breakpoints.(j + 1) -. breakpoints.(j) in
  let active i j =
    jobs.(i).release <= breakpoints.(j) && breakpoints.(j + 1) <= jobs.(i).deadline
  in
  let used = Array.make k 0 in
  let remaining = Array.make n true in
  let stack = ref [ Array.make n true ] in
  let phases = ref [] and rounds = ref 0 and removals = ref 0 in
  let grouped = ref 0 and largest_group = ref 0 in
  while Array.exists Fun.id remaining do
    let candidate =
      if pending then begin
        match !stack with
        | top :: rest ->
          stack := rest;
          top
        | [] -> failwith "Reference.offline: remaining jobs in no pending set"
      end
      else Array.copy remaining
    in
    let accepted = ref None in
    while !accepted = None do
      incr rounds;
      (* Lemma 3 reservations and the conjectured speed W / P. *)
      let procs =
        Array.init k (fun j ->
            let nj = ref 0 in
            for i = 0 to n - 1 do
              if candidate.(i) && active i j then incr nj
            done;
            min !nj (machines - used.(j)))
      in
      let time = ref 0. and work = ref 0. in
      for j = 0 to k - 1 do
        time := !time +. (float_of_int procs.(j) *. width j)
      done;
      for i = 0 to n - 1 do
        if candidate.(i) then work := !work +. jobs.(i).work
      done;
      if !time <= 0. then failwith "Reference.offline: a candidate has no reservable time";
      let speed = !work /. !time in
      (* The Fig. 1 network: source 0, sink 1, the candidates, then the
         intervals with a reservation. *)
      let next = ref 2 in
      let vertex_of present =
        Array.map
          (fun p ->
            if p then begin
              incr next;
              !next - 1
            end
            else -1)
          present
      in
      let job_v = vertex_of candidate in
      let ivl_v = vertex_of (Array.map (fun p -> p > 0) procs) in
      let g = Net.create ~n:!next in
      for i = 0 to n - 1 do
        if candidate.(i) then
          ignore (Net.add_edge g ~src:0 ~dst:job_v.(i) ~cap:(jobs.(i).work /. speed))
      done;
      let edge = Array.make_matrix n k (-1) in
      for i = 0 to n - 1 do
        for j = 0 to k - 1 do
          if candidate.(i) && procs.(j) > 0 && active i j then
            edge.(i).(j) <- Net.add_edge g ~src:job_v.(i) ~dst:ivl_v.(j) ~cap:(width j)
        done
      done;
      let sink_edge =
        Array.init k (fun j ->
            if procs.(j) > 0 then
              Net.add_edge g ~src:ivl_v.(j) ~dst:1 ~cap:(float_of_int procs.(j) *. width j)
            else -1)
      in
      ignore (Net.dinic g ~source:0 ~sink:1);
      let flow i j = if edge.(i).(j) < 0 then 0. else Net.flow_on g edge.(i).(j) in
      if Fl.equal_approx (Net.flow_value g ~source:0) !time then begin
        let members = List.filter (fun i -> candidate.(i)) (List.init n Fun.id) in
        let alloc =
          List.concat_map
            (fun i ->
              List.filter_map
                (fun j -> if Fl.sign (flow i j) > 0 then Some (i, j, flow i j) else None)
                (List.init k Fun.id))
            members
        in
        accepted := Some { Offline.F.members; speed; procs; alloc }
      end
      else begin
        let certified = Array.make n false in
        (match rule with
        | One_hop ->
          (* Lemma 4: a candidate with a non-full edge into an unsaturated
             interval is not in this speed class. *)
          let unsaturated j =
            procs.(j) > 0
            && not
                 (Fl.equal_approx (Net.flow_on g sink_edge.(j))
                    (float_of_int procs.(j) *. width j))
          in
          for i = 0 to n - 1 do
            for j = 0 to k - 1 do
              if candidate.(i) && edge.(i).(j) >= 0 && unsaturated j
                 && not (Fl.equal_approx (flow i j) (width j))
              then certified.(i) <- true
            done
          done
        | Unreachable ->
          let side = Net.min_cut g ~source:0 in
          for i = 0 to n - 1 do
            if candidate.(i) && not side.(job_v.(i)) then certified.(i) <- true
          done);
        let victims = List.filter (fun i -> certified.(i)) (List.init n Fun.id) in
        if victims = [] then failwith "Reference.offline: deficit without a certified job";
        List.iter (fun i -> candidate.(i) <- false) victims;
        if pending then stack := certified :: !stack;
        let c = List.length victims in
        removals := !removals + c;
        if c > 1 then incr grouped;
        largest_group := max !largest_group c
      end
    done;
    match !accepted with
    | None -> assert false
    | Some phase ->
      phases := phase :: !phases;
      List.iter (fun i -> remaining.(i) <- false) phase.members;
      Array.iteri (fun j p -> used.(j) <- used.(j) + p) phase.procs
  done;
  {
    breakpoints;
    schedule_phases = List.rev !phases;
    stats =
      {
        phases = List.length !phases;
        rounds = !rounds;
        removals = !removals;
        grouped = !grouped;
        largest_group = !largest_group;
        (* no persistent network: the dense-substrate counters stay 0 *)
        resumes = 0;
        net_edges = 0;
        net_pushes = 0;
        net_bfs_waves = 0;
        phase_resumes = 0;
      };
  }

let offline ?(rule = One_hop) inst = fig2 ~rule ~pending:false inst

(* The pending-set loop is exact only when a failed round's victims are
   whole classes, all slower than the ones it keeps: the [Unreachable]
   rule's, not always the [One_hop] rule's. *)
let offline_pending inst = fig2 ~rule:Unreachable ~pending:true inst

(* Where a library run of [inst] departs from [offline ~rule inst] under
   either rule, or [None].  Breakpoints, members, speeds and procs must
   agree by float bits, and every member's t_kj total within 1e-9
   relative.  Below [compress_threshold] every component is dense-sized
   too, and the library answers each round with Dinic on the component's
   part of the same Fig. 1 network, so every t_kj must agree by float
   bits as well; above it the sweep's maximum flows may split a phase's
   time differently among its members.  Agreement with the [One_hop]
   rule shows that removing the unreachable candidates leaves the fixed
   point where Lemma 4 alone leads. *)
let rule_mismatch ~rule (inst : Job.instance) (run : Offline.F.run) =
  let expected = offline ~rule inst in
  let n = Array.length inst.jobs and k = Array.length expected.breakpoints - 1 in
  let dense = n * k < Offline.F.compress_threshold in
  let totals (p : Offline.F.phase) =
    let h = Hashtbl.create 16 in
    let total i = Option.value ~default:0. (Hashtbl.find_opt h i) in
    List.iter (fun (i, _, t) -> Hashtbl.replace h i (t +. total i)) p.alloc;
    total
  in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b) in
  let phase_mismatch idx (p : Offline.F.phase) (q : Offline.F.phase) =
    let fail what = Some (Printf.sprintf "phase %d: %s" idx what) in
    if p.members <> q.members then fail "members"
    else if not (same_float p.speed q.speed) then
      fail (Printf.sprintf "speed %h, reference %h" p.speed q.speed)
    else if p.procs <> q.procs then fail "procs"
    else
      let tp = totals p and tq = totals q in
      match List.find_opt (fun i -> not (close (tp i) (tq i))) p.members with
      | Some i -> fail (Printf.sprintf "job %d: t_kj total %h, reference %h" i (tp i) (tq i))
      | None -> None
  in
  if
    not
      (Array.length run.breakpoints = Array.length expected.breakpoints
      && Array.for_all2 same_float run.breakpoints expected.breakpoints)
  then Some "breakpoints"
  else if List.length run.schedule_phases <> List.length expected.schedule_phases then
    Some
      (Printf.sprintf "%d phases, reference %d"
         (List.length run.schedule_phases)
         (List.length expected.schedule_phases))
  else
    match
      List.find_map Fun.id
        (List.mapi
           (fun idx (p, q) -> phase_mismatch idx p q)
           (List.combine run.schedule_phases expected.schedule_phases))
    with
    | Some _ as m -> m
    | None ->
      if dense && not (same_run run expected) then Some "t_kj bits (dense-sized)"
      else None

let offline_mismatch inst run =
  List.find_map
    (fun (rule, name) ->
      Option.map (fun m -> name ^ ": " ^ m) (rule_mismatch ~rule inst run))
    [ (One_hop, "one-hop"); (Unreachable, "unreachable") ]

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

(* --- the grid and the Lemma 2 block packer, sort- and list-based --------- *)

(* The solver's grid as it was first written: the breakpoints by
   [List.sort_uniq], each window by binary search, and the components by
   a sort of the jobs by release.  The library reads all three off one
   sort of the endpoints; the tests require equal breakpoints by float
   bits, equal windows and equal components. *)
module Sorted_grid = struct
  module F = Ss_numeric.Field.Float

  type job = Offline.F.job = { release : float; deadline : float; work : float }

  let sort_uniq_times jobs =
    let all =
      Array.to_list jobs
      |> List.concat_map (fun j -> [ j.release; j.deadline ])
      |> List.sort_uniq F.compare
    in
    Array.of_list all

  (* Position of time [t] in the sorted breakpoint array. *)
  let index_of breakpoints t =
    let lo = ref 0 and hi = ref (Array.length breakpoints - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if F.compare breakpoints.(mid) t < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Every job's window: its first and last grid interval. *)
  let windows breakpoints (jobs : job array) =
    Array.map
      (fun j -> (index_of breakpoints j.release, index_of breakpoints j.deadline - 1))
      jobs

  let components (jobs : job array) =
    let n = Array.length jobs in
    if n = 0 then []
    else begin
      let order = Array.init n Fun.id in
      Array.sort
        (fun a b ->
          match F.compare jobs.(a).release jobs.(b).release with
          | 0 -> Int.compare a b
          | c -> c)
        order;
      let comps = ref [] in
      let current = ref [ order.(0) ] in
      let cur_end = ref jobs.(order.(0)).deadline in
      for idx = 1 to n - 1 do
        let i = order.(idx) in
        if F.compare jobs.(i).release !cur_end >= 0 then begin
          comps := !current :: !comps;
          current := [ i ];
          cur_end := jobs.(i).deadline
        end
        else begin
          current := i :: !current;
          cur_end := F.max !cur_end jobs.(i).deadline
        end
      done;
      comps := !current :: !comps;
      List.rev_map
        (fun ids ->
          let a = Array.of_list ids in
          Array.sort Int.compare a;
          a)
        !comps
    end
end

(* The Lemma 2 block packer as it was first written, on a list of
   (job, duration) pieces, in either field.  The library's packer reads a
   block as a slice of two flat arrays; the tests require the same
   segments, by float bits on floats and exactly on rationals, the same
   processor count and the same exceptions. *)
module List_packer (F : Ss_numeric.Field.S) = struct
  let wrap_pack ~t0 ~t1 ~proc_offset ~speed ~emit entries =
    let len = F.sub t1 t0 in
    if F.compare len F.zero <= 0 then invalid_arg "Offline.wrap_pack: empty interval";
    let eps = F.slack len in
    let len_lo = F.sub len eps and len_hi = F.add len eps in
    List.iter
      (fun (_, dur) ->
        if F.compare dur len_hi > 0 then
          invalid_arg "Offline.wrap_pack: piece longer than interval")
      entries;
    let entries = List.filter (fun (_, dur) -> F.compare dur eps > 0) entries in
    let full, partial = List.partition (fun (_, dur) -> F.compare dur len_lo >= 0) entries in
    let proc = ref proc_offset and pos = ref F.zero in
    let place job a b =
      if F.compare (F.sub b a) eps > 0 then emit job !proc (F.add t0 a) (F.add t0 b) speed
    in
    List.iter
      (fun (job, dur) ->
        let dur = F.min dur len in
        if F.compare (F.add !pos dur) len_hi <= 0 then begin
          place job !pos (F.min (F.add !pos dur) len);
          pos := F.add !pos dur
        end
        else begin
          (* Split across the window boundary. *)
          let first = F.sub len !pos in
          place job !pos len;
          incr proc;
          pos := F.sub dur first;
          place job F.zero !pos
        end;
        if F.compare !pos len_lo >= 0 then begin
          incr proc;
          pos := F.zero
        end)
      (full @ partial);
    if F.compare !pos eps > 0 then !proc - proc_offset + 1 else !proc - proc_offset
end

module Float_packer = List_packer (Ss_numeric.Field.Float)
module Exact_packer = List_packer (Ss_numeric.Rational.Field)

(* --- the Lemma 2 packer: one allocation scan per (interval, phase) ------- *)

(* Interval by interval, the phases' wrap-packed blocks stacked fastest
   lowest, each block's pieces filtered out of the phase's whole
   allocation. *)
let schedule_of_run ~machines (run : Offline.F.run) =
  let segments = ref [] in
  let emit job proc t0 t1 speed = segments := { Schedule.job; proc; t0; t1; speed } :: !segments in
  for j = 0 to Array.length run.breakpoints - 2 do
    let t0 = run.breakpoints.(j) and t1 = run.breakpoints.(j + 1) in
    let offset = ref 0 in
    List.iter
      (fun (phase : Offline.F.phase) ->
        let procs = phase.procs.(j) in
        if procs > 0 then begin
          let entries =
            List.filter_map (fun (i, j', t) -> if j' = j then Some (i, t) else None) phase.alloc
          in
          if
            Float_packer.wrap_pack ~t0 ~t1 ~proc_offset:!offset ~speed:phase.speed ~emit entries
            > procs
          then failwith "Reference.schedule_of_run: packing exceeded reservation";
          offset := !offset + procs
        end)
      run.schedule_phases;
    if !offset > machines then failwith "Reference.schedule_of_run: reservations exceed machines"
  done;
  Schedule.make ~machines !segments

(* Where the library's packer departs from [schedule_of_run] by float
   bits, or [None]: [Offline.schedule_of_run] on the whole run, then
   [Offline.slice_of_run] on the whole horizon and on 20 windows drawn
   from [seed], each against the reference schedule clipped to it. *)
let packing_mismatch ~machines ~seed (run : Offline.F.run) =
  let expected = schedule_of_run ~machines run in
  if not (same_schedule (Offline.schedule_of_run ~machines run) expected) then
    Some "schedule_of_run"
  else
    let b = run.breakpoints in
    let lo = b.(0) and hi = b.(Array.length b - 1) in
    let rng = Ss_workload.Rng.create ~seed in
    let windows =
      (lo, hi)
      :: List.init 20 (fun _ ->
             let x = Ss_workload.Rng.uniform rng ~lo ~hi
             and y = Ss_workload.Rng.uniform rng ~lo ~hi in
             (Float.min x y, Float.max x y))
    in
    let full = Array.to_list (Schedule.segments expected) in
    List.find_map
      (fun (lo, hi) ->
        if
          hi > lo
          && not
               (same_segments (Offline.slice_of_run ~machines run ~lo ~hi)
                  (clip_segments ~lo ~hi full))
        then Some (Printf.sprintf "slice_of_run [%h, %h)" lo hi)
        else None)
      windows

(* --- the schedule audit, written once over the field ------------------- *)

(* What the audit reports, in the field's times and works. *)
type 'a problem =
  | Unknown_job of int
  | Unknown_processor of int
  | Outside_window of int
  | Wrong_work of { job : int; got : 'a; want : 'a }
  | Processor_overlap of { proc : int; time : 'a }
  | Parallel_execution of { job : int; time : 'a }

module Audit (F : Ss_numeric.Field.S) = struct
  type segment = { job : int; proc : int; t0 : F.t; t1 : F.t; speed : F.t }

  (* Work per job of [0, jobs), summed in segment order. *)
  let work_by_job ~jobs segments =
    let w = Array.make jobs F.zero in
    List.iter
      (fun s ->
        if 0 <= s.job && s.job < jobs then
          w.(s.job) <- F.add w.(s.job) (F.mul (F.sub s.t1 s.t0) s.speed))
      segments;
    w

  (* [f] on each pair of consecutive segments, in start order, among the
     segments [keep] accepts; equal starts keep list order. *)
  let iter_pairs keep f segments =
    let rec go = function
      | a :: (b :: _ as rest) ->
        f a b;
        go rest
      | _ -> ()
    in
    go (List.stable_sort (fun a b -> F.compare a.t0 b.t0) (List.filter keep segments))

  (* A time may cross a bound [x] by [tol * (1 + |x|)], and job [i]'s
     total [work.(i)] may miss its work by [work_tol * max 1 work]: the
     windows, then the works, then each processor and each job in turn,
     one filter and sort each. *)
  let check ~tol ~work_tol ~machines ~work (inst : Job.instance) segments =
    let errs = ref [] in
    let push e = errs := e :: !errs in
    let n = Array.length inst.jobs in
    let slack x = F.mul tol (F.add F.one (F.abs x)) in
    let before a b = F.compare a (F.sub b (slack b)) < 0 in
    let after a b = F.compare a (F.add b (slack b)) > 0 in
    List.iter
      (fun s ->
        if s.proc < 0 || s.proc >= machines then push (Unknown_processor s.proc);
        if s.job < 0 || s.job >= n then push (Unknown_job s.job)
        else begin
          let j = inst.jobs.(s.job) in
          if before s.t0 (F.of_float j.release) || after s.t1 (F.of_float j.deadline) then
            push (Outside_window s.job)
        end)
      segments;
    for i = 0 to n - 1 do
      let want = F.of_float inst.jobs.(i).work in
      (* |got - want| > bound, negated so that a NaN total, which
         [Float.compare] orders below every number, is wrong work. *)
      let bound = F.mul work_tol (F.max F.one want) in
      if F.compare (F.neg (F.abs (F.sub work.(i) want))) (F.neg bound) < 0 then
        push (Wrong_work { job = i; got = work.(i); want })
    done;
    for p = 0 to machines - 1 do
      iter_pairs
        (fun s -> s.proc = p)
        (fun a b -> if before b.t0 a.t1 then push (Processor_overlap { proc = p; time = b.t0 }))
        segments
    done;
    for i = 0 to n - 1 do
      iter_pairs
        (fun s -> s.job = i)
        (fun a b -> if before b.t0 a.t1 then push (Parallel_execution { job = i; time = b.t0 }))
        segments
    done;
    List.rev !errs
end

module Float_audit = Audit (Ss_numeric.Field.Float)
module Exact_audit = Audit (Ss_numeric.Rational.Field)

(* The float instance on a schedule's stored segments, with the work
   totals [Schedule.check] reads. *)
let float_audit ~tol ~work_tol (inst : Job.instance) t =
  let segments =
    Array.to_list (Schedule.segments t)
    |> List.map (fun (s : Schedule.segment) ->
           { Float_audit.job = s.job; proc = s.proc; t0 = s.t0; t1 = s.t1; speed = s.speed })
  in
  Float_audit.check ~tol ~work_tol ~machines:(Schedule.machines t)
    ~work:(Schedule.work_by_job ~jobs:(Array.length inst.jobs) t)
    inst segments

(* [Schedule.check]'s tolerance, 1e-6 relative on times and works, and
   its report type; [Schedule.make] keeps every processor in range. *)
let check inst t =
  List.map
    (function
      | Unknown_job j -> Schedule.Unknown_job j
      | Unknown_processor p -> invalid_arg (Printf.sprintf "Reference.check: processor %d" p)
      | Outside_window j -> Outside_window j
      | Wrong_work { job; got; want } -> Wrong_work { job; got; want }
      | Processor_overlap { proc; time } -> Processor_overlap { proc; time }
      | Parallel_execution { job; time } -> Parallel_execution { job; time })
    (float_audit ~tol:1e-6 ~work_tol:1e-6 inst t)

(* No slack on times, and 1e-9 relative on works. *)
let check_tight inst t = float_audit ~tol:0. ~work_tol:1e-9 inst t

(* What [Offline.Exact.pack] emits for a whole exact run, in order. *)
let exact_segments ~machines (run : Offline.Exact.run) =
  let segments = ref [] in
  Offline.Exact.pack ~machines ~first:0 ~last:(Array.length run.breakpoints - 2) run
    ~emit:(fun job proc t0 t1 speed ->
      segments := { Exact_audit.job; proc; t0; t1; speed } :: !segments);
  List.rev !segments

(* The rational instance at zero tolerance. *)
let audit_exact (inst : Job.instance) segments =
  let zero = Ss_numeric.Rational.zero in
  Exact_audit.check ~tol:zero ~work_tol:zero ~machines:inst.machines
    ~work:(Exact_audit.work_by_job ~jobs:(Array.length inst.jobs) segments)
    inst segments

(* An exact run of [inst], packed, at zero tolerance. *)
let check_exact (inst : Job.instance) run =
  audit_exact inst (exact_segments ~machines:inst.machines run)

(* --- migrations: one filter and sort per job ---------------------------- *)

(* A job's segments in start order; equal starts keep the stored
   (proc, t0, job) order, because [List.sort] is stable. *)
let job_segments t job =
  Array.to_list (Schedule.segments t)
  |> List.filter (fun (s : Schedule.segment) -> s.job = job)
  |> List.sort (fun (a : Schedule.segment) b -> Float.compare a.t0 b.t0)

let job_migrations t job =
  let rec count acc = function
    | (a : Schedule.segment) :: (b :: _ as rest) ->
      count (if a.proc <> b.proc then acc + 1 else acc) rest
    | _ -> acc
  in
  count 0 (job_segments t job)

let total_migrations ~jobs t =
  let acc = ref 0 in
  for j = 0 to jobs - 1 do
    acc := !acc + job_migrations t j
  done;
  !acc

(* --- sleep gaps: one filter of the whole schedule per processor ------------ *)

(* [Sleep.gaps] as it was first written: every processor's segments
   filtered out of the whole stored list, then walked in start order.
   The library walks the stored (proc, t0, job) order once. *)
let sleep_gaps ?horizon (sched : Schedule.t) =
  let gaps_of_proc ~lo ~hi segments =
    let busy = List.filter (fun (s : Schedule.segment) -> s.t1 > lo && s.t0 < hi) segments in
    let rec walk cursor acc = function
      | [] -> if hi > cursor then (hi -. cursor) :: acc else acc
      | (s : Schedule.segment) :: rest ->
        let acc = if s.t0 > cursor then (s.t0 -. cursor) :: acc else acc in
        walk (Float.max cursor s.t1) acc rest
    in
    List.rev (walk lo [] busy)
  in
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
        let full = schedule_of_run ~machines:inst.machines run in
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

(* Shared machinery for event-driven online simulation.

   Online algorithms see jobs at their release times.  The simulation
   advances from arrival to arrival; whatever plan the algorithm commits to
   for the open horizon is clipped to the slice up to the next arrival,
   appended to the emerging online schedule, and charged against the jobs'
   remaining work.

   One sorted event calendar ([Calendar]) is built up front; after that a
   simulation pays O(log n + output) per event: arrivals and expiries are
   bucketed by interned event id (no float-equality scans), the active set
   is maintained incrementally ([Active]: add on release, remove on
   deadline or completion), and segments land in a growable arena
   ([Arena]) instead of repeated list concatenation over the emerging
   schedule.  AVR(m), OA(m), BKP and EDF all run on this layer;
   test/reference.ml re-derives their outputs with naive whole-array
   rescans and the tests compare the two by float bits. *)

module Job = Ss_model.Job
module Schedule = Ss_model.Schedule

(* --- the event calendar ------------------------------------------------ *)

module Calendar = struct
  (* Distinct event times (releases and deadlines) interned into dense
     event ids.  Jobs are bucketed by the event id of their release
     (arrivals) and deadline (expiries), so a simulation step never needs
     a float-equality scan to find "the jobs released now": two releases
     land in the same bucket iff they are the same float, and distinct
     floats — even ones differing only by noise — get distinct events
     instead of being silently dropped. *)
  type t = {
    times : float array;           (* distinct event times, ascending *)
    release_event : int array;     (* job id -> event id of its release *)
    deadline_event : int array;    (* job id -> event id of its deadline *)
    arrivals : int list array;     (* event id -> jobs released there, ascending *)
    expiries : int list array;     (* event id -> jobs expiring there, ascending *)
    arrival_events : int array;    (* event ids with >= 1 arrival, ascending *)
  }

  (* Exact binary search: the index of [t] in [times], if present. *)
  let index_of times t =
    let lo = ref 0 and hi = ref (Array.length times - 1) in
    if Array.length times = 0 || t < times.(0) || t > times.(!hi) then None
    else begin
      while !hi > !lo do
        let mid = (!lo + !hi) / 2 in
        if times.(mid) < t then lo := mid + 1 else hi := mid
      done;
      if times.(!lo) = t then Some !lo else None
    end

  let make (inst : Job.instance) =
    let n = Array.length inst.jobs in
    let raw = Array.make (2 * n) 0. in
    for i = 0 to n - 1 do
      raw.(2 * i) <- inst.jobs.(i).release;
      raw.((2 * i) + 1) <- inst.jobs.(i).deadline
    done;
    Array.sort Float.compare raw;
    (* In-place dedup of the sorted times. *)
    let distinct = ref 0 in
    for i = 0 to (2 * n) - 1 do
      if i = 0 || raw.(i) <> raw.(i - 1) then begin
        raw.(!distinct) <- raw.(i);
        incr distinct
      end
    done;
    let times = Array.sub raw 0 !distinct in
    let release_event = Array.make n 0 in
    let deadline_event = Array.make n 0 in
    let arrivals = Array.make !distinct [] in
    let expiries = Array.make !distinct [] in
    (* Descending job order keeps the buckets ascending by id. *)
    for i = n - 1 downto 0 do
      let r =
        match index_of times inst.jobs.(i).release with
        | Some e -> e
        | None -> assert false
      in
      let d =
        match index_of times inst.jobs.(i).deadline with
        | Some e -> e
        | None -> assert false
      in
      release_event.(i) <- r;
      deadline_event.(i) <- d;
      arrivals.(r) <- i :: arrivals.(r);
      expiries.(d) <- i :: expiries.(d)
    done;
    let arrival_events =
      let ids = ref [] in
      for e = !distinct - 1 downto 0 do
        if arrivals.(e) <> [] then ids := e :: !ids
      done;
      Array.of_list !ids
    in
    { times; release_event; deadline_event; arrivals; expiries; arrival_events }

  let num_events c = Array.length c.times
  let time c e = c.times.(e)
  let arrivals_at c e = c.arrivals.(e)
  let expiries_at c e = c.expiries.(e)
  let release_event c i = c.release_event.(i)
  let deadline_event c i = c.deadline_event.(i)
  let arrival_events c = c.arrival_events
  let find c t = index_of c.times t
end

(* --- the incremental active set ---------------------------------------- *)

module Iset = Set.Make (Int)

module Active = struct
  (* Released-and-live job ids: add on release, remove on deadline or
     completion, O(log n) per operation.  [elements] materializes the set
     ascending by id.  [ops] counts insertions plus removals. *)
  type t = { mutable set : Iset.t; mutable ops : int }

  let create () = { set = Iset.empty; ops = 0 }

  let add t i =
    t.set <- Iset.add i t.set;
    t.ops <- t.ops + 1

  let remove t i =
    t.set <- Iset.remove i t.set;
    t.ops <- t.ops + 1

  let elements t = Iset.elements t.set
  let is_empty t = Iset.is_empty t.set
  let ops t = t.ops
end

(* --- the segment arena ------------------------------------------------- *)

module Arena = struct
  (* Growable segment store (amortized O(1) emission, doubling growth).
     [Schedule.make] stores its input in (proc, t0, job) order, a key
     unique in a feasible schedule, so the one conversion's order is
     immaterial. *)
  type t = {
    mutable buf : Schedule.segment array;
    mutable len : int;
    mutable high_water : int;       (* largest capacity ever allocated *)
  }

  let dummy = { Schedule.job = 0; proc = 0; t0 = 0.; t1 = 1.; speed = 1. }

  let create ?(capacity = 256) () =
    let capacity = max capacity 1 in
    { buf = Array.make capacity dummy; len = 0; high_water = capacity }

  let length t = t.len
  let high_water t = t.high_water

  let emit t s =
    if t.len = Array.length t.buf then begin
      let bigger = Array.make (2 * t.len) dummy in
      Array.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger;
      t.high_water <- 2 * t.len
    end;
    t.buf.(t.len) <- s;
    t.len <- t.len + 1

  (* Reverse emission order: [e0; e1; e2] -> [e2; e1; e0]. *)
  let to_list_rev t =
    let acc = ref [] in
    for i = 0 to t.len - 1 do
      acc := t.buf.(i) :: !acc
    done;
    !acc
end

(* --- per-simulation counters ------------------------------------------- *)

type counters = {
  mutable events : int;           (* calendar events / intervals processed *)
  mutable set_ops : int;          (* active-set insertions + removals *)
  mutable emitted : int;          (* segments emitted *)
  mutable arena_high_water : int; (* largest arena capacity reached *)
}

let counters () = { events = 0; set_ops = 0; emitted = 0; arena_high_water = 0 }

let record stats f = match stats with Some c -> f c | None -> ()

let record_arena stats (arena : Arena.t) =
  record stats (fun c ->
      c.emitted <- c.emitted + Arena.length arena;
      c.arena_high_water <- max c.arena_high_water (Arena.high_water arena))

(* --- shared helpers ----------------------------------------------------- *)

(* Distinct event times (releases and deadlines), ascending: the base grid
   shared by the discretized simulators. *)
let event_times (inst : Job.instance) =
  Array.to_list inst.jobs
  |> List.concat_map (fun (j : Job.t) -> [ j.release; j.deadline ])
  |> List.sort_uniq Float.compare

(* Work performed per job by a list of segments, added into [acc]. *)
let charge_work acc segments =
  List.iter
    (fun (s : Schedule.segment) ->
      acc.(s.job) <- acc.(s.job) +. ((s.t1 -. s.t0) *. s.speed))
    segments

(* Relative completion test: remaining work below [tol] of the original. *)
let finished ~tol ~work ~done_ = work -. done_ <= tol *. Float.max 1. work

(* --- the shared replanning loop ---------------------------------------
   Every replan-at-arrivals algorithm (OA(m)) advances through the same
   skeleton: at each distinct release time, gather the live jobs
   (released, unfinished), ask the planner for the slice of its plan up to
   the next arrival, charge the slice against remaining work and append it
   to the emerging schedule.  Only the planner differs, so it is the
   parameter.

   The loop walks the calendar's arrival events once, keeping the live set
   incrementally: a job enters at its release event and leaves when a
   charged slice completes it, so an event costs O(|live| + slice). *)

type live = { id : int; remaining : float; deadline : float }

let replan_fold ?stats ~tol ~plan (inst : Job.instance) =
  let n = Array.length inst.jobs in
  let done_work = Array.make n 0. in
  let cal = Calendar.make inst in
  let horizon_end = snd (Job.horizon inst) in
  let arrivals = Calendar.arrival_events cal in
  let num_arrivals = Array.length arrivals in
  let active = Active.create () in
  let arena = Arena.create () in
  for e = 0 to num_arrivals - 1 do
    let ev = arrivals.(e) in
    let now = Calendar.time cal ev in
    let upto =
      if e + 1 < num_arrivals then Calendar.time cal arrivals.(e + 1) else horizon_end
    in
    List.iter (fun i -> Active.add active i) (Calendar.arrivals_at cal ev);
    (* Materialize the live array (ascending ids), dropping completed jobs
       from the set as they are discovered. *)
    let live = ref [] in
    let completed = ref [] in
    List.iter
      (fun i ->
        let j = inst.jobs.(i) in
        if finished ~tol ~work:j.work ~done_:done_work.(i) then completed := i :: !completed
        else begin
          if j.deadline <= now then
            failwith "Engine.replan_fold: job past deadline (drift bug)";
          live := { id = i; remaining = j.work -. done_work.(i); deadline = j.deadline }
                  :: !live
        end)
      (Active.elements active);
    List.iter (fun i -> Active.remove active i) !completed;
    (match !live with
    | [] -> ()
    | live ->
      let slice = plan ~now ~upto (Array.of_list (List.rev live)) in
      charge_work done_work slice;
      List.iter (Arena.emit arena) slice)
  done;
  record stats (fun c ->
      c.events <- c.events + num_arrivals;
      c.set_ops <- c.set_ops + Active.ops active);
  record_arena stats arena;
  Schedule.make ~machines:inst.machines (Arena.to_list_rev arena)

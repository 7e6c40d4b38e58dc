(* Earliest-Deadline-First execution of a given speed profile on one
   processor.

   Classical fact: on a single processor, if *any* job order finishes
   everything by its deadline under a given speed profile, EDF does.  This
   executor turns a speed policy (a function of time, held constant per
   supplied slice) into a concrete schedule: at every moment it runs the
   released, unfinished job with the earliest deadline, switching jobs at
   completions and arrivals.  BKP and other speed-profile-based online
   strategies plug their speed functions in here.

   Slices are provided by the caller (arrivals/deadlines plus any
   refinement); the job choice is re-evaluated within a slice only at
   completions, using a deadline-ordered heap. *)

module Job = Ss_model.Job
module Schedule = Ss_model.Schedule

type outcome = {
  schedule : Schedule.t;
  unfinished : (int * float) list;  (* job, remaining work at its deadline *)
}

(* [slices]: ascending time points cutting the horizon; [speed_at t] is
   held constant on each [a, b) slice, sampled at [a].  A release-sorted
   feed and a deadline-ordered heap give O(log n) per job transition;
   segments go to the shared arena ([Engine.Arena], amortized O(1)
   emission). *)
let run ?stats ~slices ~speed_at (inst : Job.instance) =
  (match Job.validate inst with
  | [] -> ()
  | _ -> invalid_arg "Edf.run: invalid instance");
  if inst.machines <> 1 then invalid_arg "Edf.run: single-processor executor";
  let n = Array.length inst.jobs in
  let remaining = Array.map (fun (j : Job.t) -> j.work) inst.jobs in
  let unfinished = ref [] in
  let arena = Engine.Arena.create () in
  let emit s = Engine.Arena.emit arena s in
  let heap_ops = ref 0 in
  let slice_count = ref 0 in
  (* Jobs sorted by release; fed into the live heap as time passes. *)
  let by_release =
    List.init n Fun.id
    |> List.sort (fun a b -> Float.compare inst.jobs.(a).release inst.jobs.(b).release)
    |> ref
  in
  let live =
    Ss_numeric.Heap.create
      ~compare:(fun a b -> Float.compare inst.jobs.(a).deadline inst.jobs.(b).deadline)
  in
  let admit_until t =
    let rec go () =
      match !by_release with
      | i :: rest when inst.jobs.(i).release <= t ->
        incr heap_ops;
        Ss_numeric.Heap.push live i;
        by_release := rest;
        go ()
      | _ -> ()
    in
    go ()
  in
  let expire_until t =
    (* Drop past-deadline jobs from the head, recording residues. *)
    let rec go () =
      match Ss_numeric.Heap.peek live with
      | Some i when inst.jobs.(i).deadline <= t ->
        incr heap_ops;
        ignore (Ss_numeric.Heap.pop live);
        if remaining.(i) > 1e-9 then unfinished := (i, remaining.(i)) :: !unfinished;
        go ()
      | _ -> ()
    in
    go ()
  in
  let rec slice = function
    | a :: (b :: _ as rest) ->
      incr slice_count;
      admit_until a;
      expire_until a;
      let speed = speed_at a in
      if speed > 0. then begin
        (* Work through the heap within [a, b). *)
        let cursor = ref a in
        let continue = ref true in
        while !continue && !cursor < b -. 1e-12 do
          match Ss_numeric.Heap.peek live with
          | None -> continue := false
          | Some i ->
            if remaining.(i) <= 1e-12 then begin
              incr heap_ops;
              ignore (Ss_numeric.Heap.pop live)
            end
            else begin
              let need = remaining.(i) /. speed in
              let dt = Float.min need (b -. !cursor) in
              emit { Schedule.job = i; proc = 0; t0 = !cursor; t1 = !cursor +. dt; speed };
              remaining.(i) <- remaining.(i) -. (dt *. speed);
              cursor := !cursor +. dt;
              if remaining.(i) <= 1e-12 then begin
                incr heap_ops;
                ignore (Ss_numeric.Heap.pop live)
              end
            end
        done
      end;
      slice rest
    | [ last ] ->
      admit_until last;
      expire_until (last +. 1.)
    | [] -> ()
  in
  slice slices;
  (* Jobs never expired (heap leftovers past the final slice). *)
  Ss_numeric.Heap.iter_unordered live (fun i ->
      if remaining.(i) > 1e-9 then unfinished := (i, remaining.(i)) :: !unfinished);
  Engine.record stats (fun c ->
      c.events <- c.events + !slice_count;
      c.set_ops <- c.set_ops + !heap_ops);
  Engine.record_arena stats arena;
  {
    schedule =
      Schedule.make ~machines:1
        (List.filter
           (fun (s : Schedule.segment) -> s.t1 > s.t0)
           (Engine.Arena.to_list_rev arena));
    unfinished = List.rev !unfinished;
  }

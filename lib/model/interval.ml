(* The interval grid I_1, ..., I_k of the paper: the time horizon cut
   at every distinct release time and deadline.  Inside one grid interval
   the set of active jobs is constant, which is what makes the flow network
   of Section 2 finite. *)

type grid = {
  times : float array;            (* sorted, de-duplicated breakpoints *)
  active : int list array;        (* active job ids per interval, ascending *)
  active_count : int array;
}

let length g = Array.length g.times - 1
let width g j = g.times.(j + 1) -. g.times.(j)
let active g j = g.active.(j)
let active_count g j = g.active_count.(j)

let make (jobs : Job.t array) =
  if Array.length jobs = 0 then invalid_arg "Interval.make: no jobs";
  let times =
    Array.fold_left (fun acc (j : Job.t) -> j.release :: j.deadline :: acc) [] jobs
    |> List.sort_uniq Float.compare |> Array.of_list
  in
  if Array.length times < 2 then invalid_arg "Interval.make: degenerate horizon";
  let k = Array.length times - 1 in
  let active = Array.make k [] in
  let active_count = Array.make k 0 in
  for j = k - 1 downto 0 do
    let lo = times.(j) and hi = times.(j + 1) in
    let ids = ref [] in
    Array.iteri
      (fun i (job : Job.t) ->
        (* Active means the whole interval fits into [release, deadline). *)
        if job.release <= lo && hi <= job.deadline then ids := i :: !ids)
      jobs;
    active.(j) <- List.rev !ids;
    active_count.(j) <- List.length active.(j)
  done;
  { times; active; active_count }

(* Index of the interval containing time [t] (intervals are half-open
   [times.(j), times.(j+1))). *)
let locate g t =
  let n = Array.length g.times in
  if t < g.times.(0) || t >= g.times.(n - 1) then None
  else begin
    (* Binary search for the rightmost breakpoint <= t. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if g.times.(mid) <= t then lo := mid else hi := mid
    done;
    Some !lo
  end

let total_width g =
  Ss_numeric.Kahan.sum_f (length g) (fun j -> width g j)

let pp ppf g =
  Format.fprintf ppf "@[<v>grid (%d intervals)@," (length g);
  for j = 0 to length g - 1 do
    Format.fprintf ppf "  I%d [%g,%g) active={%s}@," j g.times.(j) g.times.(j + 1)
      (String.concat "," (List.map string_of_int (active g j)))
  done;
  Format.fprintf ppf "@]"

(* Discrete speed levels.

   Real DVFS hardware offers a finite menu of frequencies (the paper's
   related-work line of Li, Yao et al. [12,13] studies this variant).  The
   classical reduction applies verbatim to the multi-processor migratory
   setting because our continuous optimum is simultaneously optimal for
   every convex non-decreasing power function:

   Replace each execution piece at (continuous) speed s by the two adjacent
   allowed levels s_lo <= s <= s_hi, splitting the piece's time so the work
   is unchanged.  The resulting energy equals the continuous optimum's
   energy under the piecewise-linear interpolation P^ of P through the
   allowed levels.  Since the continuous schedule is optimal under P^ as
   well, and P^ agrees with P on the allowed speeds, the construction is
   optimal among all discrete-speed schedules.

   Speed 0 (idle) is always allowed, so speeds below the lowest level are
   realized by duty-cycling between the lowest level and idle. *)

module Schedule = Ss_model.Schedule
module Power = Ss_model.Power

type levels = float array (* sorted ascending, strictly positive *)

exception Speed_out_of_range of float

let make_levels speeds =
  let arr = Array.of_list (List.sort_uniq Float.compare speeds) in
  if Array.length arr = 0 then invalid_arg "Discrete.make_levels: empty";
  if arr.(0) <= 0. then invalid_arg "Discrete.make_levels: levels must be positive";
  arr

(* Adjacent levels around s: (s_lo, s_hi) with s_lo <= s <= s_hi, where
   s_lo = 0 below the menu.  Raises above the menu. *)
let bracket (levels : levels) s =
  let n = Array.length levels in
  if s > levels.(n - 1) *. (1. +. 1e-9) then raise (Speed_out_of_range s);
  if s >= levels.(n - 1) then (levels.(n - 1), levels.(n - 1))
  else begin
    (* First level >= s. *)
    let rec search lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if levels.(mid) >= s then search lo mid else search (mid + 1) hi
      end
    in
    let idx = search 0 (n - 1) in
    let hi = levels.(idx) in
    let lo = if idx = 0 then 0. else levels.(idx - 1) in
    if hi = s then (s, s) else (lo, hi)
  end

(* Quantize one segment: at most two segments with the same time span. *)
let quantize_segment levels (s : Schedule.segment) =
  let lo, hi = bracket levels s.speed in
  if lo = hi || s.speed = hi then [ { s with speed = hi } ]
  else begin
    let t = s.t1 -. s.t0 in
    let t_hi = t *. (s.speed -. lo) /. (hi -. lo) in
    let cut = s.t0 +. t_hi in
    let high = { s with t1 = cut; speed = hi } in
    let low = { s with t0 = cut; speed = lo } in
    (* lo = 0 means idle: drop the piece. *)
    List.filter (fun (x : Schedule.segment) -> x.speed > 0. && x.t1 > x.t0) [ high; low ]
  end

let quantize levels sched =
  let segs =
    Array.to_list (Schedule.segments sched) |> List.concat_map (quantize_segment levels)
  in
  Schedule.make ~machines:(Schedule.machines sched) segs

(* The piecewise-linear interpolation of P through {0} ∪ levels: what a
   duty-cycling processor actually pays at average speed s. *)
let interpolated_power power levels =
  let name = Printf.sprintf "pwl[%s]" (Power.name power) in
  let eval s =
    match bracket levels s with
    | lo, hi when lo = hi -> Power.eval power hi
    | lo, hi ->
      let theta = (s -. lo) /. (hi -. lo) in
      ((1. -. theta) *. Power.eval power lo) +. (theta *. Power.eval power hi)
  in
  let deriv s =
    match bracket levels s with
    | lo, hi when lo = hi -> Power.deriv power hi
    | lo, hi -> (Power.eval power hi -. Power.eval power lo) /. (hi -. lo)
  in
  Power.custom ~name ~eval ~deriv

type comparison = {
  continuous : float;   (* energy of the continuous optimum *)
  discrete : float;     (* energy after quantization *)
  penalty : float;      (* discrete / continuous - 1 *)
}

let compare_energy power levels sched =
  let continuous = Schedule.energy power sched in
  let discrete = Schedule.energy power (quantize levels sched) in
  { continuous; discrete; penalty = (discrete /. continuous) -. 1. }

(* A realistic frequency menu: [count] levels geometrically spanning
   [lo, hi] (like CPU governors' P-state tables). *)
let geometric_menu ~lo ~hi ~count =
  if count < 2 || lo <= 0. || hi <= lo then invalid_arg "Discrete.geometric_menu";
  let ratio = (hi /. lo) ** (1. /. float_of_int (count - 1)) in
  make_levels (List.init count (fun i -> lo *. (ratio ** float_of_int i)))

(* Dense two-phase primal simplex with Bland's anti-cycling rule.

   This is the generic-LP baseline the paper argues against for the offline
   scheduling problem (Bingham & Greenstreet solved it by LP; the paper's
   point is that a combinatorial algorithm is far more practical).  We use
   it (a) to solve the piecewise-linear relaxation baseline of experiment
   E2 and (b) to cross-check the max-flow substrate on small networks.

   Problems are stated as: maximize c.x subject to rows (a, rel, b), x >= 0.
   Internally rows are normalized to b >= 0, slack/surplus variables are
   appended, and artificials complete an identity basis for phase 1. *)

type relation = Le | Ge | Eq

type problem = {
  objective : float array;
  rows : (float array * relation * float) array;
}

type solution = { x : float array; value : float }
type outcome = Optimal of solution | Infeasible | Unbounded

exception Infeasible_problem

(* Pivot, ratio-test and optimality tolerance. *)
let eps = 1e-9

(* One simplex run on an existing tableau.
   [tab]: (m+1) x (width) array, last row = objective in the form
   "z-row": entry j is (z_j - c_j); rhs in last column; optimality when all
   non-forbidden entries >= -eps.  Returns [`Optimal] or [`Unbounded]. *)
let run_simplex ~forbidden tab basis =
  let m = Array.length tab - 1 in
  let width = Array.length tab.(0) in
  let ncols = width - 1 in
  let zrow = tab.(m) in
  let rec iterate () =
    (* Bland: entering = smallest index with negative reduced cost. *)
    let entering = ref (-1) in
    (try
       for j = 0 to ncols - 1 do
         if (not forbidden.(j)) && zrow.(j) < -.eps then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      let j = !entering in
      (* Ratio test; Bland tie-break on smallest basis variable. *)
      let leaving = ref (-1) in
      let best = ref infinity in
      for i = 0 to m - 1 do
        let aij = tab.(i).(j) in
        if aij > eps then begin
          let ratio = tab.(i).(ncols) /. aij in
          if
            ratio < !best -. eps
            || (ratio < !best +. eps && (!leaving < 0 || basis.(i) < basis.(!leaving)))
          then begin
            best := ratio;
            leaving := i
          end
        end
      done;
      if !leaving < 0 then `Unbounded
      else begin
        let r = !leaving in
        let pivot = tab.(r).(j) in
        for k = 0 to ncols do
          tab.(r).(k) <- tab.(r).(k) /. pivot
        done;
        for i = 0 to m do
          if i <> r then begin
            let f = tab.(i).(j) in
            if Float.abs f > 0. then
              for k = 0 to ncols do
                tab.(i).(k) <- tab.(i).(k) -. (f *. tab.(r).(k))
              done
          end
        done;
        basis.(r) <- j;
        iterate ()
      end
    end
  in
  iterate ()

let solve problem =
  let n = Array.length problem.objective in
  Array.iter
    (fun (a, _, _) ->
      if Array.length a <> n then invalid_arg "Simplex.solve: row width mismatch")
    problem.rows;
  let m = Array.length problem.rows in
  (* Normalize to non-negative rhs. *)
  let rows =
    Array.map
      (fun (a, rel, b) ->
        if b < 0. then
          ( Array.map (fun v -> -.v) a,
            (match rel with Le -> Ge | Ge -> Le | Eq -> Eq),
            -.b )
        else (Array.copy a, rel, b))
      problem.rows
  in
  (* Column layout: structural 0..n-1, then one slack/surplus per Le/Ge row,
     then one artificial per Ge/Eq row. *)
  let num_slack = Array.fold_left (fun acc (_, rel, _) -> match rel with Le | Ge -> acc + 1 | Eq -> acc) 0 rows in
  let num_art = Array.fold_left (fun acc (_, rel, _) -> match rel with Ge | Eq -> acc + 1 | Le -> acc) 0 rows in
  let ncols = n + num_slack + num_art in
  let tab = Array.make_matrix (m + 1) (ncols + 1) 0. in
  let basis = Array.make m (-1) in
  let art_cols = Array.make num_art (-1) in
  let slack_pos = ref n in
  let art_pos = ref (n + num_slack) in
  let art_idx = ref 0 in
  Array.iteri
    (fun i (a, rel, b) ->
      Array.blit a 0 tab.(i) 0 n;
      tab.(i).(ncols) <- b;
      (match rel with
      | Le ->
        tab.(i).(!slack_pos) <- 1.;
        basis.(i) <- !slack_pos;
        incr slack_pos
      | Ge ->
        tab.(i).(!slack_pos) <- -1.;
        incr slack_pos;
        tab.(i).(!art_pos) <- 1.;
        basis.(i) <- !art_pos;
        art_cols.(!art_idx) <- !art_pos;
        incr art_idx;
        incr art_pos
      | Eq ->
        tab.(i).(!art_pos) <- 1.;
        basis.(i) <- !art_pos;
        art_cols.(!art_idx) <- !art_pos;
        incr art_idx;
        incr art_pos))
    rows;
  let is_artificial = Array.make ncols false in
  Array.iter (fun c -> if c >= 0 then is_artificial.(c) <- true) art_cols;
  let no_forbidden = Array.make ncols false in
  (* Phase 1: maximize -(sum of artificials); z-row = sum of artificial
     rows negated on non-artificial columns. *)
  if num_art > 0 then begin
    let zrow = tab.(m) in
    for i = 0 to m - 1 do
      if is_artificial.(basis.(i)) then
        for k = 0 to ncols do
          zrow.(k) <- zrow.(k) -. tab.(i).(k)
        done
    done;
    (* Artificial columns must show reduced cost 0 in their own basis. *)
    Array.iter (fun c -> if c >= 0 then zrow.(c) <- 0.) art_cols;
    (match run_simplex ~forbidden:no_forbidden tab basis with
    | `Unbounded -> assert false (* phase-1 objective is bounded above by 0 *)
    | `Optimal -> ());
    (* Relative threshold: residual infeasibility is judged against the
       magnitude of the right-hand sides. *)
    let rhs_scale =
      Array.fold_left (fun acc (_, _, b) -> Float.max acc (Float.abs b)) 1. rows
    in
    if tab.(m).(ncols) < -.eps *. 100. *. rhs_scale then raise Infeasible_problem
  end;
  (* Drive any remaining basic artificials out (degenerate at 0). *)
  for i = 0 to m - 1 do
    if is_artificial.(basis.(i)) then begin
      let pivot_col = ref (-1) in
      (try
         for j = 0 to ncols - 1 do
           if (not is_artificial.(j)) && Float.abs tab.(i).(j) > eps then begin
             pivot_col := j;
             raise Exit
           end
         done
       with Exit -> ());
      match !pivot_col with
      | -1 -> () (* redundant row; artificial stays basic at value 0 *)
      | j ->
        let pivot = tab.(i).(j) in
        for k = 0 to ncols do
          tab.(i).(k) <- tab.(i).(k) /. pivot
        done;
        for i' = 0 to m do
          if i' <> i then begin
            let f = tab.(i').(j) in
            if Float.abs f > 0. then
              for k = 0 to ncols do
                tab.(i').(k) <- tab.(i').(k) -. (f *. tab.(i).(k))
              done
          end
        done;
        basis.(i) <- j
    end
  done;
  (* Phase 2: restore the real objective in the z-row. *)
  let zrow = tab.(m) in
  Array.fill zrow 0 (ncols + 1) 0.;
  for j = 0 to n - 1 do
    zrow.(j) <- -.problem.objective.(j)
  done;
  for i = 0 to m - 1 do
    let bj = basis.(i) in
    if bj < n then begin
      let c = problem.objective.(bj) in
      if not (Float.equal c 0.) then
        for k = 0 to ncols do
          zrow.(k) <- zrow.(k) +. (c *. tab.(i).(k))
        done
    end
  done;
  (* Fix reduced costs of basic columns to exactly zero. *)
  for i = 0 to m - 1 do
    zrow.(basis.(i)) <- 0.
  done;
  match run_simplex ~forbidden:is_artificial tab basis with
  | `Unbounded -> Unbounded
  | `Optimal ->
    let x = Array.make n 0. in
    for i = 0 to m - 1 do
      if basis.(i) < n then x.(basis.(i)) <- tab.(i).(ncols)
    done;
    let value = Ss_numeric.Kahan.sum_f n (fun j -> problem.objective.(j) *. x.(j)) in
    Optimal { x; value }

let solve problem = try solve problem with Infeasible_problem -> Infeasible

(* Convenience: minimize instead of maximize. *)
let minimize ~objective ~rows () =
  match solve { objective = Array.map (fun c -> -.c) objective; rows } with
  | Optimal { x; value } -> Optimal { x; value = -.value }
  | (Infeasible | Unbounded) as o -> o

(* E2 — the "no LP needed" practicality claim.

   Bingham & Greenstreet note their LP's complexity "is too high for most
   practical applications"; the paper's combinatorial algorithm is the fix.
   We time both routes on growing instances: the flow-based algorithm and
   the PWL-LP baseline (whose size per instance is also reported). *)

module Table = Ss_numeric.Table
module Power = Ss_model.Power

let run () =
  let power = Power.alpha 3. in
  let rows =
    List.map
      (fun n ->
        let inst =
          Ss_workload.Generators.uniform ~seed:(100 + n) ~machines:2 ~jobs:n ~horizon:14.
            ~max_work:4. ()
        in
        let e_comb = ref 0. in
        let t_comb = Common.time_median (fun () -> e_comb := Ss_core.Offline.optimal_energy power inst) in
        let lp = ref { Ss_core.Pwl_baseline.lower_bound = 0.; variables = 0; rows = 0 } in
        let t_lp =
          Common.time_median ~repeats:1 (fun () ->
              lp := Ss_core.Pwl_baseline.solve ~tangents:6 power inst)
        in
        [
          Table.cell_int n;
          Table.cell_fixed ~digits:2 t_comb;
          Table.cell_fixed ~digits:2 t_lp;
          Table.cell_fixed ~digits:1 (t_lp /. Float.max 1e-6 t_comb);
          Table.cell_int !lp.variables;
          Table.cell_int !lp.rows;
          Table.cell_pct ((!e_comb -. !lp.lower_bound) /. !e_comb);
        ])
      [ 4; 6; 8; 10; 12 ]
  in
  let table =
    Table.make
      ~title:
        "E2: combinatorial algorithm vs LP route (runtime, alpha=3)\n\
         expected: LP slows down sharply with n while the flow algorithm stays fast"
      ~headers:
        [ "n"; "comb ms"; "LP ms"; "LP/comb"; "LP vars"; "LP rows"; "LP gap" ]
      rows
  in
  Common.outcome
    ~notes:
      [
        "'LP gap' = (E_comb - LP lower bound)/E_comb: the LP relaxation also \
         under-approximates energy at 6 tangents, so it is both slower and coarser.";
      ]
    [ table ]

let exp : Common.t =
  {
    id = "e2";
    title = "runtime: combinatorial vs LP baseline";
    validates = "Theorem 1 (practicality vs Bingham–Greenstreet LP)";
    run;
  }

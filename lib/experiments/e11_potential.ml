(* E11 — the Theorem 2 potential function, audited numerically.

   The competitive analysis of OA(m) rests on properties (a) and (b) of
   the potential Phi (Section 3.1): no increase at arrivals, and
   non-positive drift of P_OA - a^a P_OPT + dPhi/dt between events.  We
   evaluate Phi along real runs (OA's replanning history against a
   concrete optimal schedule) and report the worst observed violation —
   the proof predicts none. *)

module Table = Ss_numeric.Table

let run () =
  let scenarios =
    [
      ("uniform m=2", Ss_workload.Generators.uniform ~seed:61 ~machines:2 ~jobs:10 ~horizon:14. ~max_work:4. ());
      ("uniform m=4", Ss_workload.Generators.uniform ~seed:62 ~machines:4 ~jobs:12 ~horizon:16. ~max_work:4. ());
      ("poisson m=3", Ss_workload.Generators.poisson ~seed:63 ~machines:3 ~jobs:12 ~rate:1.2 ~mean_work:2.5 ~slack:2.2 ());
      ("bursty m=2", Ss_workload.Generators.bursty ~seed:64 ~machines:2 ~bursts:3 ~jobs_per_burst:4 ~gap:7. ~max_work:4. ());
      ("staircase m=2", Ss_workload.Generators.staircase ~machines:2 ~levels:5 ~copies:2 ());
    ]
  in
  let rows =
    List.concat_map
      (fun (name, inst) ->
        List.map
          (fun alpha ->
            let a = Ss_online.Potential.audit ~alpha inst in
            [
              name;
              Table.cell_f alpha;
              Table.cell_int (List.length a.pieces);
              Table.cell_int (List.length a.jumps);
              Table.cell_f ~digits:2 a.max_piece_violation;
              Table.cell_f ~digits:2 a.max_jump_violation;
              Table.cell_bool (Ss_online.Potential.holds ~tol:1e-6 a);
              Table.cell_fixed (a.energy_oa /. a.energy_opt);
            ])
          [ 2.; 3. ])
      scenarios
  in
  let table =
    Table.make
      ~title:
        "E11: Theorem 2 potential-function audit along real OA(m) runs\n\
         property (a): arrival jumps <= 0; property (b): drift lhs <= 0 on every piece\n\
         (columns are the worst observed values; negative = inequality strict)"
      ~headers:
        [ "workload"; "alpha"; "pieces"; "jumps"; "max drift lhs"; "max jump"; "holds"; "OA/OPT" ]
      rows
  in
  Common.outcome
    ~notes:
      [
        "Integrating (a)+(b) is exactly the Theorem 2 proof: observing them on \
         concrete runs exercises Lemmas 6-9 (speed monotonicity under arrivals) \
         through the actual planner.";
      ]
    [ table ]

let exp : Common.t =
  {
    id = "e11";
    title = "potential function audit";
    validates = "Theorem 2 proof (potential properties (a) and (b), Lemmas 6-9)";
    run;
  }

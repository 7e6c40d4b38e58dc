(* E10 — OA(m) vs AVR(m) on realistic scenarios.

   The paper analyzes both online algorithms; this experiment shows how
   they compare on the workload regimes the introduction motivates, plus
   each schedule's migration count. *)

module Table = Ss_numeric.Table
module Power = Ss_model.Power
module Job = Ss_model.Job
module Schedule = Ss_model.Schedule

let run () =
  let power = Power.alpha 3. in
  let scenarios =
    [
      ("server farm", Ss_workload.Generators.poisson ~seed:31 ~machines:4 ~jobs:20 ~rate:1.5 ~mean_work:2.5 ~slack:2.5 ());
      ("video decode", Ss_workload.Generators.video ~seed:32 ~machines:2 ~frames:20 ~period:2. ~base_work:3. ());
      ("interactive", Ss_workload.Generators.long_short ~seed:33 ~machines:4 ~long_jobs:4 ~short_jobs:12 ~horizon:20. ());
      ("bursty", Ss_workload.Generators.bursty ~seed:34 ~machines:4 ~bursts:4 ~jobs_per_burst:5 ~gap:6. ~max_work:4. ());
      ("staircase", Ss_workload.Generators.staircase ~machines:4 ~levels:5 ~copies:4 ());
    ]
  in
  let rows =
    List.map
      (fun (name, inst) ->
        let n = Array.length inst.Job.jobs in
        let e_opt = Ss_core.Offline.optimal_energy power inst in
        let oa = Ss_online.Oa.schedule inst in
        let avr = Ss_online.Avr.schedule inst in
        let e_oa = Schedule.energy power oa and e_avr = Schedule.energy power avr in
        [
          name;
          Table.cell_int n;
          Table.cell_f ~digits:5 e_opt;
          Table.cell_fixed (e_oa /. e_opt);
          Table.cell_fixed (e_avr /. e_opt);
          Table.cell_int (Schedule.total_migrations ~jobs:n oa);
          Table.cell_int (Schedule.total_migrations ~jobs:n avr);
          (if e_oa <= e_avr then "OA" else "AVR");
        ])
      scenarios
  in
  let table =
    Table.make
      ~title:
        "E10: OA(m) vs AVR(m) head-to-head on motivating scenarios (alpha=3)\n\
         expected: OA wins or ties everywhere (it replans optimally); AVR pays for density smearing"
      ~headers:[ "scenario"; "n"; "E_OPT"; "OA ratio"; "AVR ratio"; "OA migr"; "AVR migr"; "winner" ]
      rows
  in
  Common.outcome [ table ]

let exp : Common.t =
  {
    id = "e10";
    title = "OA vs AVR head-to-head";
    validates = "Section 3 (behaviour of the two online strategies)";
    run;
  }

(* E2 — the "no LP needed" practicality claim.

   Bingham & Greenstreet note their LP's complexity "is too high for most
   practical applications"; the paper's combinatorial algorithm is the fix.
   We time both routes on growing instances: the flow-based algorithm and
   the PWL-LP baseline (whose size per instance is also reported). *)

module Table = Ss_numeric.Table
module Power = Ss_model.Power

(* E2d: the decomposition layer (PR 4).  A fixed 72-job workload is split
   into k release-separated clusters; the splitter cuts the instance at
   the zero-coverage gaps, so runtime should drop superlinearly with k
   while the merged run stays bit-identical to the undecomposed one. *)
let decomposition_rows () =
  List.map
    (fun (clusters, seed) ->
      let inst =
        Ss_workload.Generators.clustered ~seed ~machines:4 ~clusters
          ~jobs_per_cluster:(72 / clusters) ~cluster_span:12. ~gap:4. ~max_work:5. ()
      in
      let t_undec =
        Common.time_median (fun () -> ignore (Ss_core.Offline.run ~decompose:false inst))
      in
      let t_dec =
        Common.time_median (fun () -> ignore (Ss_core.Offline.run ~decompose:true inst))
      in
      [
        Table.cell_int (Array.length inst.jobs);
        Table.cell_int (Ss_core.Offline.component_count inst);
        Table.cell_fixed ~digits:2 t_undec;
        Table.cell_fixed ~digits:2 t_dec;
        Table.cell_fixed ~digits:2 (t_undec /. Float.max 1e-6 t_dec);
      ])
    [ (1, 21); (2, 22); (4, 23); (6, 24) ]

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
  let dec_table =
    Table.make
      ~title:
        "E2d: instance decomposition at zero-coverage cuts (72 jobs, m=4, clustered)\n\
         expected: speedup grows with the component count (k solves of n/k jobs)"
      ~headers:[ "n"; "components"; "undec ms"; "decomp ms"; "speedup" ]
      (decomposition_rows ())
  in
  Common.outcome
    ~notes:
      [
        "'LP gap' = (E_comb - LP lower bound)/E_comb: the LP relaxation also \
         under-approximates energy at 6 tangents, so it is both slower and coarser.";
        "E2d: the decomposed run is bit-identical to the undecomposed one \
         (test/test_decomposition.ml); the k=1 row is the pass-through overhead check.";
      ]
    [ table; dec_table ]

let exp : Common.t =
  {
    id = "e2";
    title = "runtime: combinatorial vs LP baseline";
    validates = "Theorem 1 (practicality vs Bingham–Greenstreet LP)";
    run;
  }

(* A5 — ablation: grouped removal of unreachable candidates.

   When a round's flow falls short, *every* candidate its maximum flow
   cannot reach from the source is provably outside the conjectured class
   (DESIGN.md section 4; the set contains every Lemma 4 certificate).  The
   solver removes them all in one round and keeps them as a pending set,
   from which a later phase starts; removing one victim per max flow
   reaches the same partition in more rounds.  This table reports how much
   grouping saves — failed rounds against removals, and the largest group
   one round removed — checks that every failed round split one pending
   set in two (failed rounds = phases - components) and checks the
   optimum against the exact-rational replay (it is unique in energy). *)

module Table = Ss_numeric.Table
module Power = Ss_model.Power
module Offline = Ss_core.Offline
module Rational = Ss_numeric.Rational

let exact_energy power (run : Offline.Exact.run) =
  List.fold_left
    (fun acc (p : Offline.Exact.phase) ->
      acc
      +. Power.eval power (Rational.to_float p.speed)
         *. Rational.to_float (Offline.Exact.phase_busy_time run p))
    0. run.schedule_phases

let run () =
  let power = Power.cube in
  let rows =
    List.map
      (fun n ->
        let inst =
          Ss_workload.Generators.uniform ~seed:(n * 29) ~machines:4 ~jobs:n
            ~horizon:(float_of_int (2 * n)) ~max_work:5. ()
        in
        let r = Offline.run inst in
        let e = Offline.energy_of_run power r in
        let e_exact = exact_energy power (Offline.solve_exact inst) in
        let failed = r.stats.rounds - r.stats.phases in
        [
          Table.cell_int n;
          Table.cell_int r.stats.phases;
          Table.cell_int failed;
          Table.cell_bool (failed = r.stats.phases - Offline.component_count inst);
          Table.cell_int r.stats.removals;
          Table.cell_int r.stats.largest_group;
          Table.cell_bool (Float.abs (e -. e_exact) <= 1e-9 *. e_exact);
        ])
      [ 16; 32; 64 ]
  in
  let table =
    Table.make
      ~title:
        "A5 (ablation): grouped removal of unreachable candidates (m=4)\n\
         expected: failed rounds = phases - components, below removals; energy equal to \
         the exact replay"
      ~headers:
        [
          "n";
          "phases";
          "failed rounds";
          "= phases - comps";
          "removals";
          "largest group";
          "exact energy";
        ]
      rows
  in
  Common.outcome
    ~notes:
      [
        "Every failed round splits one pending set in two and every phase consumes \
         one, so failed rounds = phases - components.  The partition is the same \
         under every removal rule; the removal count is not: starting every phase \
         from all remaining jobs, as Fig. 2 does, removes a slow job again in every \
         phase above its own.  One victim per max flow would need one failed round \
         per removal.";
      ]
    [ table ]

let exp : Common.t =
  {
    id = "a5";
    title = "grouped removal ablation";
    validates = "Lemma 4 via min cut (every unreachable candidate is removable at once)";
    run;
  }

(* E8 — polynomiality evidence for the offline algorithm.

   Counts of phases, flow computations and removals as n grows.
   Theory: phases <= n, each accepted round closes a phase and each
   failed round splits one pending set in two, which a later phase
   starts from, so rounds = 2 phases - components <= 2 n and everything
   is polynomial. *)

module Table = Ss_numeric.Table

let run () =
  let rows =
    List.map
      (fun n ->
        let inst =
          Ss_workload.Generators.uniform ~seed:(n * 3 + 1) ~machines:4 ~jobs:n
            ~horizon:(float_of_int (2 * n)) ~max_work:5. ()
        in
        let run_result = ref None in
        let ms = Common.time_median (fun () -> run_result := Some (Ss_core.Offline.run inst)) in
        let r = Option.get !run_result in
        [
          Table.cell_int n;
          Table.cell_int r.stats.phases;
          Table.cell_int r.stats.rounds;
          Table.cell_bool
            (r.stats.rounds = (2 * r.stats.phases) - Ss_core.Offline.component_count inst);
          Table.cell_int r.stats.removals;
          Table.cell_fixed ~digits:2 (float_of_int r.stats.rounds /. float_of_int n);
          Table.cell_fixed ~digits:2 ms;
        ])
      [ 8; 16; 32; 64; 96 ]
  in
  let table =
    Table.make
      ~title:
        "E8: offline algorithm work counters vs instance size (m=4)\n\
         expected: phases <= n, rounds = 2 phases - components — polynomial behaviour"
      ~headers:
        [ "n"; "phases"; "flow runs"; "= 2 phases - comps"; "removals"; "rounds/n"; "cpu ms" ]
      rows
  in
  Common.outcome [ table ]

let exp : Common.t =
  {
    id = "e8";
    title = "offline algorithm structure counters";
    validates = "Theorem 1 (polynomial time: one flow per phase + removal)";
    run;
  }

(* All experiments, in presentation order.  `run_all` is what
   `bench/main.exe` prints; individual ids are reachable from the CLI
   (`speedscale experiment <id>`). *)

let all : Common.t list =
  [
    E1_optimality.exp;
    E2_runtime.exp;
    E3_oa_ratio.exp;
    E4_avr_ratio.exp;
    E5_chain.exp;
    E6_staircase.exp;
    E7_migration.exp;
    E8_structure.exp;
    E9_lemmas.exp;
    E10_headtohead.exp;
    F1_ratio_vs_alpha.exp;
    F2_ratio_vs_m.exp;
    F3_load.exp;
    F4_scaling.exp;
    E11_potential.exp;
    E12_bell.exp;
    A1_discrete.exp;
    A2_sleep.exp;
    A3_parallel.exp;
    A5_grouped_removal.exp;
    X1_bkp.exp;
  ]

let find id = List.find_opt (fun (e : Common.t) -> e.Common.id = id) all

let ids () = List.map (fun (e : Common.t) -> e.Common.id) all

let run_all () = List.iter Common.run_and_print all

let run_one id =
  match find id with
  | Some e ->
    Common.run_and_print e;
    true
  | None -> false

(* Experiment harness.

     dune exec bench/main.exe             — print every experiment table
                                            (E1..E12, F1..F4, A1..A5, X1)
     dune exec bench/main.exe -- tables   — the same
     dune exec bench/main.exe -- <id>     — one experiment (e.g. e3)

   Every mode prints tables.  The repository benchmark with end-to-end and
   per-layer metrics is perfbench/ (see BENCHMARK.json).

   The experiment implementations live in lib/experiments (shared with the
   speedscale CLI); this executable is the entry point that regenerates
   everything EXPERIMENTS.md reports. *)

let usage () =
  Printf.printf "usage: main.exe [tables | <experiment id>]\n";
  Printf.printf "experiment ids: %s\n" (String.concat " " (Ss_experiments.Registry.ids ()))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "tables" ] -> Ss_experiments.Registry.run_all ()
  | [ id ] ->
    if not (Ss_experiments.Registry.run_one (String.lowercase_ascii id)) then begin
      Printf.printf "unknown experiment id: %s\n" id;
      usage ();
      exit 1
    end
  | _ ->
    usage ();
    exit 1

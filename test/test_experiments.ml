(* Experiment-harness regression: every registered experiment must run
   without error, produce non-empty tables, and — since every validity
   column in every table is expected to read "yes" — contain no "no"
   cell.  This keeps EXPERIMENTS.md regenerable at all times. *)

let contains_cell needle rendered =
  (* Match a whole table cell to avoid tripping on words inside prose. *)
  let pat = "| " ^ needle ^ " " in
  let n = String.length pat and h = String.length rendered in
  let rec go i = i + n <= h && (String.sub rendered i n = pat || go (i + 1)) in
  go 0

let check_experiment (e : Ss_experiments.Common.t) () =
  let outcome = e.run () in
  Alcotest.(check bool) (e.id ^ ": has tables") true (outcome.tables <> []);
  List.iter
    (fun table ->
      let rendered = Ss_numeric.Table.render table in
      Alcotest.(check bool) (e.id ^ ": table non-empty") true (String.length rendered > 0);
      if contains_cell "no" rendered then
        Alcotest.failf "%s: a validity cell reads 'no':\n%s" e.id rendered)
    outcome.tables

let test_registry_complete () =
  let ids = Ss_experiments.Registry.ids () in
  Alcotest.(check bool) "has all families" true
    (List.for_all
       (fun id -> List.mem id ids)
       [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "e11"; "e12";
         "f1"; "f2"; "f3"; "f4"; "a1"; "a2"; "a3"; "a5"; "x1" ]);
  Alcotest.(check bool) "lookup works" true (Ss_experiments.Registry.find "e3" <> None);
  Alcotest.(check bool) "unknown id rejected" true (Ss_experiments.Registry.find "zz" = None)

let () =
  Alcotest.run "experiments"
    ([
       ("registry", [ Alcotest.test_case "complete" `Quick test_registry_complete ]);
     ]
    @ [
        ( "tables",
          List.map
            (fun (e : Ss_experiments.Common.t) ->
              Alcotest.test_case e.id `Slow (check_experiment e))
            Ss_experiments.Registry.all );
      ])

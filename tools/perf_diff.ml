(* Compare two machine-readable bench reports (BENCH_*.json / the
   bench_smoke.json emitted on every test run) without any external JSON
   tooling.

     perf_diff [--threshold FRAC] OLD.json NEW.json

   Benchmarks present in both files are compared by [ns_per_run]; any that
   slowed down by more than FRAC (default 0.25, i.e. 25%) is a regression
   and makes the exit status 1; benchmarks present in only one file are
   printed as warnings and never fail the diff.  The solver, online,
   decomposition, compressed, online_engine and throughput sections are
   diffed informationally (counter drift — including dispatcher cache
   hit rates — is interesting but never fatal: timings there are
   medians-of-3, too noisy to gate on). *)

module Json = Ss_numeric.Json

let threshold = ref 0.25
let files = ref []

let () =
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some f when f > 0. -> threshold := f
      | _ ->
        prerr_endline "perf_diff: --threshold expects a positive number";
        exit 2);
      parse rest
    | x :: rest ->
      files := x :: !files;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv))

let load file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg ->
    Printf.eprintf "perf_diff: %s\n" msg;
    exit 2
  | text -> (
    match Json.of_string text with
    | doc -> doc
    | exception Json.Parse_error (pos, msg) ->
      Printf.eprintf "perf_diff: %s: parse error at byte %d: %s\n" file pos msg;
      exit 2)

(* [section doc name key] → assoc list of (row name, numeric fields). *)
let section doc name ~label =
  match Json.member name doc with
  | Some rows -> (
    match Json.to_list_opt rows with
    | Some rows ->
      List.filter_map
        (fun row ->
          match Json.member label row with
          | Some id -> (
            match Json.to_string_opt id with Some id -> Some (id, row) | None -> None)
          | None -> None)
        rows
    | None -> [])
  | None -> []

let field key row =
  match Json.member key row with Some v -> Json.to_float_opt v | None -> None

(* ss_lint --json reports live next to the BENCH_*.json snapshots (the
   committed LINT.json baseline); they carry no timings, so diffing one is
   a no-op rather than an error — a glob over *.json must stay usable. *)
let is_lint_report doc =
  match Json.member "tool" doc with
  | Some v -> ( match Json.to_string_opt v with Some "ss_lint" -> true | _ -> false)
  | None -> false

let pct r = (r -. 1.) *. 100.

let () =
  match List.rev !files with
  | [ old_file; new_file ] ->
    let old_doc = load old_file and new_doc = load new_file in
    if is_lint_report old_doc || is_lint_report new_doc then begin
      Printf.printf "perf diff: %s -> %s: ss_lint report(s), no timings to compare\n"
        old_file new_file;
      exit 0
    end;
    let old_b = section old_doc "benchmarks" ~label:"name" in
    let new_b = section new_doc "benchmarks" ~label:"name" in
    let regressions = ref 0 in
    let compared = ref 0 in
    Printf.printf "perf diff: %s -> %s (threshold %.0f%%)\n\n" old_file new_file
      (100. *. !threshold);
    Printf.printf "%-42s %12s %12s %9s\n" "benchmark" "old" "new" "change";
    (* Benchmarks present in only one file — a renamed row or a different
       mode (micro vs large) — are a warning, never a regression: a
       one-sided key carries no before/after pair to gate on. *)
    let warnings = ref [] in
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name new_b) then
          warnings := Printf.sprintf "'%s' only in %s" name old_file :: !warnings)
      old_b;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name old_b) then
          warnings := Printf.sprintf "'%s' only in %s" name new_file :: !warnings)
      new_b;
    List.iter
      (fun (name, old_row) ->
        match List.assoc_opt name new_b with
        | None -> ()
        | Some new_row -> (
          match (field "ns_per_run" old_row, field "ns_per_run" new_row) with
          | Some o, Some n when o > 0. ->
            incr compared;
            let ratio = n /. o in
            let flag =
              if ratio > 1. +. !threshold then (
                incr regressions;
                "  REGRESSION")
              else ""
            in
            Printf.printf "%-42s %10.0fns %10.0fns %+8.1f%%%s\n" name o n (pct ratio) flag
          | _ -> ()))
      old_b;
    List.iter (fun w -> Printf.printf "WARNING: %s\n" w) (List.rev !warnings);
    if !compared = 0 then begin
      Printf.printf "no shared benchmarks to compare\n";
      exit 2
    end;
    (* Informational: solver / online / decomposition counters and speedups. *)
    List.iter
      (fun (sec, keys) ->
        let old_s = section old_doc sec ~label:"instance" in
        let new_s = section new_doc sec ~label:"instance" in
        List.iter
          (fun (name, old_row) ->
            match List.assoc_opt name new_s with
            | None -> ()
            | Some new_row ->
              Printf.printf "\n%s %s:" sec name;
              List.iter
                (fun key ->
                  match (field key old_row, field key new_row) with
                  | Some o, Some n -> Printf.printf " %s %g->%g" key o n
                  | _ -> ())
                keys;
              print_newline ())
          old_s)
      [
        ("solver", [ "rounds"; "resumes"; "grouped"; "edges"; "pushes" ]);
        ("online", [ "replans"; "rounds"; "resumes"; "carried_jobs"; "speedup" ]);
        ("decomposition", [ "components"; "seq_speedup"; "speedup" ]);
        ("compressed", [ "rounds"; "dense_edges"; "speedup" ]);
        ("online_engine", [ "events"; "set_ops"; "segments"; "events_per_sec"; "speedup" ]);
        ( "throughput",
          [ "queries"; "hits"; "near_hits"; "hit_rate"; "steals"; "batch_qps"; "speedup" ] );
      ];
    if !regressions > 0 then begin
      Printf.printf "\n%d benchmark(s) regressed by more than %.0f%%\n" !regressions
        (100. *. !threshold);
      exit 1
    end
    else Printf.printf "\nok: %d benchmark(s) within threshold\n" !compared
  | _ ->
    prerr_endline "usage: perf_diff [--threshold FRAC] OLD.json NEW.json";
    exit 2

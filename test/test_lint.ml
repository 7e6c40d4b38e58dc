(* Tests for tools/lint/ss_lint: the static determinism/data-race gate.

   The fixture corpus under lint_fixtures/ exercises every rule three
   ways — positive (must flag, exact file:line), suppressed (an
   [ss_lint: allow] comment must silence it) and clean (typed/guarded
   variants must NOT flag).  Scope-sensitive rules get fixtures under
   path-mimicking subdirectories (lint_fixtures/lib/flow, .../bench,
   .../lib/workload).  The suite also pins the JSON report shape, the
   exit-code contract, --only selection, and — the actual gate — that
   ss_lint runs clean over the real lib/ bin/ bench/ tree, so a new
   finding anywhere fails `dune runtest`. *)

module Json = Ss_numeric.Json

let exe = Filename.concat (Filename.concat ".." "tools") (Filename.concat "lint" "ss_lint.exe")

(* Run ss_lint with [args]; return (exit code, stdout). *)
let run args =
  let out = Filename.temp_file "ss_lint" ".out" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" exe args (Filename.quote out) in
  let code = Sys.command cmd in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Parse a --json report into ((basename, line, rule) list, suppressed,
   checked_files). *)
let report args =
  let code, text = run ("--json " ^ args) in
  let doc = Json.of_string text in
  let diags =
    match Json.member "diagnostics" doc with
    | Some arr -> (
      match Json.to_list_opt arr with
      | Some rows ->
        List.filter_map
          (fun row ->
            let str k = Option.bind (Json.member k row) Json.to_string_opt in
            let num k = Option.bind (Json.member k row) Json.to_float_opt in
            match (str "file", num "line", str "rule") with
            | Some f, Some l, Some r -> Some (Filename.basename f, int_of_float l, r)
            | _ -> None)
          rows
      | None -> [])
    | None -> []
  in
  let int_field k =
    match Option.bind (Json.member k doc) Json.to_float_opt with
    | Some v -> int_of_float v
    | None -> -1
  in
  (code, diags, int_field "suppressed", int_field "checked_files")

let fixtures = "lint_fixtures"

(* --- per-rule expectations ---------------------------------------------- *)

let expect name expected actual_all =
  let actual = List.filter (fun (f, _, _) -> f = name) actual_all in
  let show (f, l, r) = Printf.sprintf "%s:%d:%s" f l r in
  Alcotest.(check (list string))
    name
    (List.map show (List.sort compare expected))
    (List.map show (List.sort compare actual))

let test_rule_r1 () =
  let code, diags, _, _ = report fixtures in
  check_int "exit 1 on findings" 1 code;
  expect "r1_compare.ml"
    [ ("r1_compare.ml", 4, "R1"); ("r1_compare.ml", 5, "R1"); ("r1_compare.ml", 6, "R1") ]
    diags;
  (* Hot-path scope: min/max/=/<> on floats and min/max as values flag
     only because the fixture path contains lib/flow/. *)
  expect "r1_hot.ml"
    [
      ("r1_hot.ml", 4, "R1");
      ("r1_hot.ml", 5, "R1");
      ("r1_hot.ml", 6, "R1");
      ("r1_hot.ml", 7, "R1");
      ("r1_hot.ml", 8, "R1");
    ]
    diags

let test_rule_r2 () =
  let _, diags, _, _ = report fixtures in
  expect "r2_float_eq.ml"
    [
      ("r2_float_eq.ml", 3, "R2");
      ("r2_float_eq.ml", 4, "R2");
      ("r2_float_eq.ml", 5, "R2");
      ("r2_float_eq.ml", 6, "R2");
      ("r2_float_eq.ml", 7, "R2");
    ]
    diags

let test_rule_r3 () =
  let _, diags, _, _ = report fixtures in
  expect "r3_hashtbl.ml" [ ("r3_hashtbl.ml", 3, "R3"); ("r3_hashtbl.ml", 4, "R3") ] diags

let test_rule_r4 () =
  let _, diags, _, _ = report fixtures in
  expect "r4_clock.ml"
    [
      ("r4_clock.ml", 4, "R4");
      ("r4_clock.ml", 5, "R4");
      ("r4_clock.ml", 6, "R4");
      ("r4_clock.ml", 7, "R4");
      ("r4_clock.ml", 8, "R4");
    ]
    diags;
  (* Scope exemptions: bench/ and lib/workload/generators.ml pass. *)
  expect "r4_exempt.ml" [] diags;
  expect "generators.ml" [] diags

let test_rule_r5 () =
  let _, diags, _, _ = report fixtures in
  expect "r5_race.ml"
    [
      ("r5_race.ml", 6, "R5");
      ("r5_race.ml", 7, "R5");
      ("r5_race.ml", 8, "R5");
      ("r5_race.ml", 9, "R5");
      ("r5_race.ml", 12, "R5");
      ("r5_race.ml", 16, "R5");
    ]
    diags

let test_clean_fixture () =
  let _, diags, _, _ = report fixtures in
  expect "clean.ml" [] diags

(* A file dune writes from a template carries a line directive back to
   it; ss_lint skips it, so a build that leaves instances under _build
   does not change what is linted or counted. *)
let test_generated_skipped () =
  let code, diags, _, checked = report (Filename.concat fixtures "generated.ml") in
  check_int "exit 0" 0 code;
  check_int "no findings" 0 (List.length diags);
  check_int "not counted" 0 checked

let test_suppressions () =
  let _, diags, suppressed, _ = report fixtures in
  (* One suppressed site per rule fixture, plus the comment-above form. *)
  check_int "suppressed count" 7 suppressed;
  (* Suppressed lines must not surface as diagnostics. *)
  List.iter
    (fun (file, line) ->
      check_bool
        (Printf.sprintf "%s:%d suppressed" file line)
        false
        (List.exists (fun (f, l, _) -> f = file && l = line) diags))
    [
      ("r1_compare.ml", 15);
      ("r1_compare.ml", 19);
      ("r2_float_eq.ml", 11);
      ("r3_hashtbl.ml", 15);
      ("r4_clock.ml", 10);
      ("r5_race.ml", 42);
      ("r1_hot.ml", 12);
    ]

let test_only_selection () =
  let code, diags, _, _ = report ("--only R2,float-eq " ^ fixtures) in
  check_int "exit 1 (R2 present)" 1 code;
  check_bool "only R2 rules" true (List.for_all (fun (_, _, r) -> r = "R2") diags);
  check_int "all five R2 findings" 5 (List.length diags);
  (* Selecting a rule with no findings in a clean subset exits 0. *)
  let code, _, _, _ = report ("--only R3 " ^ Filename.concat fixtures "r4_clock.ml") in
  check_int "exit 0 when selection finds nothing" 0 code

let test_json_shape () =
  let _, text = run ("--json " ^ fixtures) in
  let doc = Json.of_string text in
  let str k = Option.bind (Json.member k doc) Json.to_string_opt in
  Alcotest.(check (option string)) "tool tag" (Some "ss_lint") (str "tool");
  check_bool "version" true (Json.member "version" doc <> None);
  check_bool "checked_files" true (Json.member "checked_files" doc <> None);
  check_bool "diagnostics is a list" true
    (match Json.member "diagnostics" doc with
    | Some arr -> Json.to_list_opt arr <> None
    | None -> false);
  (* Every diagnostic row carries the full field set. *)
  (match Json.member "diagnostics" doc with
  | Some arr ->
    List.iter
      (fun row ->
        List.iter
          (fun k -> check_bool ("field " ^ k) true (Json.member k row <> None))
          [ "file"; "line"; "col"; "rule"; "name"; "msg" ])
      (Option.value ~default:[] (Json.to_list_opt arr))
  | None -> Alcotest.fail "no diagnostics member")

let test_exit_codes () =
  let code, _ = run (Filename.concat fixtures "clean.ml") in
  check_int "clean file exits 0" 0 code;
  let code, _ = run (Filename.concat fixtures "r2_float_eq.ml") in
  check_int "findings exit 1" 1 code;
  let code, _ = run "does_not_exist_xyz" in
  check_int "missing path exits 2" 2 code;
  let code, _ = run "--bogus-flag" in
  check_int "unknown flag exits 2" 2 code

let test_rules_listing () =
  let code, text = run "--rules" in
  check_int "exit 0" 0 code;
  List.iter
    (fun r ->
      check_bool (r ^ " listed") true
        (let re = r in
         let n = String.length re and m = String.length text in
         let rec go i = i + n <= m && (String.sub text i n = re || go (i + 1)) in
         go 0))
    [ "poly-compare"; "float-eq"; "hashtbl-order"; "wallclock"; "domain-race" ]

(* The actual gate: the real tree must lint clean, so any regression in
   lib/ bin/ bench/ (or a lint rule broken into false positives) fails
   `dune runtest`.  It counts the files the committed LINT.json baseline
   counts, whatever the build has generated next to them. *)
let test_self_check_real_tree () =
  let code, diags, _, checked = report "../lib ../bin ../bench"
  in
  check_int "no findings on the real tree" 0 (List.length diags);
  check_int "exit 0" 0 code;
  let baseline = Json.of_string (In_channel.with_open_bin "../LINT.json" In_channel.input_all) in
  check_int "the files LINT.json counts"
    (int_of_float (Option.get (Option.bind (Json.member "checked_files" baseline) Json.to_float_opt)))
    checked

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 poly-compare" `Quick test_rule_r1;
          Alcotest.test_case "R2 float-eq" `Quick test_rule_r2;
          Alcotest.test_case "R3 hashtbl-order" `Quick test_rule_r3;
          Alcotest.test_case "R4 wallclock" `Quick test_rule_r4;
          Alcotest.test_case "R5 domain-race" `Quick test_rule_r5;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
          Alcotest.test_case "generated instances skipped" `Quick test_generated_skipped;
        ] );
      ( "driver",
        [
          Alcotest.test_case "suppressions" `Quick test_suppressions;
          Alcotest.test_case "--only selection" `Quick test_only_selection;
          Alcotest.test_case "json shape" `Quick test_json_shape;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "--rules listing" `Quick test_rules_listing;
        ] );
      ( "gate",
        [ Alcotest.test_case "real tree is clean" `Quick test_self_check_real_tree ] );
    ]

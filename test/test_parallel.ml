(* Tests for the domain-based parallel pool. *)

module Pool = Ss_parallel.Pool

let check_bool = Alcotest.(check bool)

let test_map_matches_sequential () =
  let f x = (x * x) + 1 in
  List.iter
    (fun n ->
      let arr = Array.init n (fun i -> i - 7) in
      List.iter
        (fun domains ->
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d domains=%d" n domains)
            (Array.map f arr)
            (Pool.map ~domains f arr))
        [ 1; 2; 3; 4; 8 ])
    [ 0; 1; 2; 3; 31; 500; 1000 ]

let test_empty () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~domains:4 (fun x -> x) [||])

let test_singleton () =
  Alcotest.(check (array int)) "singleton" [| 42 |] (Pool.map ~domains:4 (fun x -> x + 41) [| 1 |])

exception Boom of int

let test_exception_propagates () =
  let arr = Array.init 100 Fun.id in
  match Pool.map ~domains:3 (fun x -> if x = 57 then raise (Boom x) else x) arr with
  | exception Boom 57 -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected exception"

(* Regression: once a worker captures an error, the remaining indices are
   skipped and their result slots stay [None]; [map] must re-raise the
   stored exception *before* reading the slots, so the caller sees the
   worker's exception and never the internal "Pool.map: missing result"
   failure. *)
let test_error_skips_remaining_without_leak () =
  let arr = Array.init 5000 Fun.id in
  match Pool.map ~domains:4 (fun x -> if x = 7 then raise (Boom x) else x) arr with
  | exception Boom 7 -> ()
  | exception Failure msg -> Alcotest.failf "missing-result leak: %s" msg
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Boom 7"

(* Regression: an exception must halt the pool BEFORE workers claim more
   indices — a failing early element leaves the bulk of a large input
   unevaluated (each live domain may finish at most the evaluation it had
   already started when the error landed). *)
let test_error_halts_before_next_claim () =
  let n = 20_000 in
  let arr = Array.init n Fun.id in
  let evaluated = Atomic.make 0 in
  (* The order of events is fixed so the spawned workers cannot drain the
     input before the caller reaches item 3: items after 3 (in other
     chunks; the rest of 3's own chunk is never run) wait until item 3 has
     raised, then spin about 1 ms each.  The pool records the error right
     after the raise; to reach n/2 evaluations that gap would have to
     last seconds. *)
  let raised = Atomic.make false in
  let f x =
    ignore (Atomic.fetch_and_add evaluated 1);
    if x = 3 then begin
      Atomic.set raised true;
      raise (Boom x)
    end;
    if x > 3 then begin
      while not (Atomic.get raised) do
        Domain.cpu_relax ()
      done;
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 1e-3 do
        Domain.cpu_relax ()
      done
    end;
    x
  in
  (match Pool.map ~domains:4 f arr with
  | exception Boom 3 -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Boom 3");
  let seen = Atomic.get evaluated in
  check_bool
    (Printf.sprintf "halted early (evaluated %d of %d)" seen n)
    true
    (seen < n / 2)

let test_default_domains () =
  check_bool "at least one" true (Pool.default_domains () >= 1);
  check_bool "bounded" true (Pool.default_domains () <= 8)

(* Singleton inputs and [~domains:1] must run inline: [f] executes on the
   calling domain (observed via [Domain.self]), so no spawn cost is paid. *)
let test_inline_fast_path () =
  let caller = Domain.self () in
  let ran_on = Pool.map ~domains:8 (fun _ -> Domain.self ()) [| 0 |] in
  check_bool "singleton runs on caller" true (ran_on.(0) = caller);
  let ran_on = Pool.map ~domains:1 (fun _ -> Domain.self ()) (Array.init 32 Fun.id) in
  check_bool "domains=1 runs on caller" true
    (Array.for_all (fun d -> d = caller) ran_on);
  (* Results and exceptions behave exactly like the spawning path. *)
  Alcotest.(check (array int)) "singleton value" [| 7 |]
    (Pool.map ~domains:8 (fun x -> x + 6) [| 1 |]);
  match Pool.map ~domains:1 (fun x -> if x = 3 then raise (Boom x) else x) [| 1; 2; 3 |] with
  | exception Boom 3 -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Boom 3"

(* Real workload through the pool: the deterministic fan-out used by the
   experiments. *)
let test_deterministic_scheduling_work () =
  let cells = Array.init 6 (fun i -> i + 1) in
  let f seed =
    let inst =
      Ss_workload.Generators.uniform ~seed ~machines:2 ~jobs:6 ~horizon:10. ~max_work:3. ()
    in
    Ss_core.Offline.optimal_energy (Ss_model.Power.alpha 2.) inst
  in
  let seq = Array.map f cells in
  let par = Pool.map ~domains:4 f cells in
  Alcotest.(check (array (float 0.))) "bit-identical energies" seq par

let prop_pool_preserves_order =
  QCheck.Test.make ~count:50 ~name:"results indexed by input position"
    QCheck.(pair (int_range 1 6) (list_of_size (QCheck.Gen.int_range 0 64) small_nat))
    (fun (domains, xs) ->
      let arr = Array.of_list xs in
      Pool.map ~domains (fun x -> x * 3) arr = Array.map (fun x -> x * 3) arr)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "error halts before next claim" `Quick
            test_error_halts_before_next_claim;
          Alcotest.test_case "error skips remaining, no missing-result leak" `Quick
            test_error_skips_remaining_without_leak;
          Alcotest.test_case "default domains" `Quick test_default_domains;
          Alcotest.test_case "inline fast path (singleton / domains=1)" `Quick
            test_inline_fast_path;
          Alcotest.test_case "scheduling work" `Quick test_deterministic_scheduling_work;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_pool_preserves_order ]);
    ]

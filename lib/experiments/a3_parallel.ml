(* A3 — harness scalability: the ratio sweeps on multiple cores.

   The competitive-ratio experiments evaluate hundreds of independent
   (workload, alpha) cells; this table measures the wall-clock effect of
   fanning them across OCaml 5 domains with the in-repo pool.  Results are
   bit-identical regardless of the domain count (outputs are indexed by
   input position), which the last column asserts. *)

module Table = Ss_numeric.Table
module Power = Ss_model.Power

let wall f =
  (* ss_lint: allow wallclock — A3 measures parallel speedup, the clock IS the experiment *)
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.) (* ss_lint: allow wallclock — speedup measurement *)

let cells =
  List.concat_map
    (fun alpha -> List.map (fun seed -> (alpha, seed)) [ 1; 2; 3; 4; 5; 6 ])
    [ 2.; 2.5; 3. ]

let evaluate (alpha, seed) =
  let power = Power.alpha alpha in
  let inst =
    Ss_workload.Generators.uniform ~seed:(seed * 31) ~machines:4 ~jobs:14 ~horizon:18.
      ~max_work:5. ()
  in
  let opt = Ss_core.Offline.optimal_energy power inst in
  Ss_online.Oa.energy power inst /. opt

let run () =
  let arr = Array.of_list cells in
  let baseline = ref [||] in
  let rows =
    List.map
      (fun domains ->
        let results, ms = wall (fun () -> Ss_parallel.Pool.map ~domains evaluate arr) in
        if domains = 1 then baseline := results;
        let identical =
          Array.length results = Array.length !baseline
          && Array.for_all2
               (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
               results !baseline
        in
        [
          Table.cell_int domains;
          Table.cell_fixed ~digits:1 ms;
          Table.cell_int (Array.length results);
          Table.cell_bool identical;
        ])
      [ 1; 2; 4 ]
  in
  let table =
    Table.make
      ~title:
        (Printf.sprintf
           "A3 (harness): OA ratio sweep (%d cells) across OCaml 5 domains\n\
            expected: results bit-identical at every domain count; wall time\n\
            drops with domains when cores are available (this machine: %d)"
           (List.length cells)
           (Domain.recommended_domain_count ()))
      ~headers:[ "domains"; "wall ms"; "cells"; "same results" ]
      rows
  in
  Common.outcome
    ~notes:
      [
        Printf.sprintf "machine reports %d recommended domains"
          (Domain.recommended_domain_count ());
      ]
    [ table ]

let exp : Common.t =
  {
    id = "a3";
    title = "parallel harness scalability";
    validates = "infrastructure (deterministic multi-core experiment fan-out)";
    run;
  }

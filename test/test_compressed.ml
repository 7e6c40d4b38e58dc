(* The sweep oracle (the [compress] path of lib/core/offline.ml): an
   earliest-deadline sweep finished by implicit-residual augmentation that
   answers every round with a maximum flow of the dense Fig. 1 network
   without building it.

   (a) Solver: runs with [compress:true] agree with the dense path on
       members, speeds, procs and energy — bit for bit — and on every
       member's total time, across generators, seeds, machine counts,
       sessions, decomposed solves, OA(m) replanning and the exact
       rational field.
   (b) Counters: the sweep builds no flow network, so its network
       counters read 0, while phases and removals match the dense
       path. *)

module Offline = Ss_core.Offline
module Job = Ss_model.Job
module Power = Ss_model.Power
module Rational = Ss_numeric.Rational
module G = Ss_workload.Generators

let close ?(tol = 1e-9) msg expected actual =
  let t = tol *. (1. +. Float.abs expected) in
  if Float.abs (expected -. actual) > t then
    Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

let float_jobs (inst : Job.instance) =
  Array.map
    (fun (j : Job.t) -> { Offline.F.release = j.release; deadline = j.deadline; work = j.work })
    inst.jobs

let exact_jobs (inst : Job.instance) =
  Array.map
    (fun (j : Job.t) ->
      {
        Offline.Exact.release = Rational.of_float j.release;
        deadline = Rational.of_float j.deadline;
        work = Rational.of_float j.work;
      })
    inst.jobs

(* --- (a) solver agreement -------------------------------------------- *)

(* Phase-for-phase agreement of two float runs.  The partition itself —
   members, speeds, procs — must match bitwise; energies (functions of
   speed, procs and breakpoints only) must match bitwise too.  The t_kj
   allocations are NOT compared entry-wise: the compressed path extracts
   them from the sweep oracle's maximum flow while the dense path uses
   Dinic's, and a phase's maximum flow is not unique in how it splits
   time among equal-speed members.  What is well-defined — each member's
   total allocated time (its demand w_k / s_i) and feasibility of every
   entry — is checked instead. *)
let check_float_agree ?jobs name (dense : Offline.F.run) (comp : Offline.F.run) =
  Alcotest.(check int)
    (name ^ ": phase count")
    (List.length dense.schedule_phases)
    (List.length comp.schedule_phases);
  List.iteri
    (fun idx ((a : Offline.F.phase), (b : Offline.F.phase)) ->
      let tag = Printf.sprintf "%s: phase %d" name idx in
      Alcotest.(check (list int)) (tag ^ " members") a.members b.members;
      close (tag ^ " speed") ~tol:0. a.speed b.speed;
      Alcotest.(check (array int)) (tag ^ " procs") a.procs b.procs;
      let job_totals (p : Offline.F.phase) =
        let h = Hashtbl.create 16 in
        List.iter
          (fun (i, j, t) ->
            let w = comp.breakpoints.(j + 1) -. comp.breakpoints.(j) in
            if t < -.1e-9 || t > w +. 1e-9 then
              Alcotest.failf "%s: alloc (%d, %d, %g) outside [0, %g]" tag i j t w;
            Hashtbl.replace h i (t +. (try Hashtbl.find h i with Not_found -> 0.)))
          p.alloc;
        h
      in
      let ta = job_totals a and tb = job_totals b in
      List.iter
        (fun i ->
          let get h = try Hashtbl.find h i with Not_found -> 0. in
          close (Printf.sprintf "%s job %d total time" tag i) (get ta) (get tb))
        a.members)
    (List.combine dense.schedule_phases comp.schedule_phases);
  let energy r = Offline.energy_of_run (Power.alpha 3.) r in
  close (name ^ ": energy") ~tol:0. (energy dense) (energy comp);
  (* The compressed run's allocation materializes into a schedule that
     passes the (tolerance-aware on floats) feasibility audit. *)
  match jobs with
  | None -> ()
  | Some (machines, js) ->
    (match
       Offline.F.check_segments ~machines js (Offline.F.schedule_segments comp)
     with
    | [] -> ()
    | vs -> Alcotest.failf "%s: %d segment violations" name (List.length vs))

let instance_mix seed machines =
  [
    ( Printf.sprintf "uniform s=%d m=%d" seed machines,
      G.uniform ~seed ~machines ~jobs:14 ~horizon:20. ~max_work:4. () );
    ( Printf.sprintf "poisson s=%d m=%d" seed machines,
      G.poisson ~seed:(seed + 500) ~machines ~jobs:12 ~rate:1.2 ~mean_work:2.5
        ~slack:2.2 () );
    ( Printf.sprintf "heavy s=%d m=%d" seed machines,
      G.heavy ~seed:(seed + 900) ~machines ~jobs:16 ~horizon:14. () );
  ]

let test_solver_matrix () =
  List.iter
    (fun machines ->
      List.iter
        (fun seed ->
          List.iter
            (fun (name, inst) ->
              let jobs = float_jobs inst in
              let dense = Offline.F.solve ~compress:false ~machines:inst.machines jobs in
              let comp = Offline.F.solve ~compress:true ~machines:inst.machines jobs in
              check_float_agree ~jobs:(inst.machines, jobs) name dense comp)
            (instance_mix seed machines))
        [ 11; 12; 13 ])
    [ 1; 2; 4; 8 ]

let test_clustered_split () =
  List.iter
    (fun seed ->
      let inst =
        G.clustered ~seed ~machines:4 ~clusters:4 ~jobs_per_cluster:10
          ~cluster_span:12. ~gap:3. ~max_work:4. ()
      in
      let jobs = float_jobs inst in
      let dense = Offline.F.solve ~compress:false ~machines:4 jobs in
      List.iter
        (fun decompose ->
          let comp = Offline.F.solve ~compress:true ~decompose ~machines:4 jobs in
          check_float_agree
            (Printf.sprintf "clustered s=%d decompose=%b" seed decompose)
            dense comp)
        [ true; false ])
    [ 61; 62 ]

let test_session_agrees () =
  let machines = 4 in
  let session = Offline.F.Session.create ~machines in
  List.iter
    (fun seed ->
      List.iter
        (fun (name, inst) ->
          let jobs = float_jobs inst in
          let dense = Offline.F.solve ~compress:false ~machines jobs in
          let via_session = Offline.F.Session.solve ~compress:true session jobs in
          check_float_agree (name ^ " session") dense via_session)
        (instance_mix seed machines))
    [ 71; 72; 73 ]

let test_oa_agrees () =
  let p3 = Power.alpha 3. in
  List.iter
    (fun seed ->
      let inst =
        G.poisson ~seed ~machines:2 ~jobs:14 ~rate:1.1 ~mean_work:2. ~slack:2.4 ()
      in
      let s_dense, i_dense = Ss_online.Oa.run ~compress:false inst in
      let s_comp, i_comp = Ss_online.Oa.run ~compress:true inst in
      Alcotest.(check int) "OA replans" i_dense.replans i_comp.replans;
      (* Schedule energy sums over materialized segments, whose packing
         depends on the (non-unique) t_kj split — approximately equal,
         not bitwise. *)
      close "OA energy"
        (Ss_model.Schedule.energy p3 s_dense)
        (Ss_model.Schedule.energy p3 s_comp))
    [ 81; 82 ]

let test_exact_agrees () =
  List.iter
    (fun (machines, seed) ->
      let inst = G.uniform ~seed ~machines ~jobs:8 ~horizon:12. ~max_work:4. () in
      let jobs = exact_jobs inst in
      let dense = Offline.Exact.solve ~compress:false ~machines jobs in
      let comp = Offline.Exact.solve ~compress:true ~machines jobs in
      Alcotest.(check int) "exact: phase count"
        (List.length dense.schedule_phases)
        (List.length comp.schedule_phases);
      List.iter2
        (fun (a : Offline.Exact.phase) (b : Offline.Exact.phase) ->
          Alcotest.(check (list int)) "exact: members" a.members b.members;
          Alcotest.(check bool) "exact: speed (exact equality)" true
            (Rational.Field.equal a.speed b.speed);
          Alcotest.(check (array int)) "exact: procs" a.procs b.procs;
          (* Exact-rational per-member totals: both allocations are maximum
             flows of the same network, so each member's total time is
             exactly its demand — compare totals, not the non-unique
             split. *)
          let totals (p : Offline.Exact.phase) =
            let h = Hashtbl.create 16 in
            List.iter
              (fun (i, _, t) ->
                let prev =
                  try Hashtbl.find h i with Not_found -> Rational.Field.zero
                in
                Hashtbl.replace h i (Rational.Field.add prev t))
              p.alloc;
            h
          in
          let ta = totals a and tb = totals b in
          List.iter
            (fun i ->
              let get h =
                try Hashtbl.find h i with Not_found -> Rational.Field.zero
              in
              Alcotest.(check bool)
                (Printf.sprintf "exact: job %d total (exact equality)" i)
                true
                (Rational.Field.equal (get ta) (get tb)))
            a.members)
        dense.schedule_phases comp.schedule_phases)
    [ (1, 31); (2, 32); (4, 34) ]

(* --- (b) counters ------------------------------------------------------ *)

let test_counters () =
  let inst = G.heavy ~seed:91 ~machines:8 ~jobs:150 ~horizon:60. () in
  let jobs = float_jobs inst in
  let dense = Offline.F.solve ~compress:false ~decompose:false ~machines:8 jobs in
  let comp = Offline.F.solve ~compress:true ~decompose:false ~machines:8 jobs in
  check_float_agree "counter instance" dense comp;
  Alcotest.(check bool) "dense work was counted" true
    (dense.stats.net_edges > 0 && dense.stats.net_pushes > 0 && dense.stats.net_bfs_waves > 0);
  Alcotest.(check (list int)) "sweep builds no network" [ 0; 0; 0 ]
    [ comp.stats.net_edges; comp.stats.net_pushes; comp.stats.net_bfs_waves ];
  Alcotest.(check int) "same phases" dense.stats.phases comp.stats.phases;
  Alcotest.(check int) "same removals" dense.stats.removals comp.stats.removals

let () =
  Alcotest.run "compressed"
    [
      ( "solver agreement",
        [
          Alcotest.test_case "generator x seed x machines matrix" `Quick test_solver_matrix;
          Alcotest.test_case "clustered + solve_split" `Quick test_clustered_split;
          Alcotest.test_case "session solves" `Quick test_session_agrees;
          Alcotest.test_case "OA(m) replanning" `Quick test_oa_agrees;
          Alcotest.test_case "exact-rational replay" `Slow test_exact_agrees;
        ] );
      ("counters", [ Alcotest.test_case "network size" `Quick test_counters ]);
    ]

(* Max-flow substrate tests: hand-built networks, cross-checks of Dinic
   against Edmonds-Karp, push-relabel, the LP encoding and min-cut, the
   in-place rewind and the residual reachability the offline solver relies
   on, plus random-graph properties, run on both compiled instances (the
   exact one on the same networks, capacities embedded exactly). *)

module MF = Ss_flow.Maxflow.Float
module MQ = Ss_flow.Maxflow.Exact
module Q = Ss_numeric.Rational

let checkf msg = Alcotest.(check (float 1e-9)) msg

(* The classic CLRS example network, max flow 23. *)
let clrs_edges =
  [ (0, 1, 16.); (0, 2, 13.); (1, 2, 10.); (2, 1, 4.); (1, 3, 12.); (3, 2, 9.);
    (2, 4, 14.); (4, 3, 7.); (3, 5, 20.); (4, 5, 4.) ]

let build edges n =
  let g = MF.create ~n in
  let ids = List.map (fun (s, d, c) -> MF.add_edge g ~src:s ~dst:d ~cap:c) edges in
  (g, ids)

let test_clrs_dinic () =
  let g, _ = build clrs_edges 6 in
  checkf "value" 23. (MF.dinic g ~source:0 ~sink:5);
  Alcotest.(check (list pass)) "audit clean" [] (MF.audit g ~source:0 ~sink:5)

let test_clrs_edmonds_karp () =
  let g, _ = build clrs_edges 6 in
  checkf "value" 23. (MF.edmonds_karp g ~source:0 ~sink:5)

let test_clrs_push_relabel () =
  let g, _ = build clrs_edges 6 in
  checkf "value" 23. (MF.push_relabel g ~source:0 ~sink:5);
  Alcotest.(check (list pass)) "audit clean" [] (MF.audit g ~source:0 ~sink:5)

let test_clrs_lp () =
  let edges =
    Array.of_list
      (List.map (fun (src, dst, cap) -> { Ss_lp.Maxflow_lp.src; dst; cap }) clrs_edges)
  in
  match Ss_lp.Maxflow_lp.solve ~n:6 ~edges ~source:0 ~sink:5 with
  | Some (v, _) -> checkf "lp value" 23. v
  | None -> Alcotest.fail "LP failed"

let test_mincut_matches () =
  let g, _ = build clrs_edges 6 in
  let v = MF.dinic g ~source:0 ~sink:5 in
  let side = MF.min_cut g ~source:0 in
  Alcotest.(check bool) "source in" true side.(0);
  Alcotest.(check bool) "sink out" false side.(5);
  checkf "maxflow = mincut" v (MF.cut_capacity g side)

let test_disconnected () =
  let g = MF.create ~n:4 in
  ignore (MF.add_edge g ~src:0 ~dst:1 ~cap:5.);
  ignore (MF.add_edge g ~src:2 ~dst:3 ~cap:5.);
  checkf "no path" 0. (MF.dinic g ~source:0 ~sink:3)

let test_parallel_edges () =
  let g = MF.create ~n:2 in
  ignore (MF.add_edge g ~src:0 ~dst:1 ~cap:3.);
  ignore (MF.add_edge g ~src:0 ~dst:1 ~cap:4.);
  checkf "parallel add up" 7. (MF.dinic g ~source:0 ~sink:1)

let test_zero_capacity () =
  let g = MF.create ~n:3 in
  ignore (MF.add_edge g ~src:0 ~dst:1 ~cap:0.);
  ignore (MF.add_edge g ~src:1 ~dst:2 ~cap:5.);
  checkf "zero cap blocks" 0. (MF.dinic g ~source:0 ~sink:2)

let test_bad_edges () =
  let g = MF.create ~n:2 in
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Maxflow.add_edge: negative or NaN capacity") (fun () ->
      ignore (MF.add_edge g ~src:0 ~dst:1 ~cap:(-1.)));
  Alcotest.check_raises "NaN cap"
    (Invalid_argument "Maxflow.add_edge: negative or NaN capacity") (fun () ->
      ignore (MF.add_edge g ~src:0 ~dst:1 ~cap:Float.nan));
  Alcotest.check_raises "bad vertex"
    (Invalid_argument "Maxflow.add_edge: vertex out of range") (fun () ->
      ignore (MF.add_edge g ~src:0 ~dst:7 ~cap:1.));
  let e = MF.add_edge g ~src:0 ~dst:1 ~cap:1. in
  Alcotest.check_raises "NaN set_capacity"
    (Invalid_argument "Maxflow.set_capacity: negative or NaN capacity") (fun () ->
      MF.set_capacity g e ~cap:Float.nan);
  Alcotest.check_raises "negative set_capacity"
    (Invalid_argument "Maxflow.set_capacity: negative or NaN capacity") (fun () ->
      MF.set_capacity g e ~cap:(-1.))

let test_reset () =
  let g, ids = build clrs_edges 6 in
  ignore (MF.dinic g ~source:0 ~sink:5);
  MF.reset_flows g;
  List.iter (fun e -> checkf "flow cleared" 0. (MF.flow_on g e)) ids;
  checkf "recompute" 23. (MF.dinic g ~source:0 ~sink:5)

let test_flow_value_accessor () =
  let g, _ = build clrs_edges 6 in
  let v = MF.dinic g ~source:0 ~sink:5 in
  checkf "flow_value agrees" v (MF.flow_value g ~source:0)

let test_exact_field () =
  let g = MQ.create ~n:4 in
  let q = Q.of_ints in
  ignore (MQ.add_edge g ~src:0 ~dst:1 ~cap:(q 1 3));
  ignore (MQ.add_edge g ~src:0 ~dst:2 ~cap:(q 1 6));
  ignore (MQ.add_edge g ~src:1 ~dst:3 ~cap:(q 1 4));
  ignore (MQ.add_edge g ~src:2 ~dst:3 ~cap:(q 1 2));
  let v = MQ.dinic g ~source:0 ~sink:3 in
  (* min(1/3,1/4) + min(1/6,1/2) = 1/4 + 1/6 = 5/12 exactly. *)
  Alcotest.(check bool) "exact 5/12" true (Q.equal v (q 5 12));
  Alcotest.(check (list pass)) "exact audit" [] (MQ.audit g ~source:0 ~sink:3)

(* Random bipartite-ish networks: compare the two algorithms, audit flows,
   and verify max-flow = min-cut. *)
let random_network seed =
  let rng = Ss_workload.Rng.create ~seed in
  let n = 4 + Ss_workload.Rng.int rng ~bound:8 in
  let edges = ref [] in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d && Ss_workload.Rng.float rng < 0.35 then
        edges := (s, d, Ss_workload.Rng.uniform rng ~lo:0.5 ~hi:10.) :: !edges
    done
  done;
  (n, !edges)

(* The properties both instances must satisfy, on one random network each:
   [of_float] embeds a float capacity, [same] compares by value bits and
   [close] within the float instance's round-off. *)
module type NET = sig
  type num
  type t
  type violation
  val create : n:int -> t
  val add_edge : t -> src:int -> dst:int -> cap:num -> int
  val set_capacity : t -> int -> cap:num -> unit
  val reset_flows : t -> unit
  val dinic : t -> source:int -> sink:int -> num
  val edmonds_karp : t -> source:int -> sink:int -> num
  val flow_on : t -> int -> num
  val min_cut : t -> source:int -> bool array
  val reached : t -> int -> bool
  val audit : t -> source:int -> sink:int -> violation list
end

module Props
    (M : NET)
    (C : sig
      val of_float : float -> M.num
      val same : M.num -> M.num -> bool
      val close : M.num -> M.num -> bool
    end) =
struct
  let build edges n =
    let g = M.create ~n in
    (g, List.map (fun (src, dst, cap) -> M.add_edge g ~src ~dst ~cap:(C.of_float cap)) edges)

  let dinic_equals_ek seed =
    let n, edges = random_network seed in
    let (g1, _), (g2, _) = (build edges n, build edges n) in
    C.close (M.dinic g1 ~source:0 ~sink:(n - 1)) (M.edmonds_karp g2 ~source:0 ~sink:(n - 1))

  let flow_audits_clean seed =
    let n, edges = random_network seed in
    let g, _ = build edges n in
    ignore (M.dinic g ~source:0 ~sink:(n - 1));
    M.audit g ~source:0 ~sink:(n - 1) = []

  (* The offline solver builds one Fig. 1 network per component and
     rewinds it in place between rounds: [reset_flows], then
     [set_capacity] to zero removed jobs' edges and to shrink
     reservations.  Dinic on the rewound network must answer exactly as
     on a fresh build without the zeroed edges: same value and same flow
     on every live edge, by value bits. *)
  let rewound_equals_fresh seed =
    let n, edges = random_network (seed + 6000) in
    let g, ids = build edges n in
    ignore (M.dinic g ~source:0 ~sink:(n - 1));
    let rng = Ss_workload.Rng.create ~seed:(seed + 7000) in
    let rewound =
      List.map
        (fun (s, d, c) ->
          let u = Ss_workload.Rng.float rng in
          (s, d, if u < 0.2 then 0. else if u < 0.4 then c /. 2. else c))
        edges
    in
    M.reset_flows g;
    List.iter2 (fun e (_, _, cap) -> M.set_capacity g e ~cap:(C.of_float cap)) ids rewound;
    let v = M.dinic g ~source:0 ~sink:(n - 1) in
    let live = List.filter (fun (_, _, c) -> c > 0.) rewound in
    let fresh, fresh_ids = build live n in
    let v' = M.dinic fresh ~source:0 ~sink:(n - 1) in
    let live_ids =
      List.filter_map (fun (e, (_, _, c)) -> if c > 0. then Some e else None)
        (List.combine ids rewound)
    in
    C.same v v'
    && List.for_all2 (fun e e' -> C.same (M.flow_on g e) (M.flow_on fresh e')) live_ids fresh_ids
    && M.audit g ~source:0 ~sink:(n - 1) = []

  (* A failed offline round removes the candidates Dinic's last BFS left
     unlabelled ([reached]); they must be exactly the vertices outside the
     source side [min_cut] finds by its own depth-first search. *)
  let reached_is_min_cut seed =
    let n, edges = random_network (seed + 8000) in
    let g, _ = build edges n in
    ignore (M.dinic g ~source:0 ~sink:(n - 1));
    let side = M.min_cut g ~source:0 in
    List.for_all (fun v -> M.reached g v = side.(v)) (List.init n Fun.id)
end

module PF =
  Props (MF)
    (struct
      let of_float x = x
      let same = Reference.same_float
      let close v1 v2 = Float.abs (v1 -. v2) <= 1e-6 *. (1. +. v1)
    end)

module PQ =
  Props (MQ)
    (struct
      let of_float = Q.of_float
      let same = Q.equal
      let close = Q.equal
    end)

let prop_dinic_equals_push_relabel =
  QCheck.Test.make ~count:100 ~name:"dinic = push-relabel" QCheck.small_nat (fun seed ->
      let n, edges = random_network (seed + 300) in
      let g1, _ = build edges n and g2, _ = build edges n in
      let v1 = MF.dinic g1 ~source:0 ~sink:(n - 1) in
      let v2 = MF.push_relabel g2 ~source:0 ~sink:(n - 1) in
      Float.abs (v1 -. v2) <= 1e-6 *. (1. +. v1))

let prop_push_relabel_flow_feasible =
  QCheck.Test.make ~count:100 ~name:"push-relabel flow is feasible" QCheck.small_nat
    (fun seed ->
      let n, edges = random_network (seed + 2000) in
      let g, _ = build edges n in
      ignore (MF.push_relabel g ~source:0 ~sink:(n - 1));
      MF.audit g ~source:0 ~sink:(n - 1) = [])

let prop_rewound_equals_fresh =
  QCheck.Test.make ~count:100 ~name:"rewound network = fresh build" QCheck.small_nat
    (fun seed -> PF.rewound_equals_fresh seed && PQ.rewound_equals_fresh seed)

let prop_dinic_equals_ek =
  QCheck.Test.make ~count:100 ~name:"dinic = edmonds-karp" QCheck.small_nat (fun seed ->
      PF.dinic_equals_ek seed && PQ.dinic_equals_ek seed)

let prop_flow_audits_clean =
  QCheck.Test.make ~count:100 ~name:"dinic flow is feasible" QCheck.small_nat (fun seed ->
      PF.flow_audits_clean seed && PQ.flow_audits_clean seed)

let prop_maxflow_mincut =
  QCheck.Test.make ~count:100 ~name:"max flow = min cut" QCheck.small_nat (fun seed ->
      let n, edges = random_network (seed + 1000) in
      let g, _ = build edges n in
      let v = MF.dinic g ~source:0 ~sink:(n - 1) in
      let cut = MF.cut_capacity g (MF.min_cut g ~source:0) in
      Float.abs (v -. cut) <= 1e-6 *. (1. +. v))

let prop_reached_is_min_cut =
  QCheck.Test.make ~count:100 ~name:"reached = min_cut source side" QCheck.small_nat
    (fun seed -> PF.reached_is_min_cut seed && PQ.reached_is_min_cut seed)

let prop_integral_capacities_integral_flow =
  QCheck.Test.make ~count:50 ~name:"dinic matches LP oracle" QCheck.small_nat (fun seed ->
      let n, edges = random_network (seed + 500) in
      (* Keep LP sizes small. *)
      let edges = List.filteri (fun i _ -> i < 18) edges in
      let g, _ = build edges n in
      let v = MF.dinic g ~source:0 ~sink:(n - 1) in
      let arr =
        Array.of_list
          (List.map (fun (src, dst, cap) -> { Ss_lp.Maxflow_lp.src; dst; cap }) edges)
      in
      match Ss_lp.Maxflow_lp.solve ~n ~edges:arr ~source:0 ~sink:(n - 1) with
      | Some (lp, _) -> Float.abs (v -. lp) <= 1e-6 *. (1. +. v)
      | None -> false)

let () =
  Alcotest.run "flow"
    [
      ( "unit",
        [
          Alcotest.test_case "CLRS dinic" `Quick test_clrs_dinic;
          Alcotest.test_case "CLRS edmonds-karp" `Quick test_clrs_edmonds_karp;
          Alcotest.test_case "CLRS push-relabel" `Quick test_clrs_push_relabel;
          Alcotest.test_case "CLRS lp" `Quick test_clrs_lp;
          Alcotest.test_case "min cut" `Quick test_mincut_matches;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
          Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
          Alcotest.test_case "bad edges" `Quick test_bad_edges;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "flow value" `Quick test_flow_value_accessor;
          Alcotest.test_case "exact field" `Quick test_exact_field;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dinic_equals_ek;
            prop_dinic_equals_push_relabel;
            prop_push_relabel_flow_feasible;
            prop_rewound_equals_fresh;
            prop_flow_audits_clean;
            prop_maxflow_mincut;
            prop_reached_is_min_cut;
            prop_integral_capacities_integral_flow;
          ] );
    ]

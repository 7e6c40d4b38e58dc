(* Maximum-flow substrate over an ordered field: the one source of
   [Maxflow.Float] and [Maxflow.Exact].

   This file is a template, not a module of ss_flow.  For each field a
   dune rule (lib/flow/dune) writes an instance: a header binding [F] to
   the field and [type num] to its element type, a line directive that
   points compile errors back here, then this text.  Each instance is
   compiled on its own, so in the float instance every [F] operation is a
   known function that ocamlopt inlines and every [num array] is a flat
   float array; a functor body would box each of them, since this
   compiler has no flambda.  Editors type-check the generated instances
   under _build, not this file.

   The offline scheduler (Section 2 of the paper) performs one max-flow
   computation per dense round on the bipartite network G(J, m, s) of
   Fig. 1, always with Dinic's algorithm (Theorem 1 holds for any max-flow
   routine).  Edmonds–Karp and push-relabel are independent
   implementations that test_flow compares Dinic against; min-cut
   extraction and conservation audits serve the test suite and the
   min-cut witness of Feasibility.

   Representation: forward/backward edge pairs at indices (2k, 2k+1) in flat
   arrays, adjacency in CSR-style flat int arrays — head.(v) is the first
   edge id out of v, next.(e) chains to the following one, tail_.(v) makes
   appends O(1) so the chain follows insertion order (which every traversal
   depends on for determinism).  A whole adjacency walk therefore touches
   three flat int arrays and the two flat caps/flows arrays, with no
   per-vertex row indirection.  Residual capacity of edge e is
   cap.(e) - flow.(e); pushing x along e adds x to flow.(e) and subtracts x
   from flow.(e lxor 1).  Each algorithm reads the arc arrays out of the
   record once per call, so its inner loops index local arrays.

   The arena is reusable: [clear] rewinds the edge count without freeing the
   flat arrays or the adjacency rows, [reserve] pre-sizes everything for a
   known network shape, and [set_capacity] plus [reset_flows] let the
   offline solver rewind one network in place between rounds instead of
   rebuilding it (see lib/core/offline_solver.ml).  The BFS/DFS scratch
   arrays of Dinic live in the arena too, so a round loop triggers no
   allocation at all. *)

type t = {
  mutable n : int;
  mutable m : int;                (* number of arcs incl. reverses *)
  mutable cap : num array;
  mutable flow : num array;
  mutable dst : int array;
  mutable head : int array;       (* first edge id out of each vertex, -1 = none *)
  mutable tail_ : int array;      (* last edge id out of each vertex, -1 = none *)
  mutable next : int array;       (* per-edge successor in its vertex chain, -1 = end *)
  (* Dinic/BFS scratch, reused across runs.  [iter_] holds the DFS arc
     cursor per vertex as an edge id into the [next] chains. *)
  mutable level : int array;
  mutable iter_ : int array;
  mutable queue : int array;
  (* Work counters, accumulated across runs on this arena and cleared only
     by [reset_counters] — so a round loop can report per-solve totals. *)
  mutable pushes : int;     (* edge-flow updates *)
  mutable bfs_waves : int;  (* level-graph / augmenting-path BFS passes *)
}

let create ~n =
  {
    n;
    m = 0;
    cap = Array.make 16 F.zero;
    flow = Array.make 16 F.zero;
    dst = Array.make 16 0;
    head = Array.make (max n 1) (-1);
    tail_ = Array.make (max n 1) (-1);
    next = Array.make 16 (-1);
    level = [||];
    iter_ = [||];
    queue = [||];
    pushes = 0;
    bfs_waves = 0;
  }

let grow_vertices g n =
  let len = Array.length g.head in
  if n > len then begin
    let len' = max n (2 * len) in
    let grow a =
      let b = Array.make len' (-1) in
      Array.blit a 0 b 0 len;
      b
    in
    g.head <- grow g.head;
    g.tail_ <- grow g.tail_
  end

(* Rewind to an empty network on [n] vertices, keeping the flat
   cap/flow/dst/next arrays so a round loop can rebuild without
   reallocating. *)
let clear g ~n =
  if n < 0 then invalid_arg "Maxflow.clear: negative vertex count";
  let live = max g.n (min n (Array.length g.head)) in
  let live = min live (Array.length g.head) in
  Array.fill g.head 0 live (-1);
  Array.fill g.tail_ 0 live (-1);
  grow_vertices g n;
  g.n <- n;
  g.m <- 0

let ensure_capacity g needed =
  let len = Array.length g.cap in
  if needed > len then begin
    let len' = max needed (2 * len) in
    let grow a fill =
      let b = Array.make len' fill in
      Array.blit a 0 b 0 len;
      b
    in
    g.cap <- grow g.cap F.zero;
    g.flow <- grow g.flow F.zero;
    g.dst <- grow g.dst 0;
    g.next <- grow g.next (-1)
  end

(* Pre-size the arena so a known-shape rebuild triggers no growth inside
   the hot loop.  Returns [true] if any array actually grew — solver
   sessions count these to report arena churn. *)
let reserve g ~vertices ~edges =
  let grew = ref false in
  if vertices > Array.length g.head then begin
    grow_vertices g vertices;
    grew := true
  end;
  let arcs = 2 * edges in
  if arcs > Array.length g.cap then begin
    ensure_capacity g arcs;
    grew := true
  end;
  !grew

(* Append arc [e] to [v]'s chain — tail append keeps the chain in
   insertion order. *)
let attach g v e =
  g.next.(e) <- -1;
  let t = g.tail_.(v) in
  if t < 0 then g.head.(v) <- e else g.next.(t) <- e;
  g.tail_.(v) <- e

(* Returns the forward-edge id; the reverse edge (zero capacity) lives at
   [id + 1].  [F.sign] is -1 on a NaN, so a NaN capacity is rejected with
   the negative ones. *)
let add_edge g ~src ~dst ~cap =
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then invalid_arg "Maxflow.add_edge: vertex out of range";
  if F.sign cap < 0 then invalid_arg "Maxflow.add_edge: negative or NaN capacity";
  let id = g.m in
  ensure_capacity g (id + 2);
  g.cap.(id) <- cap;
  g.flow.(id) <- F.zero;
  g.dst.(id) <- dst;
  g.cap.(id + 1) <- F.zero;
  g.flow.(id + 1) <- F.zero;
  g.dst.(id + 1) <- src;
  attach g src id;
  attach g dst (id + 1);
  g.m <- id + 2;
  id

(* Iterate the edges out of [v] in insertion order (the order every
   algorithm below depends on for determinism). *)
let iter_adj g v f =
  let e = ref g.head.(v) in
  while !e >= 0 do
    f !e;
    e := g.next.(!e)
  done

(* Inlined, so that on floats a residual never leaves a register. *)
let[@inline] residual cap flow e = F.sub cap.(e) flow.(e)
let[@inline] positive x = F.sign x > 0

let[@inline] push g flow e x =
  g.pushes <- g.pushes + 1;
  flow.(e) <- F.add flow.(e) x;
  flow.(e lxor 1) <- F.sub flow.(e lxor 1) x

type counters = { pushes : int; bfs_waves : int }

let counters (g : t) = { pushes = g.pushes; bfs_waves = g.bfs_waves }

let reset_counters (g : t) =
  g.pushes <- 0;
  g.bfs_waves <- 0

let reset_flows g = Array.fill g.flow 0 g.m F.zero

(* Change the capacity of an existing forward edge without touching the
   adjacency.  The installed flow is left as-is: the caller resets or
   re-solves it. *)
let set_capacity g e ~cap =
  if e < 0 || e >= g.m || e land 1 <> 0 then
    invalid_arg "Maxflow.set_capacity: not a forward edge id";
  if F.sign cap < 0 then invalid_arg "Maxflow.set_capacity: negative or NaN capacity";
  g.cap.(e) <- cap

let fit_scratch g =
  if Array.length g.level < g.n then begin
    let len = max g.n (2 * Array.length g.level) in
    g.level <- Array.make len 0;
    g.iter_ <- Array.make len 0;
    g.queue <- Array.make len 0
  end

(* Dinic: BFS level graph, then DFS blocking flow with arc pointers.
   Augments the *installed* flow (which is zero on a fresh network) and
   returns the amount added. *)
let dinic g ~source ~sink =
  if source = sink then invalid_arg "Maxflow.dinic: source = sink";
  fit_scratch g;
  let level = g.level and iter = g.iter_ and queue = g.queue in
  let cap = g.cap and flow = g.flow and dst = g.dst and head_ = g.head and next = g.next in
  let bfs () =
    g.bfs_waves <- g.bfs_waves + 1;
    Array.fill level 0 g.n (-1);
    level.(source) <- 0;
    queue.(0) <- source;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let lu = level.(u) + 1 in
      let e = ref head_.(u) in
      while !e >= 0 do
        let v = dst.(!e) in
        if level.(v) < 0 && positive (residual cap flow !e) then begin
          level.(v) <- lu;
          queue.(!tail) <- v;
          incr tail
        end;
        e := next.(!e)
      done
    done;
    level.(sink) >= 0
  in
  let rec dfs u limit =
    if u = sink then limit
    else begin
      let result = ref F.zero in
      let continue = ref true in
      while !continue && iter.(u) >= 0 do
        let e = iter.(u) in
        let v = dst.(e) in
        let r = residual cap flow e in
        if level.(v) = level.(u) + 1 && positive r then begin
          let pushed = dfs v (F.min limit r) in
          if positive pushed then begin
            push g flow e pushed;
            result := pushed;
            continue := false
          end
          else iter.(u) <- next.(e)
        end
        else iter.(u) <- next.(e)
      done;
      !result
    end
  in
  (* An upper bound on any augmentation: total capacity out of source. *)
  let infinity_ =
    let acc = ref F.one in
    let e = ref head_.(source) in
    while !e >= 0 do
      acc := F.add !acc cap.(!e);
      e := next.(!e)
    done;
    !acc
  in
  let total = ref F.zero in
  while bfs () do
    Array.blit head_ 0 iter 0 g.n;
    let rec drain () =
      let f = dfs source infinity_ in
      if positive f then begin
        total := F.add !total f;
        drain ()
      end
    in
    drain ()
  done;
  !total

(* Edmonds–Karp: BFS shortest augmenting paths.  Slower; used only to
   cross-check Dinic in tests. *)
let edmonds_karp g ~source ~sink =
  if source = sink then invalid_arg "Maxflow.edmonds_karp: source = sink";
  let cap = g.cap and flow = g.flow and dst = g.dst in
  let pred = Array.make g.n (-1) in
  let queue = Array.make g.n 0 in
  let find_path () =
    g.bfs_waves <- g.bfs_waves + 1;
    Array.fill pred 0 g.n (-1);
    pred.(source) <- max_int;
    queue.(0) <- source;
    let head = ref 0 and tail = ref 1 in
    let found = ref false in
    while not !found && !head < !tail do
      let u = queue.(!head) in
      incr head;
      iter_adj g u
        (fun e ->
          let v = dst.(e) in
          if pred.(v) < 0 && positive (residual cap flow e) then begin
            pred.(v) <- e;
            if v = sink then found := true
            else begin
              queue.(!tail) <- v;
              incr tail
            end
          end)
    done;
    !found
  in
  let total = ref F.zero in
  while find_path () do
    (* Bottleneck along the predecessor chain. *)
    let rec bottleneck v acc =
      if v = source then acc
      else begin
        let e = pred.(v) in
        bottleneck dst.(e lxor 1) (F.min acc (residual cap flow e))
      end
    in
    let first = residual cap flow pred.(sink) in
    let b = bottleneck dst.(pred.(sink) lxor 1) first in
    let rec augment v =
      if v <> source then begin
        let e = pred.(v) in
        push g flow e b;
        augment dst.(e lxor 1)
      end
    in
    augment sink;
    total := F.add !total b
  done;
  !total

(* FIFO push-relabel with the gap heuristic: a third independent
   max-flow implementation (different algorithmic family from the two
   augmenting-path algorithms), used only to cross-check Dinic in
   test_flow. *)
let push_relabel g ~source ~sink =
  if source = sink then invalid_arg "Maxflow.push_relabel: source = sink";
  let cap = g.cap and flow = g.flow and dst = g.dst in
  let n = g.n in
  let height = Array.make n 0 in
  let excess = Array.make n F.zero in
  let count = Array.make ((2 * n) + 1) 0 in
  (* active-vertex FIFO *)
  let queue = Queue.create () in
  let in_queue = Array.make n false in
  let activate v =
    if (not in_queue.(v)) && v <> source && v <> sink && positive excess.(v) then begin
      in_queue.(v) <- true;
      Queue.push v queue
    end
  in
  height.(source) <- n;
  count.(0) <- n - 1;
  count.(n) <- 1;
  (* Saturate all source edges. *)
  iter_adj g source
    (fun e ->
      let r = residual cap flow e in
      if positive r then begin
        push g flow e r;
        excess.(dst.(e)) <- F.add excess.(dst.(e)) r;
        excess.(source) <- F.sub excess.(source) r;
        activate dst.(e)
      end);
  let relabel v =
    (* Gap heuristic: if v's old height level empties, lift everything
       above it past n. *)
    let old = height.(v) in
    let mut_min = ref ((2 * n) + 1) in
    iter_adj g v
      (fun e ->
        if positive (residual cap flow e) then mut_min := min !mut_min (height.(dst.(e)) + 1));
    let h = if !mut_min > 2 * n then (2 * n) else !mut_min in
    count.(old) <- count.(old) - 1;
    height.(v) <- h;
    count.(h) <- count.(h) + 1;
    if count.(old) = 0 && old < n then
      for u = 0 to n - 1 do
        if u <> source && height.(u) > old && height.(u) <= n then begin
          count.(height.(u)) <- count.(height.(u)) - 1;
          height.(u) <- n + 1;
          count.(n + 1) <- count.(n + 1) + 1
        end
      done
  in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    in_queue.(v) <- false;
    let continue = ref true in
    while !continue && positive excess.(v) do
      (* Push along admissible edges; if excess survives a full sweep,
         every admissible edge is saturated, so a relabel is due. *)
      iter_adj g v
        (fun e ->
          if positive excess.(v) then begin
            let r = residual cap flow e in
            if positive r && height.(v) = height.(dst.(e)) + 1 then begin
              let amount = F.min excess.(v) r in
              push g flow e amount;
              excess.(v) <- F.sub excess.(v) amount;
              let u = dst.(e) in
              excess.(u) <- F.add excess.(u) amount;
              activate u
            end
          end);
      if positive excess.(v) then begin
        if height.(v) >= 2 * n then continue := false
        else relabel v
      end
    done
  done;
  (* Flow value = excess accumulated at the sink. *)
  excess.(sink)

(* After [dinic]: whether its last BFS, the one that found the sink
   unreachable, labelled [v].  That BFS has no early exit, so these are
   the vertices [min_cut] returns, without a second traversal. *)
let reached g v = g.level.(v) >= 0

(* Vertices reachable from [source] in the residual graph; after a
   max-flow this is the source side of a minimum cut. *)
let min_cut g ~source =
  let cap = g.cap and flow = g.flow and dst = g.dst in
  let seen = Array.make g.n false in
  let rec go u =
    if not seen.(u) then begin
      seen.(u) <- true;
      iter_adj g u (fun e -> if positive (residual cap flow e) then go dst.(e))
    end
  in
  go source;
  seen

let cut_capacity g side =
  let acc = ref F.zero in
  for e = 0 to g.m - 1 do
    if e land 1 = 0 then begin
      let src = g.dst.(e lxor 1) and dst = g.dst.(e) in
      if side.(src) && not side.(dst) then acc := F.add !acc g.cap.(e)
    end
  done;
  !acc

let flow_on g e = g.flow.(e)

let flow_value g ~source =
  let flow = g.flow and next = g.next in
  let acc = ref F.zero in
  let e = ref g.head.(source) in
  while !e >= 0 do
    acc := F.add !acc flow.(!e);
    e := next.(!e)
  done;
  !acc

type violation =
  | Capacity_exceeded of int
  | Negative_flow of int
  | Conservation of int

(* Audit a flow: capacity respected on every forward edge, no negative
   forward flow, conservation at every vertex except source/sink. *)
let audit g ~source ~sink =
  let problems = ref [] in
  for e = 0 to g.m - 1 do
    if e land 1 = 0 then begin
      if not (F.leq_approx g.flow.(e) g.cap.(e)) then problems := Capacity_exceeded e :: !problems;
      if not (F.leq_approx F.zero g.flow.(e)) then problems := Negative_flow e :: !problems
    end
  done;
  let net = Array.make g.n F.zero in
  for e = 0 to g.m - 1 do
    if e land 1 = 0 then begin
      let src = g.dst.(e lxor 1) and dst = g.dst.(e) in
      net.(src) <- F.sub net.(src) g.flow.(e);
      net.(dst) <- F.add net.(dst) g.flow.(e)
    end
  done;
  for v = 0 to g.n - 1 do
    if v <> source && v <> sink && not (F.equal_approx net.(v) F.zero) then
      problems := Conservation v :: !problems
  done;
  List.rev !problems

let num_edges g = g.m / 2

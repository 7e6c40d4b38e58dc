(* The paper's main contribution (Section 2, Fig. 2): a combinatorial
   polynomial-time algorithm for energy-optimal multi-processor schedules
   with migration, built on repeated maximum-flow computations.

   The algorithm constructs the optimal schedule speed level by speed
   level.  Phase i conjectures that a set of pending jobs forms the next
   equal-speed class J_i, reserves m_j = min(n_j, m - used_j) processors
   per grid interval (Lemma 3; note the paper's Fig. 2 line 6 omits the
   "m -" by an obvious typo), sets the uniform speed s = W / P, and asks a
   max-flow feasibility question on the network of Fig. 1:

       source --(w_k / s)--> job k --(|I_j|)--> interval j --(m_j |I_j|)--> sink.

   If the flow saturates the source (equivalently the sink, both sides
   total P), the conjecture is correct and the flow values on job->interval
   edges are the execution times t_kj.  Otherwise every job the maximum
   flow leaves unreachable from the source in its residual network
   provably does not belong to J_i (the set contains every Lemma 4
   certificate; see [certify]) and is removed for the next round.  The
   paper starts every phase from all remaining jobs; here the removed jobs
   are kept as a pending set of their own, which holds exactly the
   candidates' classes no faster than the conjectured speed, and each phase
   starts from the most recently kept set (see [solve_in]).  The classes,
   speeds and t_kj are the paper's; a component takes 2 phases - 1
   rounds.

   Theorem 1 counts max-flow calls, and the bookkeeping around each call
   stays linear.  A solve sorts its 2n release and deadline times once
   ([sort_grid]) and reads the breakpoints, every job's window and the
   components off the ranks ([cut_components]), so each component solves
   on its slice of the grid without a sort or search of its own.  The
   Lemma 3 counts n_j move by range updates on a difference array, so a
   phase start costs O(n + k) and a failed round's removals O(n + span
   of its victims) ([certify]); the sweep's t_kj come out of a counting
   sort by job ([sweep_alloc]); and the packer lays the (interval, phase)
   blocks out in flat arrays with two counting sorts and walks the grid
   interval by interval ([pack]), so each processor's segments arrive in
   start order and Schedule.make buckets them by processor without
   sorting.

   This file is a template, not a module of ss_core: a dune rule
   (lib/core/dune) compiles it once per field.  Each instance is a header
   binding [F] to the field, [Flow] to the Maxflow instance on the same
   field and [type num] to the field's element type, then a line
   directive that points compile errors back here, then this text.  So in
   the float instance (Offline.F) every [F] operation is a known function
   that ocamlopt inlines, every [num array] is a flat float array and
   [job] is a flat float record, where a functor body would box each of
   them (this compiler has no flambda).  The exact instance
   (Offline.Exact) replays the same text on rationals to certify the
   float run.  Editors type-check the generated instances under _build,
   not this file.  The Lemma 2 wrap-packing that turns a run into a
   schedule lives here too, in the same field ([wrap_pack], laid over the
   grid by [pack]), so the exact instance packs with the code every float
   schedule (offline, OA(m) and AVR(m)) is built with; the tests audit its
   exact segments with their own reference at zero tolerance.
   Schedule.check is the one production audit, and [run] the one offline
   result: Offline.solve returns it with the schedule. *)

type job = { release : num; deadline : num; work : num }

type phase = {
  members : int list;             (* job ids of this speed class *)
  speed : num;
  procs : int array;              (* m_ij, indexed by grid interval *)
  alloc : (int * int * num) list; (* (job, interval, execution time) *)
}

type stats = {
  phases : int;
  rounds : int;                   (* oracle answers: dense max flows or sweeps *)
  resumes : int;                  (* dense: rounds - phases (rewound failed rounds) *)
  removals : int;
  grouped : int;                  (* failed rounds that removed > 1 victim *)
  largest_group : int;            (* most victims one failed round removed *)
  net_edges : int;                (* forward edges of the dense round network *)
  net_pushes : int;               (* dense edge-flow updates across the whole solve *)
  net_bfs_waves : int;            (* dense max-flow BFS passes across the whole solve *)
  phase_resumes : int;            (* dense: phases - 1 (rewound phase starts) *)
}

type run = {
  breakpoints : num array;        (* sorted grid times, length k+1 *)
  schedule_phases : phase list;   (* in decreasing speed order *)
  stats : stats;
}

exception Stranded_job of int
(* Raised when a remaining job has no reservable processor time anywhere
   in its window.  Cannot happen for valid instances (speeds are
   unbounded); it would indicate a bug, so we fail loudly. *)

(* --- the endpoint sort ---------------------------------------------------
   Endpoint e of a solve is job e/2's release (e even) or deadline (e
   odd), the order in which List.concat_map (fun j -> [j.release;
   j.deadline]) lists them.  A merge sort orders the ids by [time], once
   per solve, and splits as List.sort_uniq does: halves of [len asr 1]
   and the rest, leaves of two and three.  Ties take the left run first,
   and a three-leaf whose first two times are equal puts its second
   first, because that is the one List.sort_uniq keeps there.  So the
   first id of every run of equal times is the one whose time
   List.sort_uniq F.compare keeps; on floats the two could otherwise
   differ in the sign of a zero. *)

(* src.(lo .. lo+len-1), len 2 or 3, sorted into dst (which may be src). *)
let sort_leaf (time : num array) src dst lo len =
  let x1 = src.(lo) and x2 = src.(lo + 1) in
  let c = F.compare time.(x2) time.(x1) in
  let a = if c < 0 || (c = 0 && len = 3) then x2 else x1 in
  let b = if a = x1 then x2 else x1 in
  if len = 2 then begin
    dst.(lo) <- a;
    dst.(lo + 1) <- b
  end
  else begin
    let x3 = src.(lo + 2) in
    if F.compare time.(x3) time.(b) >= 0 then begin
      dst.(lo) <- a;
      dst.(lo + 1) <- b;
      dst.(lo + 2) <- x3
    end
    else if F.compare time.(x3) time.(a) >= 0 then begin
      dst.(lo) <- a;
      dst.(lo + 1) <- x3;
      dst.(lo + 2) <- b
    end
    else begin
      dst.(lo) <- x3;
      dst.(lo + 1) <- a;
      dst.(lo + 2) <- b
    end
  end

(* The sorted runs src.(lo .. mid-1) and src.(mid .. hi-1) merged into
   dst.(lo .. hi-1), the left run first on ties. *)
let merge_ends (time : num array) src dst lo mid hi =
  let i = ref lo and j = ref mid in
  for d = lo to hi - 1 do
    if !i < mid && (!j >= hi || F.compare time.(src.(!j)) time.(src.(!i)) >= 0) then begin
      dst.(d) <- src.(!i);
      incr i
    end
    else begin
      dst.(d) <- src.(!j);
      incr j
    end
  done

(* src.(lo .. lo+len-1), len >= 2, sorted into dst ([sort_into]) or in
   place ([sort_in]), the other array's range serving as scratch. *)
let rec sort_into time src dst lo len =
  if len <= 3 then sort_leaf time src dst lo len
  else begin
    let h = len asr 1 in
    sort_in time src dst lo h;
    sort_in time src dst (lo + h) (len - h);
    merge_ends time src dst lo (lo + h) (lo + len)
  end

and sort_in time src dst lo len =
  if len <= 3 then sort_leaf time src src lo len
  else begin
    let h = len asr 1 in
    sort_into time src dst lo h;
    sort_into time src dst (lo + h) (len - h);
    merge_ends time dst src lo (lo + h) (lo + len)
  end

let validate_jobs jobs =
  let finite x = Float.is_finite (F.to_float x) in
  Array.iter
    (fun j ->
      if not (finite j.release && finite j.deadline && finite j.work) then
        invalid_arg "Offline.solve: non-finite job";
      if F.compare j.release j.deadline >= 0 then
        invalid_arg "Offline.solve: release >= deadline";
      if F.compare j.work F.zero <= 0 then invalid_arg "Offline.solve: work <= 0";
      (* The density in floats, as [Job.validate] computes it. *)
      let d = F.to_float j.work /. (F.to_float j.deadline -. F.to_float j.release) in
      if not (d > 0. && Float.is_finite d) then
        invalid_arg "Offline.solve: density not a positive finite float")
    jobs

let validate ~machines jobs =
  if machines <= 0 then invalid_arg "Offline.solve: machines <= 0";
  validate_jobs jobs

(* --- reusable solver workspace ---------------------------------------
   Everything a solve allocates per call — the Lemma 3 reservation state,
   the flow arena and the sweep oracle's scratch — hoisted into a
   grow-only workspace so cross-arrival sessions reuse one backing store
   across successive solves.  All arrays are addressed on prefixes
   [0..n-1] / [0..k-1] and re-initialized by each solve, so reuse never
   leaks state between solves (and a fresh workspace per call reproduces
   the session behaviour exactly). *)
type workspace = {
  g : Flow.t;
  mutable nslots : int;           (* job-indexed array capacity *)
  mutable kslots : int;           (* interval-indexed array capacity *)
  mutable widths : num array;
  mutable first_ivl : int array;
  mutable last_ivl : int array;
  mutable used : int array;
  mutable pending : int array;    (* per job: its pending set's stack slot, -1 *)
  mutable candidate : bool array;
  mutable nj : int array;
  mutable procs : int array;
  mutable delta : int array;      (* k+1 range updates of [nj]; zero between uses *)
  mutable grows : int;            (* component solves that grew the arena *)
  (* The whole instance's grid and components (see [sort_grid]). *)
  mutable ends : int array;       (* 2n endpoint ids, sorted by time *)
  mutable ends_tmp : int array;   (* merge scratch, then each run's first id *)
  mutable end_time : num array;   (* per endpoint id: its time *)
  mutable win_first : int array;  (* per job: first grid interval of its window *)
  mutable win_last : int array;   (* per job: last grid interval of its window *)
  mutable stretch : int array;    (* per grid interval: its stretch between cuts *)
  (* Sweep-oracle state, touched only by solves on the sweep substrate. *)
  mutable sweep_order : int array;(* jobs sorted by (first_ivl, index) *)
  mutable sweep_bucket : int array;(* counting-sort scratch, k+1 *)
  mutable sweep_rem : num array;  (* per job: unrouted demand *)
  mutable sweep_sink : num array; (* per interval: routed time *)
  mutable sweep_pre : num array;  (* k+1 prefix sums of |I_j| over procs_j > 0 *)
  mutable sweep_pref : float array; (* [sweep_pre] as floats *)
  mutable sweep_prio : float array; (* per job: laxity, the heap key *)
  mutable sweep_heap : int array; (* active-job min-heap on (laxity, deadline, id) *)
  mutable sweep_tmp : int array;  (* jobs served in the current interval *)
  (* The pair store: one slot per (job, interval) pair the sweep's flow
     has made positive, threaded into its interval's supporter list and
     found through an open-addressed index on [i * k + j]. *)
  mutable pair_key : int array;   (* per slot: i * k + j *)
  mutable pair_flow : num array;  (* per slot: routed time *)
  mutable pair_next : int array;  (* per slot: next supporter of its interval *)
  mutable pairs : int;            (* slots in use *)
  mutable sup_head : int array;   (* per interval: newest supporter slot, -1 *)
  mutable index_slot : int array; (* power-of-two cells: a slot id *)
  mutable index_stamp : int array;(* a cell is live iff stamped [index_gen] *)
  mutable index_gen : int;
  (* Stage 2's searches, over n job then k interval nodes. *)
  mutable aug_visited : bool array;(* per node: reached *)
  mutable aug_pred : int array;   (* per node: predecessor on its path *)
  mutable aug_queue : int array;  (* BFS queue *)
  mutable aug_next : int array;   (* jump pointers: next unvisited interval *)
  (* [sweep_alloc]'s counting sort of the live slots by job. *)
  mutable alloc_start : int array;(* bucket bounds, n+1 at most *)
  mutable alloc_slots : int array;(* live slot ids, sorted by key *)
}

let make_workspace () =
  {
    g = Flow.create ~n:2;
    nslots = 0;
    kslots = 0;
    widths = [||];
    first_ivl = [||];
    last_ivl = [||];
    used = [||];
    pending = [||];
    candidate = [||];
    nj = [||];
    procs = [||];
    delta = [||];
    grows = 0;
    ends = [||];
    ends_tmp = [||];
    end_time = [||];
    win_first = [||];
    win_last = [||];
    stretch = [||];
    sweep_order = [||];
    sweep_bucket = [||];
    sweep_rem = [||];
    sweep_sink = [||];
    sweep_pre = [||];
    sweep_pref = [||];
    sweep_prio = [||];
    sweep_heap = [||];
    sweep_tmp = [||];
    pair_key = [||];
    pair_flow = [||];
    pair_next = [||];
    pairs = 0;
    sup_head = [||];
    index_slot = [||];
    index_stamp = [||];
    index_gen = 0;
    aug_visited = [||];
    aug_pred = [||];
    aug_queue = [||];
    aug_next = [||];
    alloc_start = [||];
    alloc_slots = [||];
  }

(* Grow (never shrink) the workspace to fit an [n]-job, [k]-interval
   solve.  Dense solves also pre-size the flow arena for the worst-case
   Fig. 1 network, so the round loop triggers no allocation; sweep
   solves build no network at all and size their O(n + m k) oracle
   state in [sweep_fit] instead. *)
let ws_fit ws ~n ~k ~dense =
  let grew = ref false in
  if n > ws.nslots then begin
    let n' = max n (2 * ws.nslots) in
    ws.first_ivl <- Array.make n' 0;
    ws.last_ivl <- Array.make n' 0;
    ws.pending <- Array.make n' (-1);
    ws.candidate <- Array.make n' false;
    ws.nslots <- n';
    grew := true
  end;
  if k > ws.kslots then begin
    let k' = max k (2 * ws.kslots) in
    ws.widths <- Array.make k' F.zero;
    ws.used <- Array.make k' 0;
    ws.nj <- Array.make k' 0;
    ws.procs <- Array.make k' 0;
    ws.delta <- Array.make (k' + 1) 0;
    ws.kslots <- k';
    grew := true
  end;
  if dense && Flow.reserve ws.g ~vertices:(n + k + 2) ~edges:(n + k + (n * k)) then
    grew := true;
  if !grew then ws.grows <- ws.grows + 1

(* From this grid size (n * k, the bound on the dense network's window
   edges) up a component is solved on the sweep oracle; below it the
   dense Fig. 1 build is faster. *)
let compress_threshold = 20_000

(* --- the pair store ----------------------------------------------------
   The sweep's flow is sparse: Stage 1 leaves at most n + (m + 1) k
   positive pairs (see [sweep]), and the augmenting stage adds few.
   Each pair a sweep makes positive owns one slot for the rest of the
   sweep, drained or refilled in place; a cleared index (a new stamp
   generation) empties the store in O(1) at the start of every sweep. *)

let pair_hash key mask =
  let h = key * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 32)) land mask

(* The slot holding [key], or -1. *)
let pair_find ws key =
  let mask = Array.length ws.index_slot - 1 in
  let rec probe c =
    if ws.index_stamp.(c) <> ws.index_gen then -1
    else
      let t = ws.index_slot.(c) in
      if ws.pair_key.(t) = key then t else probe ((c + 1) land mask)
  in
  probe (pair_hash key mask)

let pair_flow ws key =
  let t = pair_find ws key in
  if t < 0 then F.zero else ws.pair_flow.(t)

(* Claim an index cell for [key], held in slot [t]; a key has one slot. *)
let index_set ws key t =
  let mask = Array.length ws.index_slot - 1 in
  let rec probe c =
    if ws.index_stamp.(c) <> ws.index_gen then begin
      ws.index_stamp.(c) <- ws.index_gen;
      ws.index_slot.(c) <- t
    end
    else probe ((c + 1) land mask)
  in
  probe (pair_hash key mask)

(* Size the index for [slots] slots at load factor <= 1/2; re-indexes the
   live slots when it has to grow. *)
let index_fit ws slots =
  if 2 * slots > Array.length ws.index_slot then begin
    let cells = ref 16 in
    while !cells < 2 * slots do
      cells := 2 * !cells
    done;
    ws.index_slot <- Array.make !cells 0;
    ws.index_stamp <- Array.make !cells 0;
    ws.index_gen <- 1;
    for t = 0 to ws.pairs - 1 do
      index_set ws ws.pair_key.(t) t
    done
  end

let grow_pairs ws cap =
  if cap > Array.length ws.pair_key then begin
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 ws.pairs;
      b
    in
    ws.pair_key <- grow ws.pair_key 0;
    ws.pair_flow <- grow ws.pair_flow F.zero;
    ws.pair_next <- grow ws.pair_next (-1)
  end;
  index_fit ws cap

(* A new slot for pair [key] (in interval [ivl]) carrying [flow], at the
   head of the interval's supporter list. *)
let pair_add ws ~key ~ivl flow =
  if ws.pairs >= Array.length ws.pair_key then grow_pairs ws (max 16 (2 * ws.pairs));
  let t = ws.pairs in
  ws.pair_key.(t) <- key;
  ws.pair_flow.(t) <- flow;
  ws.pair_next.(t) <- ws.sup_head.(ivl);
  ws.sup_head.(ivl) <- t;
  ws.pairs <- t + 1;
  index_set ws key t

(* Augment pair [key] by [b] in its slot, or in a new one if it has none. *)
let pair_push ws ~key ~ivl b =
  let t = pair_find ws key in
  if t >= 0 then ws.pair_flow.(t) <- F.add ws.pair_flow.(t) b else pair_add ws ~key ~ivl b

(* Per-solve sweep precomputation: array sizing and the sweep's job order
   (counting sort by first interval, stable, so ties stay in index order
   and the sweep is deterministic). *)
let sweep_fit ws ~n ~k ~machines =
  if Array.length ws.sweep_order < n then ws.sweep_order <- Array.make n 0;
  if Array.length ws.sweep_bucket < k + 1 then ws.sweep_bucket <- Array.make (k + 1) 0;
  if Array.length ws.sweep_rem < n then ws.sweep_rem <- Array.make n F.zero;
  if Array.length ws.sweep_sink < k then ws.sweep_sink <- Array.make k F.zero;
  if Array.length ws.sweep_pre < k + 1 then begin
    ws.sweep_pre <- Array.make (k + 1) F.zero;
    ws.sweep_pref <- Array.make (k + 1) 0.
  end;
  if Array.length ws.sweep_prio < n then ws.sweep_prio <- Array.make n 0.;
  if Array.length ws.sweep_heap < n then ws.sweep_heap <- Array.make n 0;
  if Array.length ws.sweep_tmp < n then ws.sweep_tmp <- Array.make n 0;
  if Array.length ws.sup_head < k then ws.sup_head <- Array.make k (-1);
  if Array.length ws.alloc_start < n + 1 then ws.alloc_start <- Array.make (n + 1) 0;
  ws.pairs <- 0;
  (* No interval reserves more processors than it has jobs. *)
  grow_pairs ws (n + ((min machines n + 1) * k) + 8);
  if Array.length ws.aug_visited < n + k then begin
    ws.aug_visited <- Array.make (n + k) false;
    ws.aug_pred <- Array.make (n + k) 0;
    ws.aug_queue <- Array.make (n + k) 0
  end;
  if Array.length ws.aug_next < k + 1 then ws.aug_next <- Array.make (k + 1) 0;
  let bucket = ws.sweep_bucket and first_ivl = ws.first_ivl in
  Array.fill bucket 0 (k + 1) 0;
  for i = 0 to n - 1 do
    bucket.(first_ivl.(i) + 1) <- bucket.(first_ivl.(i) + 1) + 1
  done;
  for b = 1 to k do
    bucket.(b) <- bucket.(b) + bucket.(b - 1)
  done;
  for i = 0 to n - 1 do
    let b = first_ivl.(i) in
    ws.sweep_order.(bucket.(b)) <- i;
    bucket.(b) <- bucket.(b) + 1
  done

(* --- the sweep oracle --------------------------------------------------
   An exact maximum flow of the dense Fig. 1 network for the current
   candidates and conjectured [speed], in two stages, neither of which
   materializes the O(n k) graph.  Returns the flow value; the flow
   itself is left in the pair store, the per-interval sink totals in
   [sweep_sink].

   Stage 1 — urgency sweep over the intervals in time order.  Let pre(j)
   sum |I| over the intervals before j with procs > 0.  A pair carries
   at most its |I|, so after interval j a job that still needs rem_i can
   get at most pre(last_i + 1) - pre(j + 1) from the rest of its window;
   the excess is its mandatory share in j.  Active candidates wait in a
   min-heap on their laxity pre(last_i + 1) - rem_i, ties by deadline and
   then index, so the jobs with a positive mandatory share are its
   front.  Per interval, starting from the residual procs_j |I_j|:
   (a) least laxity first, each job with a positive mandatory share
       takes it, capped by |I_j| and the residual;
   (b) those jobs are topped up towards |I_j|, in the same order;
   (c) the rest take min(|I_j|, rem_i, residual), least laxity first.
   Expired jobs leave the heap when popped.  The heap compares float
   copies of the laxities while every routed amount stays in F, so the
   exact field runs the same rule.  Earliest deadline first has no such
   lookahead: it spends a long job's demand on early leftovers, and the
   late intervals that only such jobs can feed go short.  The result is
   a feasible flow that is often maximum but not always (a share looks
   at pair caps only, not at later intervals' sink capacity).

   Each served pair takes one slot.  In an interval a pair either takes
   the whole |I_j| (at most procs_j such pairs), drains the residual (at
   most one), exhausts its job, or is a share (a) that (b) could not top
   up.  Such a job is left needing exactly the whole |I| of every later
   interval of its window, so from then on each of its pairs takes the
   whole |I| or drains a residual.  So a job has at most one pair of the
   last two kinds, Stage 1 leaves at most n + (m + 1) k pairs (in exact
   arithmetic; the store grows if rounding asks for more), every pop
   serves a pair or discards an expired job, and a sweep costs
   O((n + m k) log n).

   Stage 2 — shortest augmenting paths on the *implicit* dense residual
   graph, one per search.  A search is a BFS from every candidate with
   demand left that alternates job and interval nodes: a job's forward
   arcs are the unvisited intervals of its contiguous window with pair
   slack (enumerated through path-compressed jump pointers), an
   interval's backward arcs come from its supporter list.  It stops at
   the first interval with sink slack, which BFS order makes the end of
   a shortest path, and augments that path by its bottleneck.
   Augmenting along shortest paths until the sink is unreachable makes
   the flow maximum — Edmonds–Karp termination needs no integrality — so
   the oracle's value answers the accept test exactly, and the last
   search, which finds no interval with sink slack, leaves [aug_visited]
   marking the jobs reachable from the source: the removal set of a
   failed round (see [certify]).  A search costs O((n + span + live
   pairs) alpha), the span being the candidates' intervals.  Stage 1
   leaves little to repair: no augmenting path at all on heavy
   n = 1000 instances (m = 8, Pareto shape 1.1), and 43 over the 351
   rounds of a stream n = 1000 solve (DESIGN.md section 4). *)
let sweep ws ~n ~k (jobs : job array) speed =
  let candidate = ws.candidate
  and procs = ws.procs
  and widths = ws.widths
  and first_ivl = ws.first_ivl
  and last_ivl = ws.last_ivl
  and order = ws.sweep_order
  and rem = ws.sweep_rem
  and ssink = ws.sweep_sink
  and pre = ws.sweep_pre
  and pref = ws.sweep_pref
  and prio = ws.sweep_prio
  and heap = ws.sweep_heap
  and tmp = ws.sweep_tmp in
  ws.pairs <- 0;
  ws.index_gen <- ws.index_gen + 1;
  Array.fill ws.sup_head 0 k (-1);
  Array.fill ssink 0 k F.zero;
  (* The candidates' windows span [lo, hi]; procs is 0 outside it. *)
  let lo = ref k and hi = ref 0 in
  for i = 0 to n - 1 do
    if candidate.(i) then begin
      rem.(i) <- F.div jobs.(i).work speed;
      lo := Int.min !lo first_ivl.(i);
      hi := Int.max !hi last_ivl.(i)
    end
  done;
  let lo = !lo and hi = !hi in
  (* pre.(j): the time the intervals lo..j-1 can give one job; pref is
     its float copy, on which the heap ranks the laxities. *)
  let sum = ref F.zero and sumf = ref 0. in
  pre.(lo) <- F.zero;
  pref.(lo) <- 0.;
  for j = lo to hi do
    if procs.(j) > 0 then begin
      sum := F.add !sum widths.(j);
      sumf := F.to_float !sum
    end;
    pre.(j + 1) <- !sum;
    pref.(j + 1) <- !sumf
  done;
  let laxity i = pref.(last_ivl.(i) + 1) -. F.to_float rem.(i) in
  let hsize = ref 0 in
  let before a b =
    let pa = prio.(a) and pb = prio.(b) in
    pa < pb
    || (pa = pb && (last_ivl.(a) < last_ivl.(b) || (last_ivl.(a) = last_ivl.(b) && a < b)))
  in
  let hpush i =
    let c = ref !hsize in
    incr hsize;
    heap.(!c) <- i;
    let sifting = ref true in
    while !sifting && !c > 0 do
      let p = (!c - 1) / 2 in
      if before heap.(!c) heap.(p) then begin
        let t = heap.(!c) in
        heap.(!c) <- heap.(p);
        heap.(p) <- t;
        c := p
      end
      else sifting := false
    done
  in
  let hpop () =
    let top = heap.(0) in
    decr hsize;
    heap.(0) <- heap.(!hsize);
    let c = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !c) + 1 in
      if l >= !hsize then sifting := false
      else begin
        let r = l + 1 in
        let s = if r < !hsize && before heap.(r) heap.(l) then r else l in
        if before heap.(s) heap.(!c) then begin
          let t = heap.(!c) in
          heap.(!c) <- heap.(s);
          heap.(s) <- t;
          c := s
        end
        else sifting := false
      end
    done;
    top
  in
  let ptr = ref 0 in
  let value = ref F.zero in
  for j = lo to hi do
    while !ptr < n && first_ivl.(order.(!ptr)) <= j do
      let i = order.(!ptr) in
      incr ptr;
      if candidate.(i) then begin
        prio.(i) <- laxity i;
        hpush i
      end
    done;
    if procs.(j) > 0 then begin
      let w = widths.(j) in
      let cap = F.mul (F.of_int procs.(j)) w in
      let residual = ref cap in
      let served = ref 0 in
      (* (a) Mandatory shares, least laxity first: the heap's front,
         up to the first job whose laxity reaches pre(j + 1). *)
      let mandatory = ref true in
      while !mandatory && !hsize > 0 && F.sign !residual > 0 do
        let i = heap.(0) in
        if last_ivl.(i) < j then ignore (hpop ())
        else if prio.(i) >= pref.(j + 1) then mandatory := false
        else begin
          let share = F.sub rem.(i) (F.sub pre.(last_ivl.(i) + 1) pre.(j + 1)) in
          if F.sign share <= 0 then mandatory := false
          else begin
            ignore (hpop ());
            let x = F.min (F.min share w) !residual in
            pair_add ws ~key:((i * k) + j) ~ivl:j x;
            rem.(i) <- F.sub rem.(i) x;
            residual := F.sub !residual x;
            tmp.(!served) <- i;
            incr served
          end
        end
      done;
      (* (b) Top them up to |I_j| in their slots, the newest [served]. *)
      let first_slot = ws.pairs - !served in
      let q = ref 0 in
      while !q < !served && F.sign !residual > 0 do
        let i = tmp.(!q) and t = first_slot + !q in
        let x = F.min (F.min (F.sub w ws.pair_flow.(t)) rem.(i)) !residual in
        if F.sign x > 0 then begin
          ws.pair_flow.(t) <- F.add ws.pair_flow.(t) x;
          rem.(i) <- F.sub rem.(i) x;
          residual := F.sub !residual x
        end;
        incr q
      done;
      (* (c) The rest, least laxity first. *)
      while !hsize > 0 && F.sign !residual > 0 do
        let i = hpop () in
        if last_ivl.(i) >= j then begin
          let x = F.min (F.min w rem.(i)) !residual in
          pair_add ws ~key:((i * k) + j) ~ivl:j x;
          rem.(i) <- F.sub rem.(i) x;
          residual := F.sub !residual x;
          tmp.(!served) <- i;
          incr served
        end
      done;
      ssink.(j) <- F.sub cap !residual;
      value := F.add !value ssink.(j);
      for q = 0 to !served - 1 do
        let i = tmp.(q) in
        if F.sign rem.(i) > 0 then begin
          prio.(i) <- laxity i;
          hpush i
        end
      done
    end
  done;
  (* Stage 2, one shortest augmenting path per search.  Node ids: job
     i -> i, interval j -> n + j.  Each reached node records its
     predecessor: an interval its job, a job its pair slot, a source -1.
     The candidates' windows lie in [lo, hi], so a search resets only
     that span and the job flags.  Tolerance-gated arcs make every
     bottleneck positive beyond tolerance, so the searches terminate. *)
  let visited = ws.aug_visited
  and queue = ws.aug_queue
  and pred = ws.aug_pred
  and nextiv = ws.aug_next in
  let iv j = n + j in
  let pair_slack u j = F.sub widths.(j) (pair_flow ws ((u * k) + j)) in
  let sink_slack j = F.sub (F.mul (F.of_int procs.(j)) widths.(j)) ssink.(j) in
  (* Path-compressed "next possibly-unvisited interval >= j". *)
  let rec find_next j =
    if j > hi || not visited.(iv j) then j
    else begin
      let r = find_next nextiv.(j) in
      nextiv.(j) <- r;
      r
    end
  in
  (* Every search's queue starts with the sources, the candidates with
     demand left, in index order; each search drops the drained ones. *)
  let sources = ref 0 in
  for i = 0 to n - 1 do
    if candidate.(i) then begin
      queue.(!sources) <- i;
      incr sources
    end
  done;
  let exhausted = ref false in
  while not !exhausted do
    Array.fill visited 0 n false;
    for j = lo to hi do
      (* A procs-free interval carries no arc at all. *)
      visited.(iv j) <- procs.(j) = 0;
      nextiv.(j) <- j + 1
    done;
    let head = ref 0 and tail = ref 0 in
    for q = 0 to !sources - 1 do
      let i = queue.(q) in
      if F.sign rem.(i) > 0 then begin
        visited.(i) <- true;
        pred.(i) <- -1;
        queue.(!tail) <- i;
        incr tail
      end
    done;
    sources := !tail;
    let found = ref (-1) in
    while !found < 0 && !head < !tail do
      let u = queue.(!head) in
      incr head;
      if u < n then begin
        let j = ref (find_next first_ivl.(u)) in
        while !found < 0 && !j <= last_ivl.(u) do
          let jj = !j in
          if F.sign (pair_slack u jj) > 0 then begin
            visited.(iv jj) <- true;
            pred.(iv jj) <- u;
            if F.sign (sink_slack jj) > 0 then found := jj
            else begin
              queue.(!tail) <- iv jj;
              incr tail
            end
          end;
          j := find_next (jj + 1)
        done
      end
      else begin
        let t = ref ws.sup_head.(u - n) in
        while !t >= 0 do
          let i = ws.pair_key.(!t) / k in
          if (not visited.(i)) && F.sign ws.pair_flow.(!t) > 0 then begin
            visited.(i) <- true;
            pred.(i) <- !t;
            queue.(!tail) <- i;
            incr tail
          end;
          t := ws.pair_next.(!t)
        done
      end
    done;
    if !found < 0 then exhausted := true
    else begin
      (* The path runs back from the found interval through its job,
         that job's pair slot (whose interval comes next), and so on to
         a source.  First its bottleneck, then the augmentation; in
         exact arithmetic the tight arc drops to zero. *)
      let bot = ref (sink_slack !found) and j = ref !found and src = ref (-1) in
      while !src < 0 do
        let u = pred.(iv !j) in
        bot := F.min !bot (pair_slack u !j);
        let t = pred.(u) in
        if t < 0 then src := u
        else begin
          bot := F.min !bot ws.pair_flow.(t);
          j := ws.pair_key.(t) mod k
        end
      done;
      let b = F.min !bot rem.(!src) in
      ssink.(!found) <- F.add ssink.(!found) b;
      rem.(!src) <- F.sub rem.(!src) b;
      value := F.add !value b;
      j := !found;
      while !j >= 0 do
        let u = pred.(iv !j) in
        pair_push ws ~key:((u * k) + !j) ~ivl:!j b;
        let t = pred.(u) in
        if t < 0 then j := -1
        else begin
          ws.pair_flow.(t) <- F.sub ws.pair_flow.(t) b;
          j := ws.pair_key.(t) mod k
        end
      done
    end
  done;
  !value

(* The sweep's positive pairs as (job, interval, time), in ascending
   (job, interval) order.  A counting sort over the live slots' range of
   job ids buckets them by job, each bucket in slot order; Stage 1
   creates a job's slots in interval order, so one insertion pass over
   the buckets moves only the slots Stage 2 appended, each within its
   own job's bucket.  The cost is O(pairs + range), not a sort. *)
let sweep_alloc ws ~k =
  let start = ws.alloc_start and key = ws.pair_key and flow = ws.pair_flow in
  let lo = ref max_int and hi = ref (-1) in
  for t = 0 to ws.pairs - 1 do
    if F.sign flow.(t) > 0 then begin
      lo := Int.min !lo (key.(t) / k);
      hi := Int.max !hi (key.(t) / k)
    end
  done;
  let lo = !lo and range = Int.max 0 (!hi - !lo + 1) in
  Array.fill start 0 (range + 1) 0;
  for t = 0 to ws.pairs - 1 do
    if F.sign flow.(t) > 0 then begin
      let b = (key.(t) / k) - lo + 1 in
      start.(b) <- start.(b) + 1
    end
  done;
  for b = 1 to range do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let live = start.(range) in
  if Array.length ws.alloc_slots < live then
    ws.alloc_slots <- Array.make (Array.length key) 0;
  let slots = ws.alloc_slots in
  for t = 0 to ws.pairs - 1 do
    if F.sign flow.(t) > 0 then begin
      let b = (key.(t) / k) - lo in
      slots.(start.(b)) <- t;
      start.(b) <- start.(b) + 1
    end
  done;
  for s = 1 to live - 1 do
    let t = slots.(s) in
    let p = ref s in
    while !p > 0 && key.(slots.(!p - 1)) > key.(t) do
      slots.(!p) <- slots.(!p - 1);
      decr p
    done;
    slots.(!p) <- t
  done;
  let alloc = ref [] in
  for s = live - 1 downto 0 do
    let t = slots.(s) in
    alloc := (key.(t) / k, key.(t) mod k, flow.(t)) :: !alloc
  done;
  !alloc

(* --- the dense substrate -----------------------------------------------
   The Fig. 1 network of a component is laid out by arithmetic: 0 =
   source, 1 = sink, job i = 2 + i, interval j = 2 + n + j; the forward
   edges are the n source edges, then every job's window edges in (i, j)
   order, then the k sink edges, and the x-th has id 2x.  [solve_split]
   hands [solve_in] one component, so every grid interval lies inside
   some job's window: in the first round every job is a candidate and
   every interval has procs >= 1, so this is the candidates' network.
   It is built once per component and rewound before every round, the
   first included: zero the flows, install w / s on the candidates'
   sources, 0 on the other jobs' and the current reservations m_j |I_j|
   on the sinks.  No reservation ever exceeds the first round's (n_j
   counts a subset of the jobs, used_j only grows), so no edge ever
   needs adding; a zero-capacity edge has
   zero residual, so no traversal ever takes it, and the max-flow's BFS
   levels, augmenting sequence and every edge flow are bit for bit those
   of a fresh build of the candidates' network. *)
let build_dense ws ~n ~k =
  let g = ws.g in
  Flow.clear g ~n:(n + k + 2);
  for i = 0 to n - 1 do
    ignore (Flow.add_edge g ~src:0 ~dst:(2 + i) ~cap:F.zero)
  done;
  for i = 0 to n - 1 do
    for j = ws.first_ivl.(i) to ws.last_ivl.(i) do
      ignore (Flow.add_edge g ~src:(2 + i) ~dst:(2 + n + j) ~cap:ws.widths.(j))
    done
  done;
  for j = 0 to k - 1 do
    ignore (Flow.add_edge g ~src:(2 + n + j) ~dst:1 ~cap:F.zero)
  done

let rewind_dense ws ~n ~k (jobs : job array) speed =
  let g = ws.g in
  Flow.reset_flows g;
  for i = 0 to n - 1 do
    Flow.set_capacity g (2 * i)
      ~cap:(if ws.candidate.(i) then F.div jobs.(i).work speed else F.zero)
  done;
  let sinks = Flow.num_edges g - k in
  for j = 0 to k - 1 do
    Flow.set_capacity g (2 * (sinks + j)) ~cap:(F.mul (F.of_int ws.procs.(j)) ws.widths.(j))
  done

(* --- removal certificates ----------------------------------------------
   A failed round removes every candidate its maximum flow leaves
   unreachable from the source in the residual network, shrinks the
   Lemma 3 reservations over each victim's window and tags the victims
   as the pending set [tag].  Every minimum cut keeps the whole phase
   class on its source side, and that reach is the smallest such side
   (DESIGN.md section 4), so no removed job is in the class; the set is
   the same for every maximum flow and contains every Lemma 4
   certificate.  More: the reach is exactly the candidates' classes
   faster than the conjectured speed, so the victims are a union of
   whole classes, all slower than every class the phase has left to
   find.  Each victim marks its window on the difference array [delta]
   (-1 at its first interval, +1 past its last); one pass over the
   victims' span applies the changes to [nj] and [procs] and zeroes
   [delta] again, so a round costs O(n + span), not the sum of its
   victims' windows.  Returns the number removed. *)
let certify ws ~n ~machines ~reached ~tag =
  let delta = ws.delta and nj = ws.nj and procs = ws.procs and used = ws.used in
  let removed = ref 0 and lo = ref max_int and hi = ref 0 in
  for i = 0 to n - 1 do
    if ws.candidate.(i) && not (reached i) then begin
      ws.candidate.(i) <- false;
      ws.pending.(i) <- tag;
      incr removed;
      let a = ws.first_ivl.(i) and b = ws.last_ivl.(i) + 1 in
      delta.(a) <- delta.(a) - 1;
      delta.(b) <- delta.(b) + 1;
      lo := Int.min !lo a;
      hi := Int.max !hi b
    end
  done;
  if !removed = 0 then failwith "Offline.solve: flow deficit without unreachable candidate";
  let change = ref 0 in
  for j = !lo to !hi - 1 do
    change := !change + delta.(j);
    delta.(j) <- 0;
    nj.(j) <- nj.(j) + !change;
    procs.(j) <- min nj.(j) (machines - used.(j))
  done;
  delta.(!hi) <- 0;
  !removed

(* The round loop.  Each phase conjectures a pending set as the next
   speed class; each round asks the oracle for a maximum flow of the
   Fig. 1 network of the current candidates at their conjectured speed.
   A saturating flow accepts the phase and its pair flows are the t_kj; a
   deficit removes every candidate the flow cannot reach from the source
   (see [certify]), pushes them as a new pending set and conjectures
   again.  The component starts as one pending set, and each phase pops
   the top one, the most recently set aside.  This finds the classes the
   literal Fig. 2 loop finds, which starts every phase from all remaining
   jobs (DESIGN.md section 4):
   - a failed round at speed lambda = W(C) / P(C) splits its candidates
     C into the reach, C's classes faster than lambda, and the victims U,
     the rest;
   - Lemma 3's update used_j += min(|A n A_j|, m - used_j) contracts the
     polymatroid cap(S) = sum_j min(|S n A_j|, m - used_j) |I_j|, so
     once every class faster than U's is placed, U alone yields U's
     classes;
   - a set pushed later holds faster classes than the sets below it, so
     popping the top places the classes fastest first.
   The accepting round sees the candidate set, reservations and float
   sums of the literal loop, so only the rounds and removals fall: every
   failed round splits one pending set in two and every phase consumes
   one, so a component takes exactly 2 phases - 1 rounds.  Phases,
   removals, speeds and reservations are fixed by the instance and the
   loop, and for a given oracle so are the t_kj, because the accepting
   round's flow depends only on the accepted set.

   Two oracles answer a round, chosen per component by size (the sweep
   iff [n * k >= compress_threshold]):
   - dense: the Fig. 1 network, built once per component and rewound in
     place before every round (see [build_dense]);
   - sweep: the urgency sweep (mandatory shares, then least laxity)
     finished by implicit-residual augmentation (see [sweep]), which
     computes a maximum flow of the same network without materializing
     it.  It builds no flow network at all, so the network counters
     read 0.
   Both return maximum flows of the same network, and each reads the
   removal set off its own final BFS (Dinic's last level graph, the
   sweep's last Stage-2 search): accept decisions, removals, phase
   partitions, speeds, reservations and energies agree, while the t_kj
   split among a phase's equal-speed members may differ between the two
   (every member's total is its demand either way).

   A component is the jobs [ids] (ascending ids into the instance, [jobs]
   their records) on the [k] grid intervals from [lo] of the instance's
   [breakpoints]; [sort_grid] has left every job's window in [win_first]
   and [win_last].  Returns the phases, on component job and interval
   indices, and the counters. *)
let solve_in ~ws ~machines ~breakpoints ~ids ~lo ~k (jobs : job array) =
  let n = Array.length jobs in
  let use_sweep = n * k >= compress_threshold in
  ws_fit ws ~n ~k ~dense:(not use_sweep);
  let widths = ws.widths in
  for j = 0 to k - 1 do
    widths.(j) <- F.sub breakpoints.(lo + j + 1) breakpoints.(lo + j)
  done;
  let first_ivl = ws.first_ivl and last_ivl = ws.last_ivl in
  for i = 0 to n - 1 do
    first_ivl.(i) <- ws.win_first.(ids.(i)) - lo;
    last_ivl.(i) <- ws.win_last.(ids.(i)) - lo
  done;
  if use_sweep then sweep_fit ws ~n ~k ~machines else build_dense ws ~n ~k;
  (* Processors already reserved by earlier (faster) phases. *)
  let used = ws.used in
  Array.fill used 0 k 0;
  (* The stack of pending sets: a job's tag is the slot of its set, so
     the stack is its height.  Candidates and placed jobs carry -1. *)
  let pending = ws.pending in
  Array.fill pending 0 n 0;
  let height = ref 1 in
  let phases = ref [] in
  let phase_count = ref 0 in
  let rounds = ref 0 in
  let removals = ref 0 in
  let grouped = ref 0 in
  let largest_group = ref 0 in
  let g = ws.g in
  Flow.reset_counters g;
  let candidate = ws.candidate and nj = ws.nj and procs = ws.procs and delta = ws.delta in
  while !height > 0 do
    incr phase_count;
    decr height;
    (* Lemma 3 reservation state: n_j counts the candidates whose window
       holds j, built through [delta] in O(n + k) and maintained by
       [certify] over the victims' span. *)
    let cand_count = ref 0 in
    for i = 0 to n - 1 do
      let c = pending.(i) = !height in
      candidate.(i) <- c;
      if c then begin
        pending.(i) <- -1;
        incr cand_count;
        let a = first_ivl.(i) and b = last_ivl.(i) + 1 in
        delta.(a) <- delta.(a) + 1;
        delta.(b) <- delta.(b) - 1
      end
    done;
    let count = ref 0 in
    for j = 0 to k - 1 do
      count := !count + delta.(j);
      delta.(j) <- 0;
      nj.(j) <- !count;
      procs.(j) <- min !count (machines - used.(j))
    done;
    delta.(k) <- 0;
    (* Full resummation each round (not delta updates) keeps the float
       rounding independent of the removal history. *)
    let total_time = ref F.zero and speed = ref F.zero in
    let conjecture () =
      let time = ref F.zero in
      for j = 0 to k - 1 do
        time := F.add !time (F.mul (F.of_int procs.(j)) widths.(j))
      done;
      let work = ref F.zero in
      for i = 0 to n - 1 do
        if candidate.(i) then work := F.add !work jobs.(i).work
      done;
      if F.sign !time <= 0 then begin
        (* Some candidate job has zero reservable time everywhere. *)
        let offender = ref (-1) in
        for i = n - 1 downto 0 do
          if candidate.(i) then offender := i
        done;
        raise (Stranded_job !offender)
      end;
      total_time := !time;
      speed := F.div !work !time
    in
    conjecture ();
    let accepted = ref None in
    while !accepted = None do
      incr rounds;
      let value =
        if use_sweep then sweep ws ~n ~k jobs !speed
        else begin
          rewind_dense ws ~n ~k jobs !speed;
          ignore (Flow.dinic g ~source:0 ~sink:1);
          Flow.flow_value g ~source:0
        end
      in
      if F.equal_approx value !total_time then begin
        let alloc = ref [] in
        if use_sweep then alloc := sweep_alloc ws ~k
        else begin
          (* Walk the window edges backwards from the sink edges; [e]
             is the index of job i's first window edge. *)
          let e = ref (Flow.num_edges g - k) in
          for i = n - 1 downto 0 do
            e := !e - (last_ivl.(i) - first_ivl.(i) + 1);
            if candidate.(i) then
              for j = last_ivl.(i) downto first_ivl.(i) do
                let t = Flow.flow_on g (2 * (!e + j - first_ivl.(i))) in
                if F.sign t > 0 then alloc := (i, j, t) :: !alloc
              done
          done
        end;
        let members = ref [] in
        for i = n - 1 downto 0 do
          if candidate.(i) then members := i :: !members
        done;
        accepted :=
          Some
            { members = !members; speed = !speed; procs = Array.sub procs 0 k; alloc = !alloc }
      end
      else begin
        let tag = !height in
        let removed =
          if use_sweep then certify ws ~n ~machines ~tag ~reached:(fun i -> ws.aug_visited.(i))
          else certify ws ~n ~machines ~tag ~reached:(fun i -> Flow.reached g (2 + i))
        in
        incr height;
        if removed > 1 then incr grouped;
        largest_group := max !largest_group removed;
        removals := !removals + removed;
        cand_count := !cand_count - removed;
        if !cand_count = 0 then failwith "Offline.solve: candidate set exhausted";
        conjecture ()
      end
    done;
    match !accepted with
    | None -> assert false
    | Some phase ->
      phases := phase :: !phases;
      for j = 0 to k - 1 do
        used.(j) <- used.(j) + phase.procs.(j)
      done
  done;
  let fc = Flow.counters g in
  (* The rewind counters are fixed by the round and phase counts: on a
     dense component every failed round and every phase after the
     first start from a rewind of the network an earlier round used. *)
  let dense = not use_sweep in
  ( List.rev !phases,
    {
      phases = !phase_count;
      rounds = !rounds;
      resumes = (if dense then !rounds - !phase_count else 0);
      removals = !removals;
      grouped = !grouped;
      largest_group = !largest_group;
      net_edges = (if use_sweep then 0 else Flow.num_edges g);
      net_pushes = fc.Flow.pushes;
      net_bfs_waves = fc.Flow.bfs_waves;
      phase_resumes = (if dense then !phase_count - 1 else 0);
    } )

(* --- the grid and its components ---------------------------------------
   One endpoint sort per solve gives the grid: the breakpoints are the
   distinct release and deadline times, and every job's window, the
   interval range [rank(release), rank(deadline) - 1], is read off the
   ranks.  A grid point crossed by no job window is a cut: the Fig. 1
   network has no job->interval edge across it, so the max-flow
   questions — and with them Lemmas 1-4 and the whole phase construction
   — factor into the connected components of the job-window interval
   graph.  Solving the components one after another and concatenating
   their phase lists yields the global optimum; re-sorting by decreasing
   speed restores the paper's presentation order.

   The per-component solves are bit-identical to what the global solver
   produces for the same classes whenever no speed class spans two
   components (speeds are generic floats, so cross-component bitwise
   ties essentially never happen outside hand-built instances): a
   component's event times are a contiguous slice of the global grid,
   zero-reservation foreign intervals contribute exact +0.0 terms to the
   global speed sums, and the accepted flows are canonical Dinic runs on
   networks with identical vertex/edge insertion order.  When two
   components do tie bitwise, the merge coalesces their phases into one
   class, which matches the global class's members and reservations; the
   global solver would have re-derived the (mathematically equal) merged
   speed with a differently-ordered float sum, the one place where
   decomposition can diverge in the last bit.  test/reference.ml solves
   the whole instance without decomposition, and the tests compare the
   two by float bits. *)

let grid_fit ws ~n =
  if Array.length ws.win_first < n then begin
    let n' = max n (2 * Array.length ws.win_first) in
    ws.ends <- Array.make (2 * n') 0;
    ws.ends_tmp <- Array.make (2 * n') 0;
    ws.end_time <- Array.make (2 * n') F.zero;
    ws.win_first <- Array.make n' 0;
    ws.win_last <- Array.make n' 0;
    ws.stretch <- Array.make (2 * n') 0
  end

(* The breakpoints of [jobs] from one sort of their 2n endpoints: the
   distinct times, each the one List.sort_uniq F.compare keeps.  Leaves
   job i's window in [win_first.(i)] and [win_last.(i)]. *)
let sort_grid ws (jobs : job array) =
  let n = Array.length jobs in
  grid_fit ws ~n;
  let time = ws.end_time and ends = ws.ends and heads = ws.ends_tmp in
  for i = 0 to n - 1 do
    time.(2 * i) <- jobs.(i).release;
    time.((2 * i) + 1) <- jobs.(i).deadline;
    ends.(2 * i) <- 2 * i;
    ends.((2 * i) + 1) <- (2 * i) + 1
  done;
  if n > 0 then sort_in time ends heads 0 (2 * n);
  (* [heads], the merge scratch until now, takes each run's first id. *)
  let k = ref (-1) in
  for q = 0 to (2 * n) - 1 do
    let e = ends.(q) in
    if q = 0 || F.compare time.(e) time.(ends.(q - 1)) <> 0 then begin
      incr k;
      heads.(!k) <- e
    end;
    if e land 1 = 0 then ws.win_first.(e lsr 1) <- !k else ws.win_last.(e lsr 1) <- !k - 1
  done;
  let breakpoints = Array.make (!k + 1) F.zero in
  for b = 0 to !k do
    breakpoints.(b) <- time.(heads.(b))
  done;
  breakpoints

(* The components of the [n] jobs on a grid of [k] intervals, in time
   order: each one's jobs (ascending ids), first interval and interval
   count.  The grid point p is a cut iff no window straddles it, i.e. no
   job has first < p <= last (touching at a point is a cut); a difference
   array counts those jobs at every point in one pass.  Between two cuts
   lies either a stretch that windows cover throughout or a single
   interval that no window covers, which holds no job and is skipped.  So
   a component's event times are exactly the breakpoints of its stretch,
   and it solves on that slice of the grid.  One counting sort by stretch
   lists every component's jobs in ascending order, the order the whole
   instance visits them in. *)
let cut_components ws ~n ~k =
  if n = 0 then []
  else begin
    let first = ws.win_first and last = ws.win_last and stretch = ws.stretch in
    Array.fill stretch 0 (k + 1) 0;
    for i = 0 to n - 1 do
      stretch.(first.(i) + 1) <- stretch.(first.(i) + 1) + 1;
      stretch.(last.(i) + 1) <- stretch.(last.(i) + 1) - 1
    done;
    let cover = ref 0 and stretches = ref 1 in
    for j = 0 to k - 1 do
      cover := !cover + stretch.(j);
      if j > 0 && !cover = 0 then incr stretches;
      stretch.(j) <- !stretches - 1
    done;
    (* The endpoint arrays are free again: [bound] counts the jobs per
       stretch, [order] lists them. *)
    let bound = ws.ends_tmp and order = ws.ends in
    Array.fill bound 0 (!stretches + 1) 0;
    for i = 0 to n - 1 do
      let p = stretch.(first.(i)) + 1 in
      bound.(p) <- bound.(p) + 1
    done;
    for p = 1 to !stretches do
      bound.(p) <- bound.(p) + bound.(p - 1)
    done;
    for i = 0 to n - 1 do
      let p = stretch.(first.(i)) in
      order.(bound.(p)) <- i;
      bound.(p) <- bound.(p) + 1
    done;
    (* Stretch p's jobs now end at bound.(p), where stretch p + 1's start. *)
    let comps = ref [] in
    for p = !stretches - 1 downto 0 do
      let a = if p = 0 then 0 else bound.(p - 1) in
      if bound.(p) > a then begin
        let ids = Array.sub order a (bound.(p) - a) in
        let lo = ref k and hi = ref 0 in
        for q = 0 to Array.length ids - 1 do
          lo := Int.min !lo first.(ids.(q));
          hi := Int.max !hi last.(ids.(q))
        done;
        comps := (ids, !lo, !hi - !lo + 1) :: !comps
      end
    done;
    !comps
  end

let grid (jobs : job array) =
  validate_jobs jobs;
  let ws = make_workspace () in
  let breakpoints = sort_grid ws jobs in
  (breakpoints, Array.init (Array.length jobs) (fun i -> (ws.win_first.(i), ws.win_last.(i))))

let components (jobs : job array) =
  validate_jobs jobs;
  let ws = make_workspace () in
  let breakpoints = sort_grid ws jobs in
  List.map
    (fun (ids, _, _) -> ids)
    (cut_components ws ~n:(Array.length jobs) ~k:(Array.length breakpoints - 1))

(* Remap a component phase onto the global grid: job indices through the
   component's [ids], interval indices shifted by its first interval
   [lo]. *)
let stitch_phase ~k ~lo ~(ids : int array) (p : phase) =
  let procs = Array.make k 0 in
  Array.blit p.procs 0 procs lo (Array.length p.procs);
  {
    members = List.map (fun i -> ids.(i)) p.members;
    speed = p.speed;
    procs;
    alloc = List.map (fun (i, j, t) -> (ids.(i), j + lo, t)) p.alloc;
  }

(* Solve each component in turn on the one workspace, on its slice of the
   grid, and merge the phase lists onto the global grid.  An empty job
   array has no component and merges no run: no breakpoints, no phases,
   zero counters. *)
let solve_split ~ws ~machines (jobs : job array) =
  validate ~machines jobs;
  let breakpoints = sort_grid ws jobs in
  let k = Array.length breakpoints - 1 in
  match cut_components ws ~n:(Array.length jobs) ~k with
  | [ (ids, lo, kc) ] ->
    let schedule_phases, stats = solve_in ~ws ~machines ~breakpoints ~ids ~lo ~k:kc jobs in
    { breakpoints; schedule_phases; stats }
  | comps ->
    let runs =
      List.map
        (fun (ids, lo, kc) ->
          let sub = Array.map (fun i -> jobs.(i)) ids in
          match solve_in ~ws ~machines ~breakpoints ~ids ~lo ~k:kc sub with
          | phases, stats -> (ids, lo, phases, stats)
          | exception Stranded_job local -> raise (Stranded_job ids.(local)))
        comps
    in
    (* Canonical merge: stitch every component phase onto the global
       grid, order by strictly decreasing speed (stable, so the
       time-ordered component layout breaks exact ties), and coalesce
       bitwise-equal speeds into a single class — what the global
       solver's speed-class partition would contain. *)
    let all =
      List.concat_map
        (fun (ids, lo, phases, _) -> List.map (stitch_phase ~k ~lo ~ids) phases)
        runs
    in
    let sorted =
      List.stable_sort (fun a b -> F.compare b.speed a.speed) all
    in
    let rec coalesce = function
      | a :: b :: rest when F.compare a.speed b.speed = 0 ->
        coalesce
          ({
             members = List.merge Int.compare a.members b.members;
             speed = a.speed;
             procs = Array.init k (fun j -> a.procs.(j) + b.procs.(j));
             alloc =
               List.merge
                 (fun (i1, j1, _) (i2, j2, _) ->
                   match Int.compare i1 i2 with 0 -> Int.compare j1 j2 | c -> c)
                 a.alloc b.alloc;
           }
          :: rest)
      | a :: rest -> a :: coalesce rest
      | [] -> []
    in
    let schedule_phases = coalesce sorted in
    (* Counters are summed; [phases] counts accepted conjectures (one
       per pending set a component pops, and each failed round pushes
       one and removes at least one job), so rounds = 2 phases -
       components and phases <= rounds <= phases + removals survive the
       merge even if a bitwise tie coalesced two classes above. *)
    let sum f = List.fold_left (fun acc (_, _, _, s) -> acc + f s) 0 runs in
    let peak f = List.fold_left (fun acc (_, _, _, s) -> max acc (f s)) 0 runs in
    {
      breakpoints;
      schedule_phases;
      stats =
        {
          phases = sum (fun s -> s.phases);
          rounds = sum (fun s -> s.rounds);
          resumes = sum (fun s -> s.resumes);
          removals = sum (fun s -> s.removals);
          grouped = sum (fun s -> s.grouped);
          largest_group = peak (fun s -> s.largest_group);
          net_edges = peak (fun s -> s.net_edges);
          net_pushes = sum (fun s -> s.net_pushes);
          net_bfs_waves = sum (fun s -> s.net_bfs_waves);
          phase_resumes = sum (fun s -> s.phase_resumes);
        };
    }

(* The paper-facing entry point: a fresh workspace per call. *)
let solve ~machines jobs =
  solve_split ~ws:(make_workspace ()) ~machines jobs

(* --- cross-arrival solver sessions (Section 3.1, Lemmas 6–9) ----------
   A session is a persistent workspace (flow arena, breakpoint-grid
   scratch, reservation arrays, pair store) reused across successive
   solves, the natural shape for OA(m)-style replanning where every
   arrival re-solves a slightly different instance.  Nothing in it
   depends on the machine count, which each solve passes.  A session
   solve runs the same round loop as [solve]; only the workspace
   outlives it. *)
module Session = struct
  type t = workspace

  let create = make_workspace
  let solve ws ~machines jobs = solve_split ~ws ~machines jobs
  let arena_grows ws = ws.grows
end

(* --- the Lemma 2 packer ------------------------------------------------
   The construction from the proof of Lemma 2: inside one grid interval,
   concatenate a phase's execution pieces into a sequential strip and
   cut the strip into processor-sized windows.  A piece split by a
   window boundary runs at the end of processor mu and the beginning of
   processor mu+1; the two halves cannot overlap in time because no
   piece is longer than the interval, and full-width pieces go first so
   a wrapped piece never meets itself.  Every tolerance is [F.slack] of
   the interval length, which is zero on the exact field: the rational
   instance certifies the very loop the float schedules run. *)

let wrap_pack ~t0 ~t1 ~proc_offset ~speed ~emit (jobs : int array) (durs : num array) ~pos
    ~len =
  let width = F.sub t1 t0 in
  if F.compare width F.zero <= 0 then invalid_arg "Offline.wrap_pack: empty interval";
  let eps = F.slack width in
  let width_lo = F.sub width eps and width_hi = F.add width eps in
  for q = pos to pos + len - 1 do
    if F.compare durs.(q) width_hi > 0 then
      invalid_arg "Offline.wrap_pack: piece longer than interval"
  done;
  let proc = ref proc_offset and at = ref F.zero in
  (* The full-width pieces in the first pass, the partial ones in the
     second, each pass in slice order; pieces no longer than [eps] are
     dropped.  A segment is emitted only if longer than [eps]. *)
  for pass = 0 to 1 do
    for q = pos to pos + len - 1 do
      let dur = durs.(q) in
      if F.compare dur eps > 0 && (F.compare dur width_lo >= 0) = (pass = 0) then begin
        let job = jobs.(q) and dur = F.min dur width in
        if F.compare (F.add !at dur) width_hi <= 0 then begin
          let stop = F.min (F.add !at dur) width in
          if F.compare (F.sub stop !at) eps > 0 then
            emit job !proc (F.add t0 !at) (F.add t0 stop) speed;
          at := F.add !at dur
        end
        else begin
          (* Split across the window boundary. *)
          let first = F.sub width !at in
          if F.compare (F.sub width !at) eps > 0 then
            emit job !proc (F.add t0 !at) (F.add t0 width) speed;
          incr proc;
          at := F.sub dur first;
          if F.compare (F.sub !at F.zero) eps > 0 then
            emit job !proc (F.add t0 F.zero) (F.add t0 !at) speed
        end;
        if F.compare !at width_lo >= 0 then begin
          incr proc;
          at := F.zero
        end
      end
    done
  done;
  if F.compare !at eps > 0 then !proc - proc_offset + 1 else !proc - proc_offset

(* Lemma 2 over the grid intervals [first..last], interval by interval:
   inside each, stack the phases' wrap-packed blocks onto disjoint
   processors, fastest phase lowest, checking the stack against
   [machines] before a block is emitted and the block against its
   reservation after.  Two counting sorts by interval lay the blocks out
   flat, each filled phase by phase: every phase's in-range [alloc]
   pieces, so an interval's pieces sit in phase order and each phase's in
   alloc order, and every interval's reserving phases, in phase order.
   The interval-major pass then reads both left to right.  A block emits
   its processors in ascending order and each processor's pieces in
   start order, so one processor's segments arrive in start order. *)
let pack ~machines ~first ~last ~emit (run : run) =
  let phases = Array.of_list run.schedule_phases in
  let span = Int.max 0 (last - first + 1) in
  let in_span j = first <= j && j <= last in
  (* Each sort counts into [ends.(b + 1)] for interval [first + b] and
     fills from the prefix sums, after which [ends.(b)] is where that
     interval's entries end and the next one's start. *)
  let prefix ends =
    for b = 1 to span do
      ends.(b) <- ends.(b) + ends.(b - 1)
    done
  in
  let piece_end = Array.make (span + 1) 0 in
  Array.iter
    (fun (ph : phase) ->
      List.iter
        (fun (_, j, _) ->
          if in_span j then piece_end.(j - first + 1) <- piece_end.(j - first + 1) + 1)
        ph.alloc)
    phases;
  prefix piece_end;
  let pieces = piece_end.(span) in
  let piece_job = Array.make pieces 0
  and piece_dur = Array.make pieces F.zero
  and piece_phase = Array.make pieces 0 in
  Array.iteri
    (fun p (ph : phase) ->
      List.iter
        (fun (i, j, t) ->
          if in_span j then begin
            let c = piece_end.(j - first) in
            piece_job.(c) <- i;
            piece_dur.(c) <- t;
            piece_phase.(c) <- p;
            piece_end.(j - first) <- c + 1
          end)
        ph.alloc)
    phases;
  let reserving_end = Array.make (span + 1) 0 in
  Array.iter
    (fun (ph : phase) ->
      for j = first to last do
        if ph.procs.(j) > 0 then reserving_end.(j - first + 1) <- reserving_end.(j - first + 1) + 1
      done)
    phases;
  prefix reserving_end;
  let reserving = Array.make reserving_end.(span) 0 in
  Array.iteri
    (fun p (ph : phase) ->
      for j = first to last do
        if ph.procs.(j) > 0 then begin
          let c = reserving_end.(j - first) in
          reserving.(c) <- p;
          reserving_end.(j - first) <- c + 1
        end
      done)
    phases;
  let c = ref 0 and r = ref 0 in
  for j = first to last do
    let b = j - first and offset = ref 0 in
    while !r < reserving_end.(b) do
      let p = reserving.(!r) in
      incr r;
      let phase = phases.(p) in
      let procs = phase.procs.(j) in
      if !offset + procs > machines then failwith "Offline: reservations exceed machines";
      (* Pieces of phases that reserve nothing here are skipped. *)
      while !c < piece_end.(b) && piece_phase.(!c) < p do
        incr c
      done;
      let pos = !c in
      while !c < piece_end.(b) && piece_phase.(!c) = p do
        incr c
      done;
      let used =
        wrap_pack ~t0:run.breakpoints.(j) ~t1:run.breakpoints.(j + 1) ~proc_offset:!offset
          ~speed:phase.speed ~emit piece_job piece_dur ~pos ~len:(!c - pos)
      in
      if used > procs then failwith "Offline: packing exceeded reservation";
      offset := !offset + procs
    done;
    c := piece_end.(b)
  done

(* Total reserved processing time of a phase. *)
let phase_busy_time run (phase : phase) =
  let k = Array.length run.breakpoints - 1 in
  let acc = ref F.zero in
  for j = 0 to k - 1 do
    if phase.procs.(j) > 0 then
      acc :=
        F.add !acc
          (F.mul (F.of_int phase.procs.(j))
             (F.sub run.breakpoints.(j + 1) run.breakpoints.(j)))
  done;
  !acc

let speeds run = List.map (fun p -> p.speed) run.schedule_phases

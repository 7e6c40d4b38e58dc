(** The paper's combinatorial offline algorithm (Section 2, Fig. 2) over
    an ordered field: the signature of {!Ss_core.Offline.F} (floats) and
    {!Ss_core.Offline.Exact} (exact rationals).  A dune rule generates
    each instance's interface from this template with its [type num]
    bound first (see offline_solver.ml).  The module also holds the one
    Lemma 2 packer ({!wrap_pack}, laid over the grid by {!pack}), so the
    exact replay packs with the code every float schedule uses; the test
    suite audits what the exact instance of {!pack} emits at zero
    tolerance. *)

type job = { release : num; deadline : num; work : num }

type phase = {
  members : int list;  (** job ids of this equal-speed class [J_i] *)
  speed : num;  (** the class speed [s_i]; strictly decreasing over phases *)
  procs : int array;  (** [m_ij] reserved processors per grid interval *)
  alloc : (int * int * num) list;
      (** [(job, interval, time)] execution times [t_kj] from the
          accepting flow *)
}

type stats = {
  phases : int;
  rounds : int;
      (** oracle answers: dense max flows or sweeps.  One accepting round
          per phase, and each failed round splits one pending set in two
          while each phase consumes one, so a component takes exactly
          [2 phases - 1] rounds and a solve [2 phases - components];
          hence [phases <= rounds <= phases + removals] *)
  resumes : int;
      (** failed rounds of dense components, each answered by rewinding
          the component's one network: [rounds - phases] per dense
          component *)
  removals : int;
      (** jobs removed by failed rounds, fixed by the instance and the
          loop *)
  grouped : int;
      (** failed rounds that removed more than one job at once;
          [grouped <= rounds - phases] *)
  largest_group : int;
      (** the most jobs one failed round removed (max across components) *)
  net_edges : int;
      (** forward edges of the dense round network, [n + k] plus one per
          (job, window interval) pair (max across components) *)
  net_pushes : int;  (** edge-flow updates across the dense max-flow work *)
  net_bfs_waves : int;
      (** Dinic level-graph builds across the dense max-flow work *)
  phase_resumes : int;
      (** phases after the first of dense components, whose first round
          rewinds the network an earlier phase used: [phases - 1] per
          dense component *)
}
(** The network counters ([resumes], [net_edges], [net_pushes],
    [net_bfs_waves], [phase_resumes]) describe the dense substrate and
    read 0 on solves the sweep oracle answers, which build no network. *)

type run = {
  breakpoints : num array;
  schedule_phases : phase list;
  stats : stats;
}

exception Stranded_job of int

val grid : job array -> num array * (int * int) array
(** The grid {!solve} works on, from one sort of the release and
    deadline times: the breakpoints, the distinct times in increasing
    order (of times that compare equal, the one [List.sort_uniq compare]
    keeps), and every job's window, its first and last grid interval.
    @raise Invalid_argument on a job {!solve} rejects. *)

val components : job array -> int array list
(** Split the jobs at zero-coverage grid points — points crossed by no
    job window — into independent sub-instances (the Fig. 1 network has
    no edge across such a cut, so Lemmas 1–4 apply per component).
    Components are returned in time order, each an ascending array of
    indices into the input.  The grid comes from one sort of the
    release and deadline times, as in {!solve}.
    @raise Invalid_argument on a job {!solve} rejects. *)

val compress_threshold : int
(** Grid size ([n * k]) from which a component is solved on the sweep
    oracle instead of the dense network. *)

val solve : machines:int -> job array -> run
(** Each phase conjectures a pending set as the next speed class (a
    component starts as one); each round asks for a maximum flow of the
    Fig. 1 network of the current candidates.  A failed round removes
    at once {e every} candidate the flow cannot reach from the source
    in its residual network — a set outside the phase's class, the
    same for every maximum flow, that contains every job Lemma 4
    certifies — and pushes it as a new pending set: it holds exactly
    the candidates' classes no faster than the conjectured speed.  Each
    phase pops the top set, so the classes come fastest first and are
    those of the paper's loop, which starts every phase from all
    remaining jobs, while every failed round keeps the slow side it
    split off (see DESIGN.md section 4).  Phases, speeds, reservations
    and energy are therefore fixed by the instance, and the removals
    and round counters by the instance and the loop: a component takes
    [2 phases - 1] rounds.

    One sort of the release and deadline times gives the grid (see
    {!grid}), and the instance is split at its zero-coverage points (see
    {!components}).  The components are solved one after another on one
    workspace, each on its slice of the grid, and their phase lists are
    merged back onto the global grid in decreasing-speed order.  The merged run is what the round
    loop computes on the whole instance with the same oracle — same
    breakpoints, speeds, members, reservations and allocations — except
    in the measure-zero case of a bitwise speed tie across components
    (the merge then coalesces the tied classes, whose mathematically
    equal merged speed the whole-instance loop would have re-derived
    with a differently-ordered float sum).  The counters are summed over
    the components (maxima for [largest_group] and [net_edges]).

    Each component's rounds are answered by one of two oracles, chosen
    by its size.  Below [compress_threshold] ([n * k], with [k] the
    component's grid intervals), the dense Fig. 1 network answers each
    round: it is built once per component, with every job and every
    window edge, and rewound in place (flows zeroed, capacities of
    removed jobs and shrunk reservations installed) before every round.
    From [compress_threshold] up, a sweep over the intervals in time
    order computes a maximum flow of the same network without building
    it, keeping O(n + m k) state: in each interval every job first takes
    the share its later intervals cannot hold (its mandatory share),
    least laxity first, and is topped up to the interval's length, then
    the other jobs are served least laxity first; shortest augmenting
    paths on the implicit dense residual, one per search, finish the
    flow to a maximum.  No flow
    network exists, so the network counters of {!stats} read 0.  Both
    give the same phase partitions, speeds, reservations, busy times and
    energies; the [t_kj] split among a phase's equal-speed members may
    differ (the two flows are different maximum flows of the same
    accepting network — every member's total is its demand either
    way).  See DESIGN.md, "The sweep oracle".

    An empty job array gives an empty run: no breakpoints, no phases
    and zero counters.
    @raise Invalid_argument if [machines <= 0], or a job has a
    non-finite field, [release >= deadline], [work <= 0] or a density
    that is not a positive finite float (computed in floats, as
    [Job.validate] does).
    @raise Stranded_job only on internal failure (valid instances are
    always schedulable). *)

(** Cross-arrival solver sessions (Section 3.1, Lemmas 6–9).

    A session owns one workspace — flow arena, breakpoint-grid scratch,
    reservation arrays and sweep pair store — reused across successive
    solves and across the components of each solve, the natural shape
    for OA(m) replanning, which re-solves a slightly different instance
    at every arrival.  The workspace does not depend on the machine
    count, so one session serves solves on any number of machines.
    Session solves run {!solve}'s round loop, so the returned runs are
    identical to {!solve}'s, counters included. *)
module Session : sig
  type t

  val create : unit -> t

  val solve : t -> machines:int -> job array -> run
  (** [solve ~machines] on the session's workspace.
      @raise Invalid_argument as {!solve}. *)

  val arena_grows : t -> int
  (** Component solves that had to grow the workspace (a solve counts
      once per component that grew it). *)
end

val phase_busy_time : run -> phase -> num
val speeds : run -> num list

val wrap_pack :
  t0:num ->
  t1:num ->
  proc_offset:int ->
  speed:num ->
  emit:(int -> int -> num -> num -> num -> unit) ->
  int array ->
  num array ->
  pos:int ->
  len:int ->
  int
(** The Lemma 2 construction: [wrap_pack jobs durs ~pos ~len] packs the
    block of pieces [(jobs.(q), durs.(q))], [q] from [pos] to
    [pos + len - 1], sequentially at [speed] into processor-sized windows
    of [\[t0, t1)] starting at processor [proc_offset]: the full-interval
    pieces first, then the partial ones, each in block order.  Each
    segment goes to [emit job proc start stop speed]; returns the number
    of processors used.  Every tolerance is the field's [slack (t1 - t0)]
    (zero on exact fields); pieces and cuts no longer than it are
    dropped.
    @raise Invalid_argument if [t1 <= t0] or a piece is longer than the
    interval beyond the slack, before any segment is emitted. *)

val pack :
  machines:int ->
  first:int ->
  last:int ->
  emit:(int -> int -> num -> num -> num -> unit) ->
  run ->
  unit
(** Lemma 2 over the grid intervals [\[first, last\]] of a run, through
    {!wrap_pack}: inside each interval the phases' blocks are stacked
    onto disjoint processors, fastest phase lowest.  Segments go to
    [emit job proc start stop speed] interval by interval, and inside an
    interval block by block, each block's processors in ascending order
    and each processor's pieces in start order; so the segments of any
    one processor arrive in start order.  On the rational instance they
    are exact.
    @raise Failure ["Offline: reservations exceed machines"] before
    emitting a block that would stack past [machines], and
    ["Offline: packing exceeded reservation"] after a block that needed
    more processors than its phase reserved. *)

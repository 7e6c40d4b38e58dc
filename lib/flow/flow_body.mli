(** Maximum-flow substrate over an ordered field: the signature of
    {!Ss_flow.Maxflow.Float} and {!Ss_flow.Maxflow.Exact}.  A dune rule
    generates each instance's interface from this template with its
    [type num] bound first (see flow_body.ml).  {!dinic} answers every
    dense round of the offline solver; {!edmonds_karp} and
    {!push_relabel} are independent references the tests compare it
    against.

    Networks are directed; every [add_edge] creates a residual reverse edge
    internally.  All flow queries refer to forward-edge ids returned by
    {!add_edge}. *)

type t

val create : n:int -> t
(** A network on vertices [0 .. n-1] with no edges. *)

val clear : t -> n:int -> unit
(** Rewind to an empty network on [n] vertices, reusing the already
    allocated edge arrays (an arena for round loops that rebuild similar
    networks repeatedly). *)

val reserve : t -> vertices:int -> edges:int -> bool
(** Grow the arena (without changing the installed network) so that
    [vertices] vertex slots and [edges] forward edges fit with no further
    allocation.  Returns [true] iff any backing array actually grew;
    solver sessions use this to pre-size before a rebuild and to count
    arena churn. *)

val add_edge : t -> src:int -> dst:int -> cap:num -> int
(** Adds a directed edge and returns its id.
    @raise Invalid_argument on out-of-range vertices or a negative or NaN
    capacity. *)

val set_capacity : t -> int -> cap:num -> unit
(** Change the capacity of an existing forward edge in place, keeping the
    frozen adjacency.  Does not touch the installed flow: shrink below
    the current flow only before {!reset_flows}.
    @raise Invalid_argument on a non-forward edge id or a negative or NaN
    capacity. *)

val dinic : t -> source:int -> sink:int -> num
(** Maximum flow via blocking flows; flows are left installed on the
    edges.  Augments from the installed flow (zero on a fresh network)
    and returns the amount added. *)

val edmonds_karp : t -> source:int -> sink:int -> num
(** Independent max-flow implementation (shortest augmenting paths);
    used for cross-checks. *)

val push_relabel : t -> source:int -> sink:int -> num
(** Third independent implementation (FIFO push-relabel with the gap
    heuristic); a different algorithmic family from the augmenting-path
    pair, used for cross-checks. *)

val reset_flows : t -> unit

val flow_on : t -> int -> num
(** Flow currently installed on a forward edge id. *)

val flow_value : t -> source:int -> num

val min_cut : t -> source:int -> bool array
(** Source side of a minimum cut (valid after a max-flow run). *)

val reached : t -> int -> bool
(** After {!dinic}: whether its last BFS labelled the vertex, i.e.
    whether the vertex is reachable from the source in the residual
    network of the maximum flow.  These are the vertices {!min_cut}
    marks, read without a second traversal. *)

val cut_capacity : t -> bool array -> num
(** Capacity of the cut induced by a side assignment. *)

type violation =
  | Capacity_exceeded of int
  | Negative_flow of int
  | Conservation of int

val audit : t -> source:int -> sink:int -> violation list
(** Empty list iff the installed flow is feasible. *)

type counters = { pushes : int; bfs_waves : int }
(** Work counters accumulated across every run on this arena: [pushes]
    counts individual edge-flow updates, [bfs_waves] counts BFS passes (Dinic
    level-graph builds / Edmonds–Karp path searches).  Together with
    {!num_edges} they make graph-size wins machine-readable in the
    bench harness. *)

val counters : t -> counters

val reset_counters : t -> unit
(** Zero the counters (not done by {!clear}, so a round loop that
    rebuilds per phase still reports per-solve totals). *)

val num_edges : t -> int

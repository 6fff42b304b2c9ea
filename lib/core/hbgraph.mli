(** The happens-before relation over MSCCL-IR steps.

    One shared construction of the waiting graph that the deadlock checker
    ({!Verify.check_deadlock_free}), the critical-path analyses
    ({!Analysis.analyze}, {!Perfcheck.analyze}) and the race detector
    ({!Races.find}) all reason over. Nodes are steps, densely numbered over
    [(gpu, tb, step)]; edges are the orderings the runtime actually
    enforces:

    - program order within a thread block;
    - explicit cross-thread-block [depends] (semaphore waits);
    - send/receive matching: the k-th send on a connection delivers the
      k-th receive, so it must complete first;
    - optionally, FIFO back-pressure: with [s] slots, the k-th send on a
      connection cannot start before the (k-s)-th receive freed a slot.

    Malformed IR is tolerated — out-of-range [depends] targets and
    unbalanced connections produce no edge (and the imbalance is recorded
    in {!mismatched_connections}) so lint rules can report them instead of
    crashing.

    The graph is flat: nodes are numbered block by block, so a node's
    coordinates are its block (one int array) and that block's gpu, tb
    and first node (int arrays over blocks), found by (gpu, tb) through
    one offset array per GPU; the edges are in CSR form (an offset array
    and a target array). A thread block's send and receive connections
    are looked up once per block, not once per step.

    Kahn's algorithm runs once per graph and is memoized; the topological
    order, positions, cycle size and (weighted) longest paths are all
    read off that one pass. Reachability has one path: on a DAG, a query
    is refuted by topological position, answered by the per-GPU closure
    (a bitset per local step, built for one GPU at a time), or settled by a search that never
    expands a node past the target's position; a graph with a cycle is
    searched by plain DFS. Searches mark visited nodes with a per-query
    stamp, so once the order and the closure exist, {!reaches} and
    {!ordered} allocate nothing. *)

type t

val build : ?fifo_slots:int -> Ir.t -> t
(** Builds the graph. When [fifo_slots] is given, FIFO back-pressure
    edges for that slot count are included (use the protocol's
    {!Msccl_topology.Protocol.num_slots}); when absent they are left out,
    which is what data-flow analyses (critical path) want. *)

val num_nodes : t -> int

val node : t -> gpu:int -> tb:int -> step:int -> int
(** Dense node id of a step. Raises [Not_found] for unknown coordinates. *)

val coords : t -> int -> int * int * int
(** [(gpu, tb, step)] of a node id (a fresh tuple). *)

val succs : t -> int -> int list
(** Direct happens-before successors in edge-insertion order (a fresh
    list; may contain duplicates). *)

val mismatched_connections : t -> (int * int * int * int * int) list
(** Connections whose send and receive counts differ, as
    [(src, dst, chan, sends, receives)], sorted. Matching edges were added
    only up to the shorter side. *)

val topo_order : t -> int array option
(** Nodes in a topological order, or [None] when the graph has a cycle. *)

val local_order : t -> int -> int array
(** [local_order t gpu]: the nodes of [gpu] in topological order (a fresh
    array; empty for an unknown gpu). All GPUs' orders come from one
    bucket pass over {!topo_order}. Raises [Invalid_argument] when the
    graph has a cycle. *)

val cycle_size : t -> int
(** Number of nodes on or downstream of a cycle; [0] iff acyclic. *)

val longest_path : t -> int
(** Number of nodes on the longest path (1 for a single isolated step,
    0 for an empty graph). On a cyclic graph, counts only the acyclic
    prefix reachable by Kahn's algorithm. *)

val weighted_longest_path : t -> weight:(int -> float) -> float
(** Maximum over happens-before paths of the sum of per-node weights
    ([weight] maps a node id to a nonnegative cost). With every weight
    [1.0] this equals [float_of_int (longest_path t)]; the perfcheck pass
    uses per-step α–β–γ costs instead to turn the critical path into a
    time estimate. Same cyclic-graph caveat as {!longest_path}. *)

val reaches : t -> int -> int -> bool
(** [reaches t a b]: a happens-before path from [a] to [b] exists
    (irreflexive: [reaches t a a = false] unless [a] is on a cycle). *)

val ordered : t -> int -> int -> bool
(** [reaches t a b || reaches t b a]: the two steps cannot overlap at
    runtime. *)

type stats = {
  st_nodes : int;
  st_edges : int;
  st_queries : int;  (** Total [reaches] calls. *)
  st_pos_cutoffs : int;  (** Queries refuted by topological position. *)
  st_local_hits : int;  (** Queries answered by the per-GPU bitset closure. *)
  st_local_builds : int;  (** Per-GPU bitset closures built. *)
  st_dfs : int;
      (** Queries that fell back to a search: position-pruned on a DAG,
          plain DFS on a cyclic graph. *)
}

val stats : t -> stats
(** Query-path counters accumulated since [build]; [st_nodes]/[st_edges]
    are structural. *)

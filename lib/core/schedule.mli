(** Scheduling the Instruction DAG into MSCCL-IR (paper §5).

    Scheduling assigns every instruction to a thread block and every
    communication edge to a channel, honoring:

    - a thread block has at most one send and one receive connection;
    - a connection (src, dst, channel) is owned by exactly one sending and
      one receiving thread block;
    - channels requested by DSL directives are respected, and a chain of
      fused instructions shares one channel (a fused instruction carries a
      single channel for both its connections);
    - instructions are laid out in a single global topological order using
      the (depth, reverse-depth) priority heuristic of §5.2, so the
      sequential execution order inside each thread block cannot introduce
      deadlocks;
    - processing edges that cross thread blocks become explicit
      [(tb, step)] dependencies enforced by semaphores at run time;
    - per-connection send order matches receive order (the runtime's FIFO
      slots deliver in order);
    - no schedule ever has more than [slots] outstanding sends on a
      connection (paper §6.1: the compiler prevents such schedules because
      the runtime's bounded FIFO would deadlock). The k-th send on a
      connection is placed only after the (k - slots)-th receive, so every
      runtime waiting edge — program order, semaphores, data delivery and
      FIFO back-pressure — points forward in the assignment order, making
      the result deadlock-free by construction.

    Thread blocks come from connection endpoints: every connection
    (src, dst, channel) has a send endpoint on src and a receive endpoint
    on dst, a fused instruction joins its two endpoints into one block,
    and send-only and receive-only blocks on the same (rank, channel) are
    then paired up by peer. A rank's blocks are numbered in the order of
    {!tb_order}. The scheduler's working state is flat arrays indexed by
    instruction, connection and block ids.

    Raises {!Scheduling_error} when user channel directives conflict (for
    example two different channels forced onto one fused chain, or more
    than one send connection forced into a thread block: the first such
    conflict in endpoint order is reported), or a channel directive is
    negative. *)

exception Scheduling_error of string

val run :
  ?proto:Msccl_topology.Protocol.t ->
  ?name:string ->
  ?slots:int ->
  Instr_dag.t ->
  Ir.t
(** Schedules a (typically fused) Instruction DAG. [proto] defaults to
    [Simple]; [name] defaults to the DAG's name; [slots] defaults to the
    protocol's FIFO slot count (switching a scheduled IR to a protocol with
    fewer slots requires re-checking deadlock freedom with
    {!Verify.check_deadlock_free}). The result passes {!Ir.validate}.

    The DAG is read in place and left as it was: one
    {!Instr_dag.checked_graph} serves the structural checks (raising
    [Invalid_argument]), the acyclicity check and both depths. Dead
    instructions are skipped through its live-id remap, and instructions
    are named by their position among the live ones. Channels are
    assigned into the scheduler's own array, not into the
    instructions. *)

val rank_tbs :
  slots:int ->
  conn:(src:int -> dst:int -> ch:int -> 'k) ->
  lift:(Instr.t -> Instr.t) ->
  Instr_dag.t ->
  (Ir.tb array array, string) result
(** {!run}'s path with another FIFO key: the same checked graph and
    channels, raising as {!run} does on a malformed DAG or conflicting
    channel directives, then thread-block formation, the global
    topological assignment and emission over [lift i] for every live
    instruction [i]. [lift] must keep ids, dependencies and channel
    directives; the graph and channels are those of the DAG as given.
    Returns each rank's thread blocks, indexed by rank, without validating
    them, or [Error] with the text {!run} would raise when placement
    fails. [conn ~src ~dst ~ch] names the FIFO state a transfer from [src]
    to [dst] on channel [ch] uses: {!run} keys it by the connection
    itself, {!Replicate.run} by the connection's rank-shift orbit, lifting
    every instruction to one representative rank, so that rank's
    instructions match sends to receives as the whole program would.
    [conn] is called once per distinct connection, before placement; its
    results are compared with structural equality. Connections, endpoints
    and blocks are numbered in int arrays. Every step record is built
    once, after all dependencies are known. *)

val tb_order : (int * int * int) array -> int array
(** The MSCCL-IR order of one rank's thread blocks. Given each block's
    [(chan, send peer, recv peer)], with [-1] for an absent peer, returns
    the block indices sorted by it: the block at position [k] gets
    [tb_id] [k]. {!run} numbers its blocks with it, and {!Replicate.run}
    renumbers each instantiated rank's blocks with it after translating
    their peers. *)

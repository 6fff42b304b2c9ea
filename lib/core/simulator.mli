(** Timing simulation of MSCCL-IR on a cluster topology.

    Models the MSCCLang runtime interpreter of paper §6/Fig. 5 on top of
    the fluid-flow discrete-event engine:

    - every thread block runs its instruction list sequentially, once per
      {e tile} (the pipelining loop: chunks larger than a protocol FIFO slot
      are split into tiles, and thread blocks stream tiles through the
      whole program — Fig. 6);
    - a send waits for a free FIFO slot (at most [slots] outstanding sends
      per connection), pays the protocol-scaled per-message α, then drives
      the transfer across the route's shared resources, capped by the
      per-thread-block bandwidth limit; InfiniBand sends are staged (the
      thread block copies into the proxy buffer and continues while the
      NIC transfers — GPUDirect RDMA with a CPU helper thread, §6.1);
    - a receive waits for arrival, then copies out of the slot (freeing
      it), plus the γ reduction cost for the rrc/rrs/rrcs family;
    - cross thread-block dependencies wait on semaphores;
    - the cooperative kernel launch costs a fixed overhead plus a per-
      thread-block term, and requires at most [Topology.sm_count] thread
      blocks per GPU.

    The simulated clock advances only through these costs, so two IRs
    compared on the same topology give meaningful speedup ratios. *)

exception Sim_error of string

(** {1 Hang diagnosis}

    With a fault plan (or an explicit [watchdog_s]) the simulator runs a
    simulated-time watchdog: when no instruction retires for the timeout
    and nothing that could retire one is still in motion — every
    unfinished thread block is parked on a wait, no injected delay is
    pending, and no flow has a positive rate — the run is declared hung
    and {!Hang} is raised with a structured diagnosis naming every thread
    block's blocked wait, the simulator-side analogue of a NCCL hang
    dump. *)

type ctx = { cx_rank : int; cx_tb : int; cx_step : int; cx_op : string }
(** Where something happened: rank, thread block, program counter and
    opcode — the same context [Executor] errors carry. *)

val ctx_string : ctx -> string
(** ["rank R tb T step S (op)"]. *)

type wait =
  | On_semaphore of { sem_tb : int; sem_step : int; threshold : int }
      (** Waiting for [sem_tb] (same rank) to complete step [sem_step] of
          the current tile; [threshold] is the absolute semaphore value
          awaited. *)
  | On_fifo_slot of { peer : int; chan : int }
      (** All FIFO slots of the connection to [peer] on channel [chan]
          are in flight. *)
  | On_arrival of { peer : int; chan : int }
      (** No message has arrived from [peer] on channel [chan]. *)
  | On_transfer of { peer : int; chan : int }
      (** The thread block's own wire transfer to [peer] is stalled in
          flight (its route crosses a zero-capacity resource). *)

val wait_string : wait -> string

type blocked = { b_ctx : ctx; b_tile : int; b_wait : wait; b_since : float }
(** One thread block's blocked wait: where it is parked and since when
    (simulated seconds). *)

type hang = {
  h_time : float;  (** Simulated time at which the hang was declared. *)
  h_last_progress : float;  (** When the last instruction retired. *)
  h_finished_tbs : int;
  h_total_tbs : int;
  h_blocked : blocked list;  (** Every unfinished thread block's wait. *)
  h_cycle : blocked list option;
      (** A cycle in the wait-for graph if one exists (a true dependency
          deadlock); [None] when the hang is purely resource-induced,
          e.g. a dead link. *)
}

exception Hang of hang

val hang_message : hang -> string
(** Multi-line rendering of the diagnosis (also installed as the
    [Printexc] printer for {!Hang}). *)

type result = {
  time : float;  (** End-to-end completion time in seconds (incl. launch). *)
  kernel_time : float;  (** Time after the launch overhead. *)
  tiles : int;  (** Pipelining factor used. *)
  messages : int;  (** Point-to-point messages transferred. *)
  wire_bytes : float;  (** Total bytes on the wire (incl. protocol overhead). *)
  events : int;  (** Engine events processed (determinism metric). *)
}

val run :
  topo:Msccl_topology.Topology.t ->
  chunk_bytes:float ->
  ?max_tiles:int ->
  ?check_occupancy:bool ->
  ?timeline:Timeline.t ->
  ?faults:Msccl_faults.Plan.t ->
  ?watchdog_s:float ->
  Ir.t ->
  result
(** Simulates one kernel. [chunk_bytes] is the payload size of one chunk;
    the collective's buffer size is [chunk_bytes * chunks]. [max_tiles]
    (default 4) caps the pipelining factor to bound simulation cost for
    huge buffers. [check_occupancy] (default true) fails when a GPU needs
    more thread blocks than it has SMs. [timeline] records instruction and
    transfer spans for Chrome-tracing export — plus, under faults,
    degradation windows (["fault"] category) and, on a hang, the blocked
    waits (["blocked"] category).

    [faults] injects a fault plan: degradation windows become capacity
    events on the engine (times relative to kernel start), stragglers
    scale this rank's α/β/γ costs, and stall/release delays postpone slot
    reuse and semaphore visibility. Simulation under a plan is exactly as
    deterministic as without one.

    [watchdog_s] sets the hang watchdog timeout in simulated seconds
    (default: 1.0 when [faults] is given, otherwise off). Raises {!Hang}
    with a full blocked-wait diagnosis instead of waiting forever on a
    simulation that can no longer make progress.

    Raises {!Sim_error} on a [chunk_bytes] that is NaN, infinite or not
    positive (naming the value), topology / IR rank mismatch, occupancy
    violation (naming the offending rank), or (for hand-written IR)
    deadlock — deadlock messages carry each stuck thread block's
    rank/tb/step/op context and blocked wait. *)

val run_buffer :
  topo:Msccl_topology.Topology.t ->
  buffer_bytes:float ->
  ?max_tiles:int ->
  ?check_occupancy:bool ->
  ?timeline:Timeline.t ->
  ?faults:Msccl_faults.Plan.t ->
  ?watchdog_s:float ->
  Ir.t ->
  result
(** Like {!run} but takes the total size of the collective input buffer and
    divides it by the IR's input chunk count. *)

val algbw : buffer_bytes:float -> result -> float
(** Algorithm bandwidth in bytes/second: buffer size divided by time (the
    usual nccl-tests metric). *)

(** {1 Cohort (symmetry-aware) simulation}

    A replicated program ({!Replicate}) is shift-symmetric by
    construction: rank [g]'s program is rank [0]'s with peers shifted by
    [g]. When the {e topology} is also invariant under rank
    shift-by-[stride] (certified against the routes the program actually
    uses), the full run is [width = P/stride] interleaved copies of one
    representative run in lockstep, so simulating only ranks
    [0..stride-1] reproduces the exact completion time:

    - connections are canonicalized by shift orbit, pairing the
      representative sender's sends with the representative receiver's
      receives on one shared FIFO/proxy state;
    - link resources merge into orbit representatives with capacity
      scaled by [orbit size / width], which preserves every flow's
      bandwidth share (hops are counted per occurrence, so a route
      crossing two merged siblings contends twice, exactly as its two
      physical hops did);
    - [messages] and [wire_bytes] are scaled back to full-machine counts;
      [events] is the quotient count — the measure of work saved.

    Event counts and times are bit-identical to {!run} on the scalar
    fallback and time-identical (with ~[width]× fewer events) on the
    cohort path; the identity is asserted by the test suite. *)

type cohort = {
  co_stride : int;  (** Representative ranks actually simulated. *)
  co_width : int;  (** Ranks per cohort ([1] on the scalar fallback). *)
  co_fallback : string option;
      (** Why the exact scalar path ran instead, when it did. *)
}

val run_sym :
  topo:Msccl_topology.Topology.t ->
  chunk_bytes:float ->
  ?max_tiles:int ->
  ?check_occupancy:bool ->
  ?timeline:Timeline.t ->
  ?faults:Msccl_faults.Plan.t ->
  ?watchdog_s:float ->
  Replicate.result ->
  result * cohort
(** {!run} over the quotient. Falls back to the exact scalar path (forcing
    the replicated IR) whenever the symmetry cannot be exploited: a fault
    plan is present (faults target concrete ranks and links, splitting
    the cohorts — conservatively handled by splitting wholesale at
    launch), a timeline is requested (spans are per physical rank), or no
    rank shift is a certified automorphism of the topology over the
    routes used. The fallback accepts every {!run} feature, so cohort
    simulation composes with {!Msccl_faults.Plan} and the watchdog
    unconditionally. *)

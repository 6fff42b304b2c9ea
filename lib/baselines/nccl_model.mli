(** A model of NCCL 2.8's collectives, used as the paper's baseline.

    §7.1.1: "NCCL's Ring schedule is roughly equivalent to scheduling a
    logical ring onto one channel, parallelizing the entire program 24
    times, and varying the protocol based on the buffer size." The model
    reproduces exactly that — a 1-channel ring replicated [nccl_channels]
    times, with NCCL's static protocol thresholds — and runs it through
    the same simulator as MSCCLang programs so speedups are ratios of
    comparable quantities. On multiple nodes NCCL also considers its Tree
    algorithm (better latency for small buffers); the model simulates both
    and takes the better one, mirroring NCCL's tuner.

    AllToAll in NCCL is grouped point-to-point: every pair exchanges its
    chunk directly in one kernel. Send/Recv is a single direct transfer.

    All model IRs are compiled once per topology and reused across buffer
    sizes. *)

type sized_time = buffer_bytes:float -> float
(** Completion time in seconds for a given total buffer size. *)

val nccl_channels : int
(** The parallelization NCCL applies to its ring (24). *)

val protocol_for_size : bytes:float -> Msccl_topology.Protocol.t
(** NCCL's static protocol selection rule: LL for small buffers, LL128 in
    the middle, Simple for large. *)

val per_proto :
  (Msccl_topology.Protocol.t -> 'a) -> Msccl_topology.Protocol.t -> 'a
(** Memoizes a per-protocol construction (used to compile baseline IRs once
    per protocol per topology). *)

val allreduce : Msccl_topology.Topology.t -> sized_time
(** Best of ring (node-major order, minimizing InfiniBand crossings) and —
    on multi-node topologies — a double-phase tree, at NCCL's static
    configuration for each size. *)

val alltoall : Msccl_topology.Topology.t -> sized_time
(** Grouped point-to-point AllToAll. Occupancy checking is disabled: NCCL
    time-shares thread blocks when peers outnumber SMs, which the
    simulator's resident-thread-block model would otherwise reject (this
    under-counts NCCL's cost, i.e. it is conservative for our speedups). *)

val send_next : Msccl_topology.Topology.t -> sized_time
(** Every rank sends its whole buffer to rank+1 with one NCCL send/recv
    pair — the naive, hand-written CUDA P2P AllToNext baseline of §7.4
    (one connection, one thread block, and a single InfiniBand NIC at
    node boundaries). *)

(** Cost-model-grounded performance analysis of compiled MSCCL-IR.

    Where {!Analysis} counts structure (steps, channels, chunk volumes),
    perfcheck prices it: given the topology and protocol the program will
    run on, it computes an α–β–γ {e lower-bound certificate} for the
    collective itself and compares the schedule's weighted critical path
    and per-resource congestion against it. The result is a bandwidth
    efficiency in [0, 1] that is independent of the transfer size — a
    structural property of the algorithm — plus a set of {e perf-category}
    lint findings ({!Lint.rules}) pointing at the specific waste:

    - [below-bandwidth-optimal]: efficiency under a threshold — a better
      schedule provably exists on this topology;
    - [link-hotspot]: one shared resource carries far more transfer time
      than the mean;
    - [tb-imbalance]: one thread block does far more modelled work than
      the mean;
    - [redundant-send]: the chunk dataflow proves a send delivers only
      data its destination already holds;
    - [missed-fusion]: a scratch round-trip a fused opcode would remove.

    The lower bound is the Chan-et-al style additive form
    [latency + bandwidth + compute]:

    - {e latency}: ⌈log₂ P⌉ message hops (1 for AllToNext/Custom) at the
      cheapest scaled α, or one cross-node hop when data must change
      nodes, whichever is larger;
    - {e bandwidth}: the worst ratio, over per-rank and per-node cuts, of
      bytes that must cross the cut to the cut's capacity (sum of
      distinct first/last-hop resource capacities). Demands use closed
      forms for the reducing collectives (e.g. 2(P−1)/P per rank for
      AllReduce) and distinct-projection counting from the postcondition
      for everything else, which is exact for copy collectives and sound
      under reduction;
    - {e compute}: the balanced share of unavoidable reduction work at γ
      seconds per byte.

    Deliberate model choices, mirrored on both sides of the ratio so they
    cancel instead of biasing: receiver-side FIFO copies are excluded
    (protocol implementation detail), and the per-thread-block bandwidth
    cap is not charged (the certificate judges the algorithm, not the
    thread-block provisioning — {!Simulator} models that). *)

type bound = {
  lb_latency : float;  (** Seconds: unavoidable α (setup) time. *)
  lb_bandwidth : float;  (** Seconds: worst cut demand over capacity. *)
  lb_compute : float;  (** Seconds: unavoidable γ (reduction) time. *)
}

val lb_total : bound -> float
(** The additive bound [lb_latency + lb_bandwidth + lb_compute]. *)

type link_load = {
  ll_resource : int;  (** Resource id in the topology. *)
  ll_name : string;
  ll_bytes : float;  (** Wire bytes crossing it (after protocol overhead). *)
  ll_time : float;  (** [ll_bytes / capacity]: its serialized transfer time. *)
}

type tb_load = {
  tl_gpu : int;
  tl_tb : int;
  tl_cost : float;  (** Seconds of modelled work (full α–β–γ step costs). *)
}

type t = {
  size_bytes : int;  (** Analyzed transfer size (input buffer bytes). *)
  chunk_bytes : float;  (** [size_bytes / input_buffer_size]. *)
  bound : bound;
  span : float;  (** Weighted critical path, full step costs. *)
  span_bw : float;  (** Weighted critical path, β-only step costs. *)
  congestion : float;  (** Max over resources of [ll_time]. *)
  estimate : float;  (** [max span congestion]: modelled completion time. *)
  bw_efficiency : float;
      (** [lb_bandwidth / max span_bw congestion]: size-independent; 1.0
          means no schedule on this topology moves the data faster. *)
  time_efficiency : float;  (** [lb_total bound / estimate]. *)
  link_loads : link_load list;  (** Loaded resources, busiest first. *)
  tb_loads : tb_load list;  (** Every thread block, costliest first. *)
}

type cuts = {
  c_rank_out : float array;
      (** Per rank: summed distinct first-hop capacity of its routes out. *)
  c_rank_in : float array;
      (** Per rank: summed distinct last-hop capacity of its routes in. *)
  c_node_out : float array;  (** Per node, over routes leaving the node. *)
  c_node_in : float array;  (** Per node, over routes entering the node. *)
  c_min_alpha : float option;  (** Smallest [base_alpha] of any route. *)
  c_min_alpha_cross : float option;
      (** Smallest [base_alpha] of a route between nodes. *)
}
(** What the lower bound needs from the topology's routes. A cut with a
    hop-less route has infinite capacity; a cut with no routes has 0. *)

val cuts : Msccl_topology.Topology.t -> cuts
(** Every cut in one {!Msccl_topology.Topology.fold_routes} walk. Each
    cut's distinct hops are summed in the order a walk over that cut's
    routes alone, in rank order, would sum them. *)

val bound :
  cuts:cuts -> topo:Msccl_topology.Topology.t -> size_bytes:int -> Ir.t ->
  bound
(** The lower-bound certificate from precomputed cuts; {!analyze} passes
    [cuts topo]. *)

val default_size_bytes : int
(** 1 MiB: large enough that β terms dominate α at Simple protocol. *)

val analyze :
  topo:Msccl_topology.Topology.t -> ?size_bytes:int -> Ir.t -> t
(** Prices the IR against the topology at its own protocol. Raises
    [Invalid_argument] when the IR's rank count does not match the
    topology's, or [size_bytes] is not positive. *)

val lint :
  topo:Msccl_topology.Topology.t ->
  ?size_bytes:int ->
  Ir.t ->
  t * Lint.diagnostic list
(** Runs {!analyze} plus every perf rule, returning the report and the
    sorted findings. [below-bandwidth-optimal] fires under a bandwidth
    efficiency of 0.5; [link-hotspot] and [tb-imbalance] fire at 2.0
    times the mean. [redundant-send] comes from symbolic execution of
    the IR. Never raises on IR the correctness lint would reject: the
    dataflow pass reports what it saw before the executor failed. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable report (times in µs). *)

val report_json : t -> string
(** The report as one JSON object, including per-resource loads and
    per-thread-block costs. *)

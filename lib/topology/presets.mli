(** Ready-made cluster topologies matching the paper's evaluation systems
    (§7, Fig. 7) plus a generic hierarchical builder for tests/examples.

    The two-level presets ([ndv4], [dgx2], [hierarchical]) compute each
    route from the endpoints' (node, gpu) when it is read, so building
    one costs O(ranks + resources). Each raises [Invalid_argument] on
    nonpositive dimensions. *)

val ndv4 : nodes:int -> Topology.t
(** Azure ND A100 v4: [nodes] nodes of 8 A100 GPUs fully connected through
    NVSwitch (600 GB/s bidirectional per GPU). Each GPU reaches one HDR
    InfiniBand NIC at 25 GB/s for cross-node traffic (8 NICs per node; every
    pair of GPUs shares a PCIe switch to 2 NICs, i.e. one NIC per GPU). *)

val dgx2 : nodes:int -> Topology.t
(** NVIDIA DGX-2: [nodes] nodes of 16 V100 GPUs in two boards of 8,
    connected through NVSwitch (second-generation NVLink, 150 GB/s egress per
    GPU; 8x25 GB/s links between counterpart switches across boards). Each
    pair of GPUs shares one HDR InfiniBand NIC at 25 GB/s (8 NICs/node). *)

val dgx1 : unit -> Topology.t
(** NVIDIA DGX-1V: a single node of 8 V100s with direct point-to-point
    NVLink bricks (no NVSwitch), used for the SCCL comparison (§7.5).
    Pairs without a direct NVLink communicate over shared PCIe. *)

val hierarchical :
  ?name:string ->
  ?intra:Link.t ->
  ?inter:Link.t ->
  nodes:int ->
  gpus_per_node:int ->
  unit ->
  Topology.t
(** Generic two-level cluster: full intra-node connectivity with the
    [intra] link model (default {!Link.nvlink_a100}) and one [inter] NIC per
    GPU (default {!Link.ib_hdr}). Handy for scaled-down examples such as the
    paper's (N = 2, G = 3) running example. *)

val dgx1_connected : int -> int -> bool
(** [dgx1_connected a b] is [true] when GPUs [a] and [b] of a DGX-1V have a
    direct NVLink connection. Exposed so algorithms (e.g. the SCCL AllGather)
    can restrict themselves to NVLink routes. *)

val dgx1_nvlink_count : int -> int -> int
(** Number of NVLink bricks between two DGX-1V GPUs (0 when unconnected). *)

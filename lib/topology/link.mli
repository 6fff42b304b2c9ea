(** Physical interconnect kinds and their baseline parameters.

    The MSCCLang runtime inherits NCCL's support for point-to-point
    connections over NVLink, PCIe, shared host memory, InfiniBand and TCP
    (paper §6). The two evaluation systems use NVLink/NVSwitch inside a node
    and HDR InfiniBand across nodes, so those receive precise models; the
    others are provided for completeness and custom topologies. *)

type kind =
  | Nvlink  (** Direct GPU-to-GPU NVLink bricks (DGX-1 style). *)
  | Nvswitch  (** NVLink through NVSwitch crossbar (NDv4, DGX-2). *)
  | Pcie  (** PCIe peer-to-peer within a node. *)
  | Infiniband  (** GPUDirect-RDMA over an IB NIC, cross node. *)
  | Host  (** Staged through shared host memory. *)

val kind_name : kind -> string

type t = {
  kind : kind;
  bandwidth : float;  (** Raw unidirectional bandwidth in bytes/second. *)
  alpha : float;
      (** Per-message setup latency in seconds for the Simple protocol;
          other protocols scale it by {!Protocol.alpha_scale}. *)
  tb_cap : float;
      (** Maximum bandwidth in bytes/second that a single thread block can
          drive over this link. The paper (§5.1) observes that one A100
          thread block cannot saturate an outgoing NVLink, which is why
          chunk parallelization exists. *)
}

val nvlink_a100 : t
(** One direction of an A100's aggregate NVLink connectivity through
    NVSwitch: 12 third-generation links, 600 GB/s bidirectional (paper §7),
    i.e. 300 GB/s each way. *)

val nvlink_v100 : t
(** One direction of a V100's aggregate NVLink connectivity: 6
    second-generation links, 300 GB/s bidirectional, 150 GB/s each way. *)

val ib_hdr : t
(** One HDR InfiniBand NIC at 25 GB/s (paper §7). *)

val pcie_gen4 : t

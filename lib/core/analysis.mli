(** Static analysis of compiled MSCCL-IR.

    Answers the questions a performance engineer asks before running
    anything: how long is the dependency-critical path, how balanced is
    the work across thread blocks, how many chunks cross each connection,
    and how much did fusion compress the instruction stream. Used by the
    CLI's [show --stats] and by tests as structural regression checks. *)

type connection = {
  conn_src : int;
  conn_dst : int;
  conn_chan : int;
  conn_messages : int;  (** Sends on this connection. *)
  conn_chunks : int;  (** Total chunks (sum of counts). *)
}

type link = {
  link_src : int;
  link_dst : int;
  link_channels : int;  (** Channels (connections) sharing this link. *)
  link_messages : int;
  link_chunks : int;
}
(** Traffic between one ordered pair of ranks, aggregated over every
    channel: all of it shares the same physical wires, so this — not the
    per-channel view — is what link-hotspot reasoning needs. *)

type t = {
  ranks : int;
  total_steps : int;
  total_thread_blocks : int;
  channels : int;
  critical_path : int;
      (** Longest chain of steps through program order, semaphore
          dependencies and send→receive edges. A lower bound on latency in
          units of instruction executions. *)
  max_steps_per_tb : int;
  avg_steps_per_tb : float;
  fused_steps : int;  (** Steps using an rcs/rrs/rrcs fused opcode. *)
  reduction_steps : int;
  local_steps : int;  (** Pure local copies/reduces. *)
  connections : connection list;  (** Sorted by descending chunk volume. *)
  max_chunks_per_connection : int;
  links : link list;
      (** Connections aggregated per physical (src, dst) link, sorted by
          descending chunk volume. *)
  max_chunks_per_link : int;
  scratch_chunks_total : int;
}

val analyze : Ir.t -> t

val connections : ?idx:Ir.index -> Ir.t -> connection list
(** The [connections] field of {!analyze} alone, without building the
    happens-before graph: sends and chunks per (src, dst, channel), sorted
    by descending chunk volume, then by (src, dst, channel). [idx] is the
    IR's connection index, built when absent. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable report. *)

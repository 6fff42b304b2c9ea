(** Replicated (symmetry-aware) compilation: trace, lower, fuse and
    schedule one representative slice of a rank-symmetric program, then
    instantiate the remaining rank programs by index arithmetic.

    For ring-shift symmetric programs this turns the O(P²)-instruction
    compile into an O(P) schedule plus an O(P²) but allocation-only
    instantiation. The construction trusts the algorithm's
    {!Sym_hint.t}; callers must certify the result (symmetry
    certification and/or {!Ir.equal} differential against the full
    pipeline) and treat {!Fallback} as "use the full path". *)

exception Fallback of string
(** The hint cannot be exploited (identity or non-coprime shift, an
    empty slice, wrapping chunk footprint, a placement failure on the
    representative rank, ...). Never an error: callers fall back to the
    full pipeline. *)

type result = {
  r_ir : Ir.t Lazy.t;
      (** The fully materialized program. Forcing costs O(P × slice) time
          and memory (the index-arithmetic instantiation of all ranks);
          quotient consumers work from [r_rep] and never force. *)
  r_rep : Ir.gpu;  (** The representative rank program (gpu 0). *)
  r_gpu : int -> Ir.gpu;  (** Materialize a single rank on demand. *)
  r_num_ranks : int;  (** Rank count, available without forcing [r_ir]. *)
  r_proto : Msccl_topology.Protocol.t;  (** Protocol, ditto. *)
  r_chunk_ops : int;  (** Chunk ops in the traced representative slice. *)
  r_instrs_before_fusion : int;
  r_fusion : Fusion.stats;
  r_instrs_after_fusion : int;
}

val run :
  ?proto:Msccl_topology.Protocol.t ->
  ?name:string ->
  hint:Sym_hint.t ->
  ?fuse:bool ->
  Collective.t ->
  result
(** Raises {!Fallback} when the fast path does not apply. The fused
    slice is scheduled by {!Schedule.rank_tbs}, lifted to the
    representative rank, with [proto]'s FIFO slot count and connections
    keyed by their rank-shift orbit ((dst - src) mod P, channel);
    conflicting channel directives in the slice raise
    {!Schedule.Scheduling_error} as {!Schedule.run} would. Every other rank's thread blocks are
    the representative's with translated peers, renumbered by
    {!Schedule.tb_order} as {!Schedule.run} would number them. The
    returned IR is structurally valid on the representative gpu and
    symmetric by construction; exactness versus the full pipeline is
    certified by the caller. *)

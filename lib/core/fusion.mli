(** Peephole instruction fusion (paper §4.3).

    The initial lowering only emits base instructions. Fusion rewrites:

    - {b rcs}: a receive followed by a send of the same chunks becomes a
      single [Recv_copy_send]. When several sends depend on the receive,
      the one on the longest path through the Instruction DAG is fused.
    - {b rrcs}: a receive-reduce-copy followed by a send of its result
      becomes a [Recv_reduce_copy_send].
    - {b rrs}: an [Recv_reduce_copy_send] whose locally-stored result is
      never read and is fully overwritten later drops the store and becomes
      the cheaper [Recv_reduce_send].

    Fused instructions keep the receive side's id; the swallowed send is
    marked dead and every dependency or communication edge pointing at it
    is rewired to the fused instruction. Fusion never changes program
    semantics — the verifier re-checks the postcondition afterwards. *)

type stats = {
  rcs : int;
  rrcs : int;
  rrs : int;
}

val total : stats -> int

val fuse : Instr_dag.t -> stats
(** Applies all three rewrites in place, leaving the absorbed
    instructions dead ({!Schedule.run} skips them). Returns how many of
    each fired. *)

val fuse_rcs : Instr_dag.t -> int
(** Only the recv+send rewrite; exposed for targeted tests. Each of these
    builds its own successor index on entry; {!fuse} builds one and keeps
    it current across all three passes. *)

val fuse_rrcs : Instr_dag.t -> int

val fuse_rrs : Instr_dag.t -> int

val pp_stats : Format.formatter -> stats -> unit

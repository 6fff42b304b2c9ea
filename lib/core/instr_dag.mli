(** Lowering the Chunk DAG into the Instruction DAG (paper §4.2).

    Each chunk operation expands into instructions: a remote copy becomes a
    send and a receive connected by a communication edge; a remote reduce
    becomes a send and a receive-reduce-copy; local operations become a
    single local instruction. Processing edges (execution-order
    dependencies within a rank) are recomputed at instruction granularity
    with the classic true/anti/output dependency rules, so that scheduling
    and fusion work on precise per-location dependencies. *)

type t = {
  name : string;
  collective : Collective.t;
  mutable instrs : Instr.t array;  (** Indexed by id; may contain dead
                                       instructions after fusion. *)
  scratch_sizes : int array;
}

val of_chunk_dag : Chunk_dag.t -> t

val live : t -> Instr.t list
(** Live instructions in id order. *)

val num_live : t -> int

val successors_csr : t -> int array * int array
(** Forward adjacency (processing and communication edges of live
    instructions) as flat compressed-sparse-row arrays [(off, targets)]:
    successors of [id] are [targets.(off.(id)) .. targets.(off.(id+1) - 1)],
    in ascending id order. Rebuilt from current deps; {!Fusion} builds its
    successor index from it. *)

type graph = {
  live : int array;  (** Dense id -> instruction id, ascending. *)
  dense : int array;
      (** Instruction id -> dense id, [-1] when dead: live instructions
          numbered in id order. *)
  off : int array;
  tgt : int array;
      (** Successors of dense id [k], ascending:
          [tgt.(off.(k)) .. tgt.(off.(k + 1) - 1)]. *)
  indeg : int array;  (** Predecessor count per dense id. *)
  depth : int array;  (** Longest distance from any root, per dense id. *)
  rdepth : int array;  (** Longest distance to any leaf, per dense id. *)
}
(** The live instructions under dense ids and their dependency graph,
    built in one pass per edge set and one Kahn pass, which also orders
    both depth sweeps. *)

val depths : t -> int array * int array
(** [(depth, reverse_depth)] of the {!type:graph}, indexed by instruction
    id (0 for dead instructions). {!Fusion} tie-breaks candidate sends
    with the reverse depth (§4.3). Raises [Invalid_argument] on a cycle or
    an edge from a dead instruction. *)

val checked_graph : t -> graph
(** {!validate}'s checks, then the {!type:graph}, raising
    [Invalid_argument] as {!validate} does. {!Schedule} reads the DAG
    through it. *)

val validate : t -> unit
(** Structural checks: dependency ids valid, same-rank deps, matching
    communication endpoints, acyclicity. Raises [Invalid_argument]. *)

val pp : Format.formatter -> t -> unit

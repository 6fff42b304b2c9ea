(** A name-indexed registry of the collective algorithms, used by the CLI,
    the examples and the tests to build any algorithm from string
    parameters. *)

type params = {
  nodes : int;
  gpus_per_node : int;
  channels : int;  (** Logical-ring channel distribution (where supported). *)
  instances : int;  (** Whole-program parallelization [r]. *)
  proto : Msccl_topology.Protocol.t;
  chunk_factor : int;  (** Chunk granularity (where supported). *)
  verify : bool;
}

val default_params : params
(** 1 node x 8 GPUs, 1 channel, 1 instance, Simple, chunk factor 1,
    verification on. *)

type sym_case = {
  sym_coll : Msccl_core.Collective.t;
  sym_program : Msccl_core.Program.t -> unit;
  sym_hint : Msccl_core.Sym_hint.t;
}
(** The ingredients of the certified symmetry-aware compile
    ({!Msccl_analysis.Sym_compile.compile}): the collective, the full
    program body, and the algorithm's rank-symmetry hint. *)

type spec = {
  name : string;
  doc : string;
  build : params -> Msccl_core.Ir.t;
  sym : (params -> sym_case) option;
      (** Present for algorithms that declare a rank-symmetry hint. The
          case matches [build] for the same params: a symmetry-aware
          compile of it is certified (and, in differential mode,
          byte-identical) against [build]'s IR. *)
}

val all : spec list
(** Every registered algorithm, including the baselines' generators. *)

val find : string -> spec option

val names : unit -> string list

val parse_topology : string -> (Msccl_topology.Topology.t, string) result
(** ["ndv4:N"], ["dgx2:N"], ["dgx1"], or ["custom:N:G"]. *)

(** The end-to-end MSCCLang compiler pipeline (paper Fig. 2):

    DSL program → tracing (Chunk DAG) → lowering (Instruction DAG) →
    instruction fusion → scheduling → MSCCL-IR → optional whole-program
    replication → verification → optional lint. *)

type report = {
  chunk_ops : int;  (** Chunk DAG nodes traced. *)
  instrs_before_fusion : int;
  fusion : Fusion.stats;
  instrs_after_fusion : int;
  lint : Lint.diagnostic list;
      (** Diagnostics from {!Lint.run}; empty unless compiled with
          [~lint:true]. *)
  ir : Ir.t;
}

exception Lint_error of Lint.diagnostic list
(** Raised by lint-on-compile when any error-severity diagnostic fires;
    carries exactly the error diagnostics. *)

val finish :
  ?instances:int -> ?verify:bool -> ?lint:bool -> report -> report
(** The post-schedule tail every compile path shares: replicates
    [report.ir] ([instances] defaults to 1, blocked layout), checks it
    with {!Verify.check} unless [verify] is [false] (raising [Failure] on
    any violation) and, with [~lint:true], runs {!Lint.run}: warnings and
    infos land in the report's [lint] field while any error-severity
    finding raises {!Lint_error}. *)

val compile_dag :
  ?fuse:bool ->
  ?proto:Msccl_topology.Protocol.t ->
  ?instances:int ->
  ?verify:bool ->
  ?lint:bool ->
  Chunk_dag.t ->
  report
(** Lowers, fuses ([fuse] defaults to [true]), schedules, then runs
    {!finish}: instance replication, verification and, with [~lint:true],
    the static analysis suite ({!Lint.run}: race detection plus
    structural rules). *)

val compile :
  ?name:string ->
  ?fuse:bool ->
  ?proto:Msccl_topology.Protocol.t ->
  ?instances:int ->
  ?verify:bool ->
  ?lint:bool ->
  Collective.t ->
  (Program.t -> unit) ->
  report
(** Traces the program and runs {!compile_dag}. *)

val ir :
  ?name:string ->
  ?fuse:bool ->
  ?proto:Msccl_topology.Protocol.t ->
  ?instances:int ->
  ?verify:bool ->
  ?lint:bool ->
  Collective.t ->
  (Program.t -> unit) ->
  Ir.t
(** Shorthand for [(compile ... ).ir]. *)

val pp_report : Format.formatter -> report -> unit

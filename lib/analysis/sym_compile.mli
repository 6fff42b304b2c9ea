(** Symmetry-aware compilation, certified: the only compile path that
    exploits rank symmetry.

    {!Msccl_core.Replicate.run} builds the IR from an algorithm's
    {!Msccl_core.Sym_hint.t} by tracing one representative slice; the
    hint's rank permutation is then certified as a DAG automorphism with
    {!Symmetry.verify_candidate} before the result is accepted, and any
    construction or certification failure silently falls back to the
    full pipeline. Both paths end in {!Msccl_core.Compile.finish}. The
    certificate doubles as the input to the quotient analyses (races,
    lint, provenance), so a symmetric program pays symmetry inference
    never and certification once. *)

type outcome =
  | Replicated of Symmetry.t
      (** The replicated fast path was used; carries the certified
          symmetry (generator + orbit partition) for quotient passes. *)
  | Fell_back of string
      (** Why the full pipeline ran instead (bad hint, failed
          certification, ...). Output is unaffected. *)

exception Sym_mismatch of string
(** Raised only in [~differential:true] mode when the replicated IR is
    not byte-identical ({!Msccl_core.Ir.equal}) to the full-trace IR. *)

val certificate :
  Msccl_core.Ir.t -> Msccl_core.Sym_hint.t -> (Symmetry.t, string) result
(** Certify a hint's permutation against a materialized IR. *)

val compile :
  ?name:string ->
  ?fuse:bool ->
  ?proto:Msccl_topology.Protocol.t ->
  ?instances:int ->
  ?verify:bool ->
  ?lint:bool ->
  ?differential:bool ->
  hint:Msccl_core.Sym_hint.t ->
  Msccl_core.Collective.t ->
  (Msccl_core.Program.t -> unit) ->
  Msccl_core.Compile.report * outcome
(** Like {!Msccl_core.Compile.compile}, but first attempts the
    replicated, certified path described above. [~differential:true]
    additionally asserts byte-identical IR against the full-trace
    pipeline, raising {!Sym_mismatch} on divergence. *)

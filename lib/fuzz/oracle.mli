(** The differential oracle stack: everything the fuzzer knows how to
    cross-check about one compiled case.

    Each oracle is independent and named, so failures are attributable and
    the shrinker can demand that a candidate still fails the {e same}
    oracle (shrinking must not wander from one bug to another). *)

type id =
  | Exec
      (** Symbolic postcondition check plus a numeric end-to-end run
          compared against the collective's reference result. *)
  | Equiv
      (** Differential compilation: fusion-on vs fusion-off, and
          [instances = k] vs [instances = 1], must produce equivalent
          final output buffers. *)
  | Static
      (** {!Msccl_core.Verify.check}, {!Msccl_core.Races.find} and
          {!Msccl_core.Lint.run} must all report clean (lint: no
          error-severity findings) on compiler output. *)
  | Symmetry
      (** {!Msccl_core.Races.find} under inferred-and-certified rank
          orbits must report exactly what the direct sweep reports — on the compiled IR and on a
          {!Mutate.break_symmetry} mutant, where certification must also
          notice the broken symmetry and fall back rather than silently
          under-report. *)
  | Provenance
      (** The static chunk-provenance verdict
          ({!Msccl_analysis.Provenance.check}) must equal the executor's
          dynamic verdict — same ok/crash/error outcome and the same
          wrong-output (rank, index) positions — and the orbit-quotiented
          interpretation under inferred symmetry must agree with the full
          one on representative ranks. *)
  | Perf
      (** The simulated completion time can never beat the
          {!Msccl_core.Perfcheck} α–β–γ lower-bound certificate. *)
  | Roundtrip
      (** [Ir -> Xml -> Ir] through {!Msccl_interop.Ingest} draws no
          diagnostic, is lossless ({!Msccl_core.Ir.equal}) and the second
          print is byte-identical. *)
  | Chaos
      (** A benign (timing-only) fault plan drawn from the case's seed
          must leave the simulation able to complete, must not make it
          finish earlier than the fault-free run, and must not mutate the
          IR (so the executor's output is unchanged). *)
  | Sym_compile
      (** Symmetry-aware compilation and simulation are semantically
          invisible: a shift-[s] ring AllReduce sibling parameterized by
          the case's knobs (ranks, channels, rotation, protocol, fusion;
          [s] drawn from the seed, coprime with the rank count) must
          compile replicated and certified
          ({!Msccl_analysis.Sym_compile.compile}) to the byte-identical
          XML of the full pipeline, and its cohort-batched simulation
          ({!Msccl_core.Simulator.run_sym}) must report exactly the
          scalar simulator's completion time, message count and wire
          bytes. *)
  | Ingest
      (** Hostile-input totality of the {!Msccl_interop.Ingest} boundary:
          the case's own printed XML must ingest cleanly (no warnings)
          back to an {!Msccl_core.Ir.equal} program, and a seeded sweep
          of {!Msccl_interop.Mangle} corruptions of it must each either
          be accepted — and then round-trip stably through print and
          re-ingest, and get a verdict from both {!Msccl_core.Verify.check}
          and {!Msccl_analysis.Provenance.analyze} without an exception,
          the provenance check [Ok] iff its report has no diagnostics — or
          be rejected with positioned structured diagnostics. No
          unstructured exception may escape. *)

val all : id list
(** In checking order:
    [Exec; Equiv; Static; Symmetry; Provenance; Perf; Roundtrip; Chaos;
    Sym_compile; Ingest]. *)

val id_name : id -> string
(** Lower-case CLI name: ["exec"], ["equiv"], ["static"], ["symmetry"],
    ["provenance"], ["perf"], ["roundtrip"], ["chaos"],
    ["sym_compile"], ["ingest"]. *)

val id_of_name : string -> id option

type failure = {
  oracle : id;
  detail : string;
}

val pp_failure : Format.formatter -> failure -> unit

val run :
  ?mutate:(Msccl_core.Ir.t -> Msccl_core.Ir.t) ->
  ?oracles:id list ->
  Case.t ->
  (unit, failure) result
(** Compiles the case and runs the selected oracles in order, stopping at
    the first failure. Any exception escaping a check (trace error,
    executor deadlock, parse error...) is converted into that oracle's
    failure. [mutate] is applied to every IR compiled with fusion {e on} —
    it models a bug in the fusion pass, which is what the self-tests
    inject via {!Mutate.break_fusion}. *)

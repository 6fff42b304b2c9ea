(** Static chunk-provenance dataflow verification for MSCCL-IR.

    Where {!Msccl_core.Verify.check_postcondition} establishes correctness
    {e dynamically} — symbolically executing the whole program and
    diffing final buffers — this pass establishes it {e statically} by
    abstract interpretation: every (rank, buffer, index) slot carries a
    lattice value of {e contribution sets} (a per-source-index bitset of
    contributing ranks, a copied/reduced tag and a multiplicity counter
    that catches double-counted reductions), propagated by per-opcode
    transfer functions for send / recv / copy / reduce and their fused
    forms. The pass runs on the executor's own scheduler
    ({!Msccl_core.Executor.schedule}: semaphores, FIFO slots, message
    sizes) with the lattice as its value domain, so the two verdicts
    agree by construction on race-free IR. One pass, no execution, and
    every divergence is attributed to the {e instruction} that caused it:

    - the postcondition check {!check} classifies each wrong output slot
      as a missing contribution, a duplicated contribution, an
      overwritten-before-read clobber, plain divergence or never-written,
      anchored at the slot's last writer (and, for clobbers, the
      overwriting instruction);
    - three dataflow lint rules ({!lint}): [uninitialized-read] (reported
      statically instead of as an {!Msccl_core.Executor.Exec_error}
      crash), [dead-store] and [unread-scratch] (backward liveness over
      the write-event graph from the constrained output slots);
    - deadlock, connection imbalance, wrongly sized messages and
      in-flight leftovers surface as diagnostics too, keeping the static
      verdict aligned with the executor's dynamic one — the fuzz
      provenance oracle asserts exactly that equivalence.

    With a certified {!Symmetry.t} whose generator has rank-uniform chunk
    bijections, the pass is {e orbit-quotiented}: the scheduler runs only
    representative ranks, messages arriving from non-interpreted senders
    are recovered by translating the representative sender's recorded
    stream through cached powers of the automorphism, and the spec itself
    is checked to be orbit-symmetric (so representative verdicts cover
    every member). Connection balance is checked over every rank first;
    an unbalanced connection, like any other gate failure — asymmetric
    spec, rank-dependent bijection, a translation dependency cycle —
    silently falls back to the full interpretation: the quotient can be
    slower, never wrong. *)

open Msccl_core

type site = {
  p_rank : int;
  p_tb : int;
  p_step : int;
  p_op : Instr.opcode;
}
(** An instruction, in the same coordinates executor errors and
    {!Msccl_core.Verify.mismatch} writers use. *)

type kind =
  | Never_written  (** Constrained output slot no instruction wrote. *)
  | Missing_contribution of { missing : int }
      (** Actual contributions are a strict subset of the spec's — e.g. a
          reduce dropped by a bad fusion. [missing] counts absent
          (rank, index) sources. *)
  | Duplicated_contribution of { multiplicity : int; distinct : int }
      (** The multiplicity counter exceeds the distinct-source count: some
          input was reduced in twice. *)
  | Divergent  (** Wrong contributions that are neither subset nor
                   double-count (e.g. a foreign chunk). *)
  | Overwritten_before_read of { overwriter : site }
      (** The slot's previous value was clobbered before anything read
          it; the diagnostic anchors at the discarded value's writer. *)
  | Uninitialized_read of Loc.t
      (** An instruction read a slot nothing wrote; the executor would
          crash here. *)
  | Out_of_bounds of Loc.t
      (** An access past the declared buffer size (kept for parity with
          executor errors on malformed IR). *)
  | Missing_operand of string
      (** The step has no ["source"] or ["destination"] operand although
          its opcode uses one; the executor raises here. *)
  | Message_size of { sent : int; expected : int }
      (** A received message carries [sent] chunks where the receiving
          step's [count] is [expected]; the executor raises here and the
          step reads Poison. *)
  | Deadlock of string
      (** No thread block can make progress under FIFO semantics. *)
  | Connection_mismatch of {
      src : int;
      dst : int;
      chan : int;
      sends : int;
      recvs : int;
    }
  | Undelivered_messages of {
      src : int;
      dst : int;
      chan : int;
      count : int;
    }

type diag = {
  dg_kind : kind;
  dg_rank : int;  (** Rank owning the slot/instruction; [-1] = global. *)
  dg_loc : Loc.t option;  (** The slot (for per-slot kinds). *)
  dg_site : site option;
      (** The attributed instruction: the slot's last writer for
          divergence kinds, the reading/blocked instruction otherwise. *)
  dg_members : int;
      (** Ranks this diagnostic stands for: 1 in full mode, the orbit
          size when the quotient deduplicated symmetric copies. *)
}

val pp_diag : Format.formatter -> diag -> unit
val diag_json : diag -> string

type mode =
  | Full
  | Quotient of { orbits : int; interpreted_ranks : int }

type report = {
  r_mode : mode;
  r_diags : diag list;  (** Postcondition/safety diagnostics ({!check}). *)
  r_lints : Lint.diagnostic list;
      (** [uninitialized-read] / [dead-store] / [unread-scratch]. *)
  r_steps_interpreted : int;
  r_slots_checked : int;
}

val analyze : ?symmetry:Symmetry.t -> ?lints:bool -> Ir.t -> report
(** Runs the abstract interpretation. [symmetry] (from
    {!Symmetry.infer}) enables the orbit quotient when its gates hold;
    [lints] (default [true]) additionally materializes the write-event
    graph and the liveness lint rules. Never raises on malformed IR —
    problems become diagnostics. *)

val check : ?symmetry:Symmetry.t -> Ir.t -> (unit, diag list) result
(** The static postcondition verdict alone (no liveness lints): [Ok ()]
    iff symbolic execution would complete and satisfy the collective's
    postcondition. Diagnostics are ordered by (rank, slot). *)

val lint : ?symmetry:Symmetry.t -> Ir.t -> Lint.diagnostic list
(** Just the three dataflow lint rules, as registered {!Lint} rules
    (sorted with {!Lint.compare_diag}); quotient runs scan representative
    ranks and suffix the folded member count with
    {!Orbit.symmetric_suffix}. *)

val report_json : report -> string
(** [{"mode", "orbits", "interpreted_ranks", "steps_interpreted",
    "slots_checked", "ok", "diags": [...], "lints": [...]}]. *)

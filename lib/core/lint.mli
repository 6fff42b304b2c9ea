(** Diagnostics framework over MSCCL-IR: a fixed set of static rules, each
    with an id, a severity and a precise location, reported together so
    compiler bugs (dropped dependencies, bad schedules) surface at compile
    time instead of as flaky simulation mismatches.

    Unlike {!Ir.validate} and {!Verify.check}, which stop at the first
    problem and raise, lint never raises on malformed IR: it collects every
    finding and leaves policy (fail the build, print, ignore warnings) to
    the caller. Rules:

    - [race] (error): two steps on different thread blocks of one GPU
      touch overlapping buffer intervals with no happens-before ordering
      ({!Races.find}).
    - [fifo-deadlock] (error): the waiting graph including FIFO
      back-pressure edges has a cycle — the kernel would hang.
    - [conn-mismatch] (error): a connection's send and receive counts
      differ, so a message is lost or a receive waits forever.
    - [dangling-depends] (error): a [depends] entry points at a missing
      thread block or step, at the step's own thread block, or at a step
      not marked [has_dep] (the runtime would not post its semaphore).
    - [oob-access] (error): a step reads or writes past its GPU's declared
      input/output/scratch sizes.
    - [dead-scratch] (warning): scratch chunks written but never read —
      wasted work and usually a sign of a miscomputed index.
    - [channel-contention] (warning): more than 8 thread blocks share
      one (gpu, channel) — they serialize on the channel's connection
      resources.
    - [unused-scratch] (info): declared scratch chunks never accessed.

    Three {e dataflow} correctness rules are registered here but produced
    by the provenance abstract interpretation
    ([Msccl_analysis.Provenance.lint]), which tracks actual chunk
    contributions instead of syntactic accesses:

    - [uninitialized-read] (error): a step reads a slot nothing wrote —
      reported statically with the reading instruction instead of as an
      {!Executor.Exec_error} crash.
    - [dead-store] (warning): every slot a step writes is overwritten
      before any read, or ends unread outside the constrained output.
    - [unread-scratch] (warning): a scratch slot's values never contribute
      to any constrained output position (strictly stronger than
      [dead-scratch]: a scratch chunk that is read, but only by other dead
      computation, is still flagged).

    A second family of {e performance} rules is registered here but
    produced by {!Perfcheck.lint}, which needs a topology to cost the IR
    against ({!run} emits only the correctness rules above):

    - [below-bandwidth-optimal] (warning): bandwidth efficiency against
      the alpha-beta-gamma lower bound falls below a threshold.
    - [link-hotspot] (warning): one physical link's transfer time is far
      above the mean — the schedule serializes on that wire.
    - [tb-imbalance] (warning): one thread block does far more modelled
      work than the mean.
    - [redundant-send] (warning): a send delivers data its destination
      provably already holds.
    - [missed-fusion] (info): a scratch round-trip a fused opcode would
      eliminate. *)

type severity =
  | Error
  | Warning
  | Info

val severity_name : severity -> string
(** ["error"], ["warning"] or ["info"]. *)

type at = {
  at_gpu : int;
  at_tb : int;
  at_step : int;
}
(** Location of a finding: a step of a thread block of a GPU. *)

type diagnostic = {
  d_rule : string;
  d_severity : severity;
  d_at : at option;  (** [None] for program-wide findings. *)
  d_message : string;
}

type category =
  | Correctness  (** The IR computes the wrong thing or hangs. *)
  | Perf  (** The IR is correct but provably slower than it could be. *)

val category_name : category -> string
(** ["correctness"] or ["perf"]. *)

type rule = {
  rule_id : string;
  rule_doc : string;
  rule_severity : severity;
  rule_category : category;
}

val rules : rule list
(** Every rule lint knows, in documentation order. Perf-category rules are
    emitted by {!Perfcheck.lint}, not by {!run}. *)

val diag :
  ?at:at -> string -> ('a, Format.formatter, unit, diagnostic) format4 -> 'a
(** [diag ?at rule_id fmt ...] builds a diagnostic for a registered rule,
    taking its severity from {!rules}. Raises [Invalid_argument] on an
    unregistered id — producers of new findings must register their rule
    first. *)

val compare_diag : diagnostic -> diagnostic -> int
(** Severity first (errors before warnings before info), then location,
    rule id, message: the order {!run} reports in, exposed so other
    producers (e.g. {!Perfcheck}) sort consistently. *)

val run : Ir.t -> diagnostic list
(** Runs every rule over every GPU, with the IR protocol's FIFO slot
    count and a channel-contention threshold of 8 thread blocks.
    Diagnostics are sorted errors-first, then by location and rule. *)

val errors : diagnostic list -> diagnostic list

val has_errors : diagnostic list -> bool

val pp_diagnostic : Format.formatter -> diagnostic -> unit
(** One line: [error[race] gpu 0 tb 1 step 2: message]. *)

val pp : Format.formatter -> diagnostic list -> unit
(** All diagnostics, one per line, plus a summary line. *)

val json_escape : string -> string
(** Escapes a string for embedding in a JSON literal. The repo's one
    copy: {!to_json}, the ingest diagnostics and every other report
    emitter use it. *)

val to_json : diagnostic list -> string
(** Machine-readable form: a JSON array of objects with [rule],
    [severity], [gpu]/[tb]/[step] (absent for program-wide findings) and
    [message] fields. *)

(** Static data-race detection over MSCCL-IR (TSan for thread blocks).

    The compiler's fusion and scheduling passes are only safe if every
    pair of steps touching the same buffer region on a GPU is ordered by
    the happens-before relation the runtime enforces (program order,
    cross-thread-block semaphores, send/receive matching, FIFO
    back-pressure — see {!Hbgraph}). A dropped or misdirected [depends]
    edge silently corrupts results; this module finds such pairs
    statically and reports a machine-checkable witness.

    Each step's local memory footprint is derived from its opcode
    ({!Instr.reads_local} / {!Instr.writes_local}; [Reduce] also reads its
    destination) and its [src]/[dst] locations as [(buffer, index, count)]
    intervals. For in-place collectives the input and output buffers alias
    and are treated as one. Two steps on the same GPU but different
    thread blocks race when their intervals overlap, at least one writes,
    and neither happens-before the other. *)

type hazard =
  | Raw  (** the write belongs to the earlier-numbered step *)
  | War  (** the read belongs to the earlier-numbered step *)
  | Waw

val hazard_name : hazard -> string
(** ["RAW"], ["WAR"] or ["WAW"]. The two steps of a race are concurrent,
    so for read/write hazards the RAW/WAR naming follows the canonical
    step numbering recorded in the witness. *)

type race = {
  r_gpu : int;
  r_tb1 : int;
  r_step1 : int;  (** canonically first access (lower (tb, step)) *)
  r_tb2 : int;
  r_step2 : int;
  r_hazard : hazard;
  r_buf : Buffer_id.t;
  r_lo : int;
  r_hi : int;  (** overlapping chunk range, inclusive *)
}

(** {1 The step-footprint table}

    Each step's local accesses ({!Instr.reads_local} of [src], [dst] for
    [Reduce], which accumulates into it, then {!Instr.writes_local} of
    [dst]), reads before the write, as int columns. Steps are numbered
    in IR order (gpu, thread block, step position); the buffer is
    canonical: for in-place collectives output aliases input. *)

type footprints = {
  fp_gpu_block : int array;
      (** Gpu position -> its first block in IR order; and the total. *)
  fp_block_step : int array;
      (** Block -> its first step in IR order; and the total. *)
  fp_step_acc : int array;
      (** Step [k]'s accesses are [fp_step_acc.(k)] ..
          [fp_step_acc.(k + 1) - 1]. *)
  fp_kind : Bytes.t;  (** Read by {!is_write} and {!buffer}. *)
  fp_index : int array;
  fp_count : int array;
}

val footprints : Ir.t -> footprints

val is_write : footprints -> int -> bool
(** Whether access [a] writes. *)

val buffer : footprints -> int -> int
(** Access [a]'s buffer: 0 input, 1 output, 2 scratch ({!bufs}). *)

val bufs : Buffer_id.t array
(** [[| Input; Output; Scratch |]]: the buffer of each {!buffer} value. *)

val buf_ix : Buffer_id.t -> int
(** The position of a buffer in {!bufs}. *)

val access_loc : Ir.t -> Ir.step -> int -> Loc.t
(** The step's [q]-th access as a location, with the table's canonical
    buffer. *)

val first_step : footprints -> gpu:int -> tb:int -> int
(** The number of the first step of the block at position [tb] of the
    gpu at position [gpu]. *)

val num_accesses : footprints -> gpu:int -> int
(** The number of accesses of the gpu at position [gpu]. *)

val iter_gpu_accesses :
  footprints -> gpu:int -> Ir.gpu -> (Ir.tb -> Ir.step -> int -> unit) -> unit
(** [iter_gpu_accesses fp ~gpu g f] calls [f tb st a] for every access
    [a] of [g], the gpu at position [gpu], in table order: its blocks,
    their steps, each step's accesses. *)

val find : ?hb:Hbgraph.t -> ?fp:footprints -> Ir.t -> race list
(** All racy pairs, sorted by location. [hb] defaults to
    [Hbgraph.build ~fifo_slots:(Protocol.num_slots ir.proto) ir] and [fp]
    to [footprints ir]; pass prebuilt ones to share them with other
    analyses. At most one race per (step pair, hazard kind, buffer) is
    reported.

    On an acyclic graph each GPU is first certified race-free in one
    pass over its accesses in topological order (a step's reads before
    its writes), with O(accesses) reachability queries: per elementary
    chunk segment of a buffer, the last write must reach every later
    access, and every read since that write must reach the next write.
    Transitivity makes passing every check equivalent to no overlapping
    pair with a write being unordered. Only a GPU where a check fails
    (or an access has a nonpositive count), and every GPU of a cyclic
    graph, runs the pairwise sweep that builds the race records, so the
    result is the sweep's in every case. Every certificate query is one
    the sweep would also ask. *)

val pp_race : Format.formatter -> race -> unit

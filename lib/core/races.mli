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

val find : ?hb:Hbgraph.t -> Ir.t -> race list
(** All racy pairs, sorted by location. [hb] defaults to
    [Hbgraph.build ~fifo_slots:(Protocol.num_slots ir.proto) ir]; pass a
    prebuilt graph to share its order and closures with other analyses.
    At most one race per (step pair, hazard kind, buffer) is reported.

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

val footprint : Ir.t -> Ir.step -> (bool * Loc.t) list
(** The step's local accesses as [(is_write, loc)] with the buffer already
    canonicalized for in-place aliasing. Exposed for lint rules (out-of-
    bounds accesses, dead scratch) so all analyses agree on semantics. *)

val pp_race : Format.formatter -> race -> unit

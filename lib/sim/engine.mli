(** Discrete-event engine with fluid-flow bandwidth sharing.

    Time is in seconds. Two primitives drive a simulation:

    - timed callbacks ({!at} / {!after}), and
    - {e flows}: data transfers of a given byte count across a list of
      shared resources. While a flow is active its rate is
      [min(cap, min over its resources r of capacity(r) / nflows(r))] —
      i.e. every resource is shared equally among the flows crossing it,
      and each flow is additionally capped (modelling the maximum bandwidth
      a single thread block can drive, paper §5.1). Rates are recomputed
      whenever the set of flows on a resource changes, so contention between
      overlapping transfers is captured without fixed time-stepping.

    The engine is deterministic, and its tie-breaking is pinned:
    - simultaneous events, completions, callbacks and wakes alike, fire in
      the order they were created ({!Pqueue} breaks equal times by
      insertion order);
    - when a flow starts or finishes, or a resource's capacity changes,
      the flows sharing the affected resources are settled and re-rated in
      start order (resource by resource, in the order the changing flow's
      [hops] list them, each flow once), and the completion events this
      reschedules are created in that order;
    - hence flows started at one instant on identical terms whose rate
      never changes (each bound by its [cap]) complete at one instant in
      start order. Identical flows that share a bottleneck need not: each
      start slows the earlier ones, whose early completion events then
      fire and resynchronize them at different times, and their final
      events fire in the order that created them.

    Events are ints. A callback ({!at}, {!after}, {!start_flow}) is kept
    in a table until it fires, and dropped as it fires. A {e wake} is an
    int of the client's own ({!wake_at}, {!wake_after},
    {!start_flow_wake}) handed to the handler set by {!set_wake_handler};
    a client that encodes its continuations as ints schedules events
    without allocating. *)

type t

val create : capacities:float array -> t
(** [capacities.(r)] is the bandwidth of resource [r] in bytes/second.
    @raise Invalid_argument on a NaN or non-positive capacity, naming the
    value and the resource. *)

val now : t -> float

val at : t -> float -> (unit -> unit) -> unit
(** Schedule a callback at an absolute time (>= [now t]).
    @raise Invalid_argument on a NaN or past time, naming the offending
    value — a mis-ordered event would silently corrupt heap order. *)

val after : t -> float -> (unit -> unit) -> unit
(** Schedule a callback [delay] seconds from now.
    @raise Invalid_argument on a NaN or negative delay, naming the
    offending value. *)

val set_wake_handler : t -> (int -> unit) -> unit
(** The function every wake is handed to when it fires. Until one is set,
    a firing wake raises [Invalid_argument]. *)

val max_wake : int
(** The largest wake: [max_int / 4], so that two tag bits fit below it. *)

val wake_at : t -> float -> int -> unit
(** [wake_at t time w] schedules wake [w] at an absolute time, exactly as
    {!at} schedules a callback.
    @raise Invalid_argument like {!at}, or on a [w] outside
    [\[0, max_wake\]]. *)

val wake_after : t -> float -> int -> unit
(** {!wake_at} [delay] seconds from now; raises like {!after}. *)

val set_capacity : t -> int -> float -> unit
(** [set_capacity t r c] changes resource [r]'s bandwidth to [c] bytes/s
    at the current simulated time (fault injection: degradation, failure,
    restore). Active flows crossing [r] are settled at the current time and
    re-rated through the usual lazy completion rescheduling. [c = 0.] is
    allowed and stalls the flows on [r] — they make no progress and
    schedule no events until a later [set_capacity] revives them.
    @raise Invalid_argument on a bad resource id, NaN, or negative
    capacity. *)

val capacity : t -> int -> float
(** Current bandwidth of a resource in bytes/second. *)

val start_flow :
  t -> bytes:float -> hops:int list -> cap:float -> (unit -> unit) -> unit
(** Begin a transfer; the callback fires when the last byte arrives.
    [hops] is the list of resource ids the flow occupies; [cap] is the
    per-flow rate cap in bytes/second. A flow with [bytes <= 0.] completes
    at the current time (still asynchronously, in event order).
    @raise Invalid_argument on NaN or infinite [bytes] (such a flow would
    never complete, and {!run} would never return), on a NaN or
    non-positive [cap], or on a bad resource id, naming the value. *)

val start_flow_wake :
  t -> bytes:float -> hops:int list -> cap:float -> int -> unit
(** {!start_flow} whose completion hands a wake to the handler. Raises
    like {!start_flow}, or on a wake outside [\[0, max_wake\]]. *)

(** {1 Packed completions}

    A flow's completion event is one int: the flow's slot (its index in
    the engine's per-flow arrays, recycled as flows finish) and the
    slot's version, which every rescheduling bumps so that a stale event
    never matches. Both fields have fixed widths. {!start_flow} raises
    [Invalid_argument] naming {!max_flow_slots} when it would need more
    slots than that (one per flow in the air, plus any retired). A
    recycled slot whose versions have reached
    {!max_flow_version} is retired rather than reused, and a single flow
    rescheduled past it raises [Invalid_argument] naming the limit from
    the call that reschedules it: no event is ever aliased. *)

val max_flow_slots : int
(** [2{^24}]: slots, so concurrent flows. *)

val max_flow_version : int
(** [2{^36} - 1] on a 64-bit host: completion events per slot. *)

val pack_flow_done : slot:int -> version:int -> int
(** The event a completion of [slot] at [version] is queued as.
    @raise Invalid_argument outside [\[0, max_flow_slots)] ×
    [\[0, max_flow_version\]], naming the limit. *)

val unpack_flow_done : int -> int * int
(** [(slot, version)] of a packed completion; the inverse of
    {!pack_flow_done}.
    @raise Invalid_argument on an int that is not one. *)

val run : t -> unit
(** Process events until none remain or {!stop} is called. Callbacks may
    schedule further events and flows. *)

val stop : t -> unit
(** Ask {!run} to return after the current event (used by the simulator's
    hang watchdog to abandon a stuck simulation). Pending events stay in
    the queue; a later {!run} resumes them. *)

val events_processed : t -> int
(** Number of events processed so far (a determinism/effort metric). *)

val active_flows : t -> int
(** Number of flows currently in the air. *)

val progressing_flows : t -> int
(** Number of active flows with a positive rate — i.e. excluding flows
    stalled on a zero-capacity resource. Rates are kept current on every
    capacity/population change, so a zero here means no transfer can ever
    complete without outside intervention (used by the simulator's hang
    watchdog). *)

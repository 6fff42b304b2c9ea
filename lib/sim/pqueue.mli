(** A mutable binary min-heap of [int] payloads keyed by [float]
    priorities.

    The one heap of the toolchain: the discrete-event engine keys its
    packed events by time ({!Engine}), and the scheduler keys instruction
    ids by priority. Ties are broken by insertion order, which makes every
    client deterministic: an element pops before every element with a
    larger priority and before every element of equal priority ([=], so
    [0.] and [-0.] tie) added after it.

    The heap holds runs, not single elements. A run is a FIFO of the
    payloads pushed back to back at bit-equal priorities: a push at the
    previous push's priority, while that push's run is still queued,
    appends to it in O(1), and any other push opens a new run, ordered
    by (priority, creation). Since a run's elements are consecutive
    pushes, this pops exactly what a heap of single elements pops, and a
    pop that leaves its run non-empty moves no heap entry. A lockstep
    simulation pushes most events at the instant of the push before
    them, so most pushes and pops are O(1). [0.] and [-0.] tie but do
    not share a run, so {!min_priority} returns each element's own
    priority.

    A heap entry is a whole run (priority, number, front payload, first
    queued node), and entries and nodes live in flat arrays (floats
    unboxed, the rest immediate), so no operation touches a pointer or a
    write barrier. Nodes are recycled through a free list: once the
    arrays have grown to the largest live size, no operation allocates.
    Sifts move a hole: one move per level. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val add : t -> priority:float -> int -> unit
(** O(1) when it extends the last push's run, else O(log r) for [r]
    queued runs. Elements with equal [priority] pop in insertion order. *)

val min_priority : t -> float
(** The priority {!pop_min} would remove next. O(1).
    @raise Invalid_argument on an empty queue. *)

val pop_min : t -> int
(** Removes and returns the minimum-priority element. O(1) when its run
    has more elements, else O(log r).
    @raise Invalid_argument on an empty queue. *)

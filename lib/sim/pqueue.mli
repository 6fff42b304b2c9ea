(** A mutable binary min-heap of [int] payloads keyed by [float]
    priorities.

    The one heap of the toolchain: the discrete-event engine keys its
    packed events by time ({!Engine}), and the scheduler keys instruction
    ids by priority. Ties are broken by insertion order, which makes every
    client deterministic: an element pops before every element with a
    larger priority and before every element of equal priority ([=], so
    [0.] and [-0.] tie) added after it.

    Priorities, sequence numbers and payloads live in three flat arrays
    (floats unboxed, the rest immediate), so no operation touches a
    pointer or a write barrier, and pushes allocate nothing but an
    occasional doubling. Sifts move a hole: one move per level. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val add : t -> priority:float -> int -> unit
(** O(log n). Elements with equal [priority] pop in insertion order. *)

val min_priority : t -> float
(** The priority {!pop_min} would remove next. O(1).
    @raise Invalid_argument on an empty queue. *)

val pop_min : t -> int
(** Removes and returns the minimum-priority element. O(log n).
    @raise Invalid_argument on an empty queue. *)

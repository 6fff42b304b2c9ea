(** A mutable binary min-heap priority queue.

    Used by the discrete-event engine (keyed by event time) and by the
    compiler's scheduler (keyed by instruction priority). Ties are broken by
    insertion order, which makes every client deterministic. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> priority:float -> 'a -> unit
(** O(log n). Elements with equal [priority] pop in insertion order. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the minimum-priority element. O(log n). *)

val min_priority : 'a t -> float
(** The priority {!pop_min} would remove next. O(1).
    @raise Invalid_argument on an empty queue. *)

val pop_min : 'a t -> 'a
(** Removes and returns the minimum-priority element, like {!pop} but
    without allocating the result pair. O(log n).
    @raise Invalid_argument on an empty queue. *)

val peek : 'a t -> (float * 'a) option

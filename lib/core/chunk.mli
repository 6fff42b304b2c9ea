(** The chunk algebra (paper §3.1).

    A chunk is the finest granularity of data a collective moves. Chunks
    take three forms:

    - {e input chunks}, uniquely identified by the pair (rank, index) of
      their position in some rank's input buffer at the start;
    - {e reduction chunks}, identified by the multiset of input chunks
      combined into them by point-wise reduction (reduction is assumed
      commutative and associative, so only the multiset matters);
    - {e uninitialized chunks}, a unit value filling the output and scratch
      buffers at the start.

    Collective postconditions and the symbolic verifier are phrased in this
    algebra. Using a multiset (not a set) means reducing the same input
    twice yields a value different from reducing it once — which is exactly
    the bug (double-counting with [+]) the verifier must catch. *)

type t

exception Uninitialized_data
(** Raised by {!reduce} when either operand is uninitialized; the DSL and
    the symbolic executor raise their own errors before calling it on
    uninitialized data, so user programs see a located error instead. *)

val uninit : t

val input : rank:int -> index:int -> t
(** The input chunk initially at [index] of [rank]'s input buffer. *)

val reduce : t -> t -> t
(** Point-wise reduction of two chunks; the result is identified by the
    multiset union of the operands' inputs. Raises {!Uninitialized_data} if
    either operand is {!uninit}. *)

val reduce_many : t list -> t
(** Left fold of {!reduce}; raises [Invalid_argument] on the empty list. *)

val is_uninit : t -> bool

val inputs : t -> (int * int) list option
(** The sorted multiset of (rank, index) inputs, or [None] for {!uninit}. *)

val iter_inputs : (int -> int -> unit) -> t -> unit
(** [iter_inputs f c] calls [f rank index] once per input of [c] (with
    multiplicity), in no particular order. Unlike {!inputs} it neither
    sorts nor memoizes, so it is the cheap way to aggregate a large
    chunk's multiset; does nothing on {!uninit}. *)

val allreduce_expected : num_ranks:int -> index:int -> t
(** The reduction of input chunk [index] across all ranks — the value every
    output position of an AllReduce must hold. *)

val exact_limit : int
(** Chunks of at most this many inputs compare as exact multisets; larger
    ones compare by a 126-bit hash pair of their multiset. *)

val equal : t -> t -> bool
(** Multiset equality (see {!exact_limit}). A successful exact comparison
    makes the second chunk share the first one's sorted input list, so
    comparing either again with a chunk that shares it is O(1). *)

val compare : t -> t -> int
(** A total order consistent with {!equal}: by number of inputs, then by
    sorted input list (at most {!exact_limit} inputs) or hash pair. *)

val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

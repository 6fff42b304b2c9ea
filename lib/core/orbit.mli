(** Rank equivalence classes under a certified program automorphism.

    An orbit partition groups ranks whose per-rank programs are images of
    one another under a rank permutation that is an automorphism of the
    whole instruction DAG (same ops, same step structure, peers and
    cross-thread-block dependencies mapped consistently, buffer footprints
    related by a per-buffer chunk bijection). Provenance's quotient mode
    interprets one representative rank per orbit and expands its findings
    to the members; symmetry reports print the partition.

    Values of this type are plain data: the certification lives in the
    symmetry analysis that produces them (see the [msccl_analysis]
    library). Only construct these through [identity] or a certifying
    inference. *)

type t = {
  rep : int array;
      (** [rep.(r)] is the representative of [r]'s orbit: its smallest
          member. *)
}

val identity : Ir.t -> t
(** Every rank is its own orbit. *)

val is_identity : t -> bool

val num_orbits : t -> int

val reps : t -> int list
(** Representatives in ascending order. *)

val members : t -> int -> int list
(** [members o r] lists the orbit of representative [r] in ascending
    order (including [r]). *)

val orbit_size : t -> int -> int
(** Size of the orbit containing the given rank. *)

val symmetric_suffix : int -> string
(** [symmetric_suffix n] is [" (and n symmetric rank(s))"], the suffix a
    finding on an orbit representative carries for the [n] other members
    it stands for; [""] when [n <= 0]. *)

(** Rank equivalence classes under a certified program automorphism.

    An orbit partition groups ranks whose per-rank programs are images of
    one another under a rank permutation that is an automorphism of the
    whole instruction DAG (same ops, same step structure, peers and
    cross-thread-block dependencies mapped consistently, buffer footprints
    related by a per-buffer chunk bijection). Quotient passes analyze one
    representative rank per orbit and expand findings to the members.

    Values of this type are plain data: the certification lives in the
    symmetry analysis that produces them (see the [msccl_analysis]
    library). Passing an uncertified orbit to a quotient pass yields
    meaningless results, so only construct these through [identity] or a
    certifying inference. *)

type t = {
  rep : int array;  (** [rep.(r)] is the representative of [r]'s orbit. *)
  tb_of_rep : int array array;
      (** [tb_of_rep.(r).(t)] is the thread block of rank [r] corresponding
          to thread block [t] of its representative. *)
  tb_to_rep : int array array;
      (** Inverse of [tb_of_rep]: member thread block -> representative
          thread block. *)
}

val identity : Ir.t -> t
(** Every rank is its own orbit; quotient passes degenerate to the full
    pass. *)

val is_identity : t -> bool

val num_ranks : t -> int

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

val check_shape : Ir.t -> t -> (unit, string) result
(** Cheap structural sanity check (not a certification): array sizes
    match the IR, [rep] is idempotent onto orbit minima, and the thread
    block maps are mutually inverse bijections between blocks with equal
    step counts. *)

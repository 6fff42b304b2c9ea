(** Algorithm-declared rank-symmetry hints for replicated compilation.

    A hint claims that the traced program decomposes into [num_ranks]
    slices related by a ring shift: slice k = pi^k(slice 0) with
    [pi(r) = (r + shift) mod P], and chunk indices translating by a fixed
    per-buffer delta per slice (modulo the buffer size). The compiler can
    then trace, lower, fuse and schedule only slice 0 — every rank's full
    program is recovered from the representative rank's by index
    arithmetic.

    Hints are {e never} trusted: the replicated IR must pass symmetry
    certification (and, in differential mode, byte-identical comparison
    against the full trace); a failing hint silently falls back to the
    full pipeline, so hints change compile cost but never output. *)

type t = {
  shift : int;
      (** [pi(r) = (r + shift) mod P], in any residue class: [1] and
          [1 - P] declare the same rotation. The replicated fast path
          requires [gcd(shift, P) = 1] so one representative rank covers
          all ranks. *)
  trace_rep : Program.t -> unit;
      (** Emits only slice 0 of the program (same DSL calls as the full
          program restricted to the representative slice). *)
  d_input : int;  (** Chunk-index delta per slice in the input buffer. *)
  d_output : int;
  d_scratch : int;
  scratch_chunks : int;
      (** Rank-uniform scratch size of the full program, in chunks. *)
}

val ring_shift :
  ?d_input:int ->
  ?d_output:int ->
  ?d_scratch:int ->
  ?scratch_chunks:int ->
  shift:int ->
  (Program.t -> unit) ->
  t

val shift_mod : t -> num_ranks:int -> int
(** [shift] reduced into [\[0, num_ranks)]; {!name}, {!perm} and
    replicated compilation all read the shift through it. *)

val name : t -> num_ranks:int -> string
(** Generator name in {!Msccl_analysis.Symmetry} convention
    (["shift+1"]). *)

val perm : t -> num_ranks:int -> int array
(** The claimed rank permutation, for certification. *)

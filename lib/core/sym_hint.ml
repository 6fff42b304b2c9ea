(* A symmetry hint declared by an algorithm: the program is a union of
   [num_ranks] slices, where slice k is the image of slice 0 under k
   applications of the rank rotation pi(r) = r + shift mod P together with
   a per-buffer chunk-index rotation psi. The hint lets the compiler trace
   and schedule one representative slice and instantiate the rest by index
   arithmetic; it is never trusted — the replicated result is certified
   post hoc and any failure falls back to the full pipeline. *)

type t = {
  shift : int;  (* pi(r) = (r + shift) mod P, slices = orbit of slice 0 *)
  trace_rep : Program.t -> unit;
      (* Emits only the representative slice (slice 0) of the program. *)
  d_input : int;  (* chunk-index delta per slice, input buffer *)
  d_output : int;
  d_scratch : int;
  scratch_chunks : int;
      (* Rank-uniform scratch footprint of the *full* program in chunks
         (the sliced trace only sees slice 0's share). *)
}

let ring_shift ?(d_input = 0) ?(d_output = 0) ?(d_scratch = 0)
    ?(scratch_chunks = 0) ~shift trace_rep =
  { shift; trace_rep; d_input; d_output; d_scratch; scratch_chunks }

(* The one place the declared shift is reduced into [0, P). *)
let shift_mod t ~num_ranks =
  ((t.shift mod num_ranks) + num_ranks) mod num_ranks

let name t ~num_ranks = Printf.sprintf "shift+%d" (shift_mod t ~num_ranks)

(* The permutation the hint claims, as an explicit rank -> image array
   (what Symmetry.verify_candidate certifies). *)
let perm t ~num_ranks =
  let s = shift_mod t ~num_ranks in
  Array.init num_ranks (fun r -> (r + s) mod num_ranks)

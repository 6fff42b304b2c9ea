(* What one iteration of a workload reports back to the runner.

   A workload runs a sequence of ops (one user-visible toolchain command on
   one input: compile, verify, one file's verdict, one tuning table...).
   Each op registers closures that the runner evaluates after the clock
   stops: [facts] are the op's outputs as stable lines (compared with the
   goldens and across iterations), [check] returns broken invariants, and
   [times] gives the modelled collective times (s) behind
   sim_time_geomean_us. Outputs the closures capture stay alive until the
   iteration ends. *)

type outcome = {
  o_op : string;
  o_facts : unit -> string list;
  o_check : unit -> string list;
  o_times : unit -> float list;
}

type t = {
  mutable ops : string list;  (** Attempted this iteration, newest first. *)
  mutable outcomes : outcome list;  (** Newest first. *)
}

let create () = { ops = []; outcomes = [] }

let current t = match t.ops with op :: _ -> op | [] -> "(no op)"

let op t name f =
  t.ops <- name :: t.ops;
  Trace.span Trace.Op name f

let nothing () = []

let record t ?(facts = nothing) ?(check = nothing) ?(times = nothing) () =
  t.outcomes <-
    { o_op = current t; o_facts = facts; o_check = check; o_times = times }
    :: t.outcomes

let ops t = List.rev t.ops

let outcomes t = List.rev t.outcomes

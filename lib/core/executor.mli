(** A functional interpreter for MSCCL-IR, and the one implementation of
    the runtime's scheduling rules (paper §6.2):

    - steps run in order within a thread block;
    - cross thread-block [depends] wait on the target's semaphore;
    - a receive blocks until the matching send's data is in the connection
      FIFO; a send blocks while all [slots] FIFO slots are full;
    - messages on a connection are delivered in order, and a received
      message must carry exactly the receiving step's chunk count.

    {!schedule} is generic over the value domain and the communication
    backend. Instantiated through {!Make} with the chunk algebra it is the
    paper's correctness checker (§3.2); with float vectors it actually
    performs the collective, which tests and examples use to validate
    results numerically end to end. The static provenance pass runs the
    same scheduler over its contribution lattice, so its verdicts agree
    with the executor's by construction.

    Execution is deterministic (round-robin over thread blocks). If no
    thread block can advance and some are unfinished, {!Exec_error} is
    raised with a per-thread-block diagnosis — this is a dynamic deadlock
    detector for hand-written IR (compiled IR is deadlock-free by
    construction, §5.2). *)

exception Exec_error of string

(** {1 The shared scheduler} *)

type at = int * int * int
(** A step's [(gpu, tb, step)] coordinates. *)

type fault =
  | No_operand of string
      (** The step has no ["source"] or ["destination"] operand although
          its opcode uses one. *)
  | Message_size of { sent : int; expected : int; sender : at }
      (** The popped message has [sent] chunks; the receiving step's
          [count] is [expected]. *)

type 'v interp = {
  read : at -> Loc.t -> 'v array;
  write : at -> Loc.t -> 'v array -> unit;
  reduce : 'v -> 'v -> 'v;
  fault : at -> fault -> 'v;
      (** Either raises, or returns the value that stands in for every
          chunk the faulty operand or message would have supplied (a
          missing destination drops the write). *)
  received : at -> sender:at -> 'v array -> unit;
      (** Called once per message, after the size check and before the
          receiving step uses it. *)
}
(** The value domain: how a step at [at] reads, writes and combines. *)

type 'v port = {
  recv_ready : unit -> bool;
  pop : unit -> 'v array * at;
      (** The next message for the thread block, with its sending step. *)
  send_ready : unit -> bool;
  push : 'v array * at -> unit;
}
(** One thread block's end of its connections: the inbox it receives
    from and the outbox it sends into. *)

type 'v comm = int -> int -> 'v port
(** A communication backend: connects the thread block at position [t]
    of the [i]-th scheduled GPU ([comm i t]) to its port. {!schedule}
    connects every block once, before the first step, so a backend
    resolves its queues (and any re-addressing) there rather than per
    step. *)

type wait =
  | Semaphore of (int * int)  (** [(tb, step)] of an unmet [depends]. *)
  | Data_from of int  (** Empty FIFO from this rank. *)
  | Slots_to of int  (** Full FIFO to this rank. *)

type outcome = {
  executed : int;
  stuck : (at * wait) list;
      (** Unfinished thread blocks' next steps, in (gpu, tb) order; empty
          iff every step ran. *)
}

val schedule : 'v interp -> 'v comm -> Ir.gpu array -> outcome
(** Runs the given GPUs' thread blocks round-robin until every step ran or
    none can advance. Out-of-range [depends] entries count as satisfied
    ({!Ir.validate} rejects them). *)

val fifos :
  slots:int ->
  Ir.index ->
  (inbox:int -> outbox:int -> 'v port)
  * (unit -> ((int * int * int) * int * at) list)
(** One FIFO per connection id, holding at most [slots] messages: a port
    receives from connection [inbox] and sends into [outbox] (-1: a FIFO
    of its own). Also a listing of the connections [(src, dst, chan)]
    with messages left in flight, in ascending order: how many and the
    first one's sender. *)

val own_ports :
  Ir.index -> (inbox:int -> outbox:int -> 'v port) -> int -> int -> 'v port
(** [own_ports idx port] connects each block of the IR [idx] indexes to
    its own two connections; a {!comm} over that IR's [gpus]. *)

val step_op : Ir.t -> at -> Instr.opcode
(** The opcode of the step at [at]. *)

(** {1 Interpreters} *)

module type VALUE = sig
  type v

  val reduce : v -> v -> v
  (** Point-wise reduction. *)

  val copy : v -> v
  (** Defensive copy (identity for immutable values). *)
end

module type S = sig
  type v

  type state

  val run :
    ?slots:int ->
    ?idx:Ir.index ->
    ?on_deliver:
      (state ->
      src:int * int * int ->
      dst:int * int * int ->
      op:Instr.opcode ->
      payload:v array ->
      unit) ->
    ?on_write:(writer:int * int * int -> loc:Loc.t -> unit) ->
    init:(rank:int -> index:int -> v option) ->
    Ir.t ->
    state
  (** Executes the program. [init] gives the initial contents of every
      rank's input buffer ([None] = uninitialized); [slots] bounds
      outstanding sends per connection (default: the IR protocol's slot
      count); [idx] is the IR's connection index, built when absent.
      [on_deliver] is called once per message, just before the
      receiving step consumes it, with the sending and receiving steps'
      [(gpu, tb, step)] coordinates, the receiving opcode and the payload;
      the [state] argument reflects the buffers {e before} the receive
      takes effect, which is what redundancy analyses need. [on_write] is
      called once per local buffer write, after it took effect, with the
      writing step's [(gpu, tb, step)] and the destination [Loc.t] exactly
      as the instruction names it (an in-place collective's [Output] loc
      aliases the input array) — {!Verify.check_postcondition} uses it to
      attribute a wrong output slot to its last writer. Raises
      {!Exec_error} on deadlock, on reading uninitialized data, on a
      missing operand, on a received message whose chunk count differs
      from the receiving step's, or on leftover in-flight messages. *)

  val input : state -> rank:int -> v option array
  val output : state -> rank:int -> v option array
  val scratch : state -> rank:int -> v option array

  val steps_executed : state -> int
end

module Make (V : VALUE) : S with type v = V.v

module Symbolic : sig
  include S with type v = Chunk.t

  val run_collective :
    ?slots:int ->
    ?idx:Ir.index ->
    ?on_deliver:
      (state ->
      src:int * int * int ->
      dst:int * int * int ->
      op:Instr.opcode ->
      payload:Chunk.t array ->
      unit) ->
    ?on_write:(writer:int * int * int -> loc:Loc.t -> unit) ->
    Ir.t ->
    state
  (** Runs with the IR collective's precondition as input. *)
end

module Data : sig
  include S with type v = float array

  val random_input :
    elems_per_chunk:int -> seed:int -> rank:int -> index:int -> float array
  (** Deterministic pseudo-random input chunk (shared by {!run_random} and
      {!reference}). *)

  val run_random :
    ?slots:int -> ?elems_per_chunk:int -> ?seed:int -> Ir.t -> state
  (** Runs on pseudo-random input data (default 4 elements per chunk). *)

  val reference :
    elems_per_chunk:int ->
    seed:int ->
    Ir.t ->
    rank:int ->
    index:int ->
    float array option
  (** The numeric value the postcondition expects at an output position for
      the same pseudo-random inputs ([None] = unconstrained). *)
end

(** MSCCL-IR: the executable form of a compiled program (paper §5, Fig. 4).

    MSCCL-IR is a tree: a collective divides into per-GPU programs, which
    divide into thread blocks holding a list of instructions executed
    sequentially. A thread block owns at most one send connection and one
    receive connection, identified by (peer, channel); a connection is
    owned by exactly one sending and one receiving thread block, so thread
    blocks never serialize over a shared connection.

    Instructions reference buffers by name and chunk offset; cross
    thread-block execution-order dependencies are explicit [(tb, step)]
    pairs which the runtime enforces with semaphores (paper §6.2). *)

type step = {
  s : int;  (** Index of this step within its thread block. *)
  op : Instr.opcode;
  src : Loc.t option;  (** Local read location ([rank] = owning GPU). *)
  dst : Loc.t option;  (** Local write location. *)
  count : int;  (** Chunks moved (aggregation factor). *)
  depends : (int * int) list;
      (** [(tb_id, step)] pairs that must have executed first. *)
  has_dep : bool;  (** Some other step waits on this one. *)
}

type tb = {
  tb_id : int;
  send : int;  (** Send-peer rank, or -1. *)
  recv : int;  (** Receive-peer rank, or -1. *)
  chan : int;
  steps : step array;
}

type gpu = {
  gpu_id : int;
  input_chunks : int;  (** Allocated input-buffer size in chunks. *)
  output_chunks : int;
  scratch_chunks : int;
  tbs : tb array;
}

type t = {
  name : string;
  collective : Collective.t;
  proto : Msccl_topology.Protocol.t;
  gpus : gpu array;
}

val num_ranks : t -> int

val num_thread_blocks : t -> int
(** Total across all GPUs. *)

val num_steps : t -> int
(** Total instruction count. *)

val num_channels : t -> int
(** 1 + the highest channel id used. *)

val iter_steps : t -> (gpu -> tb -> step -> unit) -> unit

val with_proto : t -> Msccl_topology.Protocol.t -> t

(** {1 The connection index}

    A connection [(src, dst, chan)] is the send side of blocks on [src]
    (by [gpu_id]) with send peer [dst], and the receive side of blocks on
    [dst] with receive peer [src], on channel [chan]. A block has a side
    when it names that peer or has a step of that direction. Blocks are
    numbered in IR order. The index is total, built from any IR in
    O(blocks) memory: unbalanced, doubly-owned and peerless connections
    appear as they are. *)

type index = {
  conns : int;  (** Ids [0 .. conns - 1], ascending in (src, dst, chan). *)
  conn_src : int array;
  conn_dst : int array;
  conn_chan : int array;
  conn_sends : int array;  (** Sending steps of its senders. *)
  conn_recvs : int array;  (** Receiving steps of its receivers. *)
  conn_start : int array;
      (** Id [c]'s sending blocks are [ends.(conn_start.(c))] ..
          [ends.(conn_mid.(c) - 1)], its receiving blocks the rest up to
          [conn_start.(c + 1)], each side in block order. *)
  conn_mid : int array;
  ends : int array;
  block_send : int array;  (** Block -> its send connection, or -1. *)
  block_recv : int array;
  gpu_block : int array;  (** Gpu position -> its first block; and the total. *)
}

val index : t -> index

val index_of_gpus :
  ?canon:(src:int -> dst:int -> int * int) -> gpu array -> index
(** The index of some GPUs; [canon] maps each side's (src, dst) first. *)

val find_conn : index -> src:int -> dst:int -> chan:int -> int
(** The id of [(src, dst, chan)], or -1. *)

val validate : ?idx:index -> t -> unit
(** Structural invariants: peers in range; sending/receiving steps only in
    thread blocks with the matching connection; at most one sending and one
    receiving thread block per (gpu, peer, channel) connection; dependency
    references valid and [has_dep] consistent; send/receive counts matched
    per connection, the lowest unbalanced connection named first. Raises
    [Invalid_argument] with a message. [idx] is [t]'s index, built when
    absent. *)

val equal : t -> t -> bool
(** Structural equality: name, protocol, collective shape
    ({!Collective.equal_shape} — a [Custom] collective's closures are not
    compared), and every gpu/thread-block/step field. This is the notion of
    equality XML round-tripping preserves. *)

val pp : Format.formatter -> t -> unit
(** Readable dump of the whole IR (the format of Fig. 4's MSCCL-IR box). *)

val summary : t -> string
(** One-line ["name: R gpus, T tbs, S steps, C channels"]. *)

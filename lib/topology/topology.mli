(** Cluster topology: ranks, shared link resources, and point-to-point routes.

    A cluster has [num_nodes] nodes with [gpus_per_node] GPUs each. The rank
    of a GPU is the tuple [(n, g)] or equivalently the integer
    [n * gpus_per_node + g] (paper §2); both forms are supported here.

    Bandwidth-carrying hardware (a GPU's NVLink egress or ingress port group,
    an InfiniBand NIC, a PCIe switch, ...) is modelled as a {e resource} with
    a fixed capacity. A point-to-point {e route} between two ranks names the
    resources its traffic occupies; concurrent transfers that share a
    resource share its capacity. This is how the simulator reproduces the
    contention effects the paper's optimizations target: NIC sharing between
    GPUs, and a single thread block's inability to saturate a fast link. *)

type resource = {
  rid : int;  (** Dense index into {!resources}. *)
  rname : string;  (** Human-readable name, e.g. ["node0/gpu3/egress"]. *)
  capacity : float;  (** Bytes per second. *)
}

type route = {
  hops : int list;  (** Resource ids occupied by a transfer on this route. *)
  base_alpha : float;
      (** Per-message setup latency in seconds at Simple protocol. *)
  tb_cap : float;
      (** Max bytes/second one thread block can drive on this route. *)
  kind : Link.kind;
}

type t

val create :
  name:string ->
  num_nodes:int ->
  gpus_per_node:int ->
  resources:resource array ->
  route:(src:int -> dst:int -> route option) ->
  sm_count:int ->
  local_bandwidth:float ->
  reduce_gamma:float ->
  launch_overhead:float ->
  per_tb_launch:float ->
  instr_overhead:float ->
  t
(** Builds a topology whose routes are computed on demand: [route ~src
    ~dst] is consulted each time a route is read, and only for distinct
    in-range ranks, so building costs O(P + resources) rather than the P²
    of a route table.

    [create] checks only what costs O(P + resources): at least one rank,
    dense resource ids ([resources.(i).rid = i]), positive resource
    capacities and a positive [sm_count]. The per-route checks run at
    access, in the one checked accessor behind {!route} and
    {!fold_routes}: a [None] answer, a nonpositive [tb_cap] or a hop
    outside the resource array raises [Invalid_argument] there, so no
    caller ever reads an unchecked route. [create] raises
    [Invalid_argument] when its own checks fail. *)

val name : t -> string
val num_nodes : t -> int
val gpus_per_node : t -> int
val num_ranks : t -> int

val node_of : t -> int -> int
(** [node_of t rank] is the node index [n] of [rank = (n, g)]. *)

val gpu_of : t -> int -> int
(** [gpu_of t rank] is the local GPU index [g] of [rank = (n, g)]. *)

val rank_of : t -> node:int -> gpu:int -> int

val same_node : t -> int -> int -> bool

val resources : t -> resource array

val route : t -> src:int -> dst:int -> route
(** The route between two distinct ranks, computed when read. Raises
    [Invalid_argument] when [src = dst], either rank is out of range, or
    the route fails the access checks of {!create}. *)

val resource_capacity : t -> int -> float
(** Capacity in bytes/second of a resource id. Raises [Invalid_argument]
    when the id is out of range. *)

val find_resource : t -> string -> resource option
(** Look a resource up by its {!resource.rname} (used by fault plans that
    target links by name, e.g. ["node0/gpu3/egress"]). *)

val route_bandwidth : t -> src:int -> dst:int -> float
(** The uncontended wire bandwidth of the route [src -> dst]: the minimum
    capacity over its hop resources (the β of the link in α–β–γ terms,
    independent of the per-thread-block cap). Falls back to [tb_cap] for a
    route with no hops. *)

val route_alpha : t -> src:int -> dst:int -> float
(** The per-message setup latency of the route [src -> dst] at Simple
    protocol (the α of the link); scale by
    {!Protocol.alpha_scale} for other protocols. The γ of the model is
    global to the topology: {!reduce_gamma}. *)

val fold_routes :
  t -> ('a -> src:int -> dst:int -> route -> 'a) -> 'a -> 'a
(** Folds over the route of every pair of distinct ranks, in rank order
    ([src]-major, then [dst]). Raises [Invalid_argument] at the first
    route that fails the access checks of {!create}. *)

val sm_count : t -> int
(** Streaming multiprocessors per GPU: an upper bound on thread blocks per
    GPU for a cooperative kernel launch (paper §6.2). *)

val local_bandwidth : t -> float
(** Bytes/second one thread block moves between buffers of the same GPU. *)

val reduce_gamma : t -> float
(** Seconds per byte of point-wise reduction work on one thread block. *)

val launch_overhead : t -> float
(** Fixed cost in seconds of launching one (cooperative) kernel. *)

val per_tb_launch : t -> float
(** Additional launch cost in seconds per thread block in the kernel. *)

val instr_overhead : t -> float
(** Fixed decode/dispatch cost in seconds per interpreted instruction per
    tile (the switch in Fig. 5). *)

val pp : Format.formatter -> t -> unit

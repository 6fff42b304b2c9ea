type resource = {
  rid : int;
  rname : string;
  capacity : float;
}

type route = {
  hops : int list;
  base_alpha : float;
  tb_cap : float;
  kind : Link.kind;
}

type t = {
  name : string;
  num_nodes : int;
  gpus_per_node : int;
  resources : resource array;
  route_of : src:int -> dst:int -> route option;
  sm_count : int;
  local_bandwidth : float;
  reduce_gamma : float;
  launch_overhead : float;
  per_tb_launch : float;
  instr_overhead : float;
}

let create ~name ~num_nodes ~gpus_per_node ~resources ~route ~sm_count
    ~local_bandwidth ~reduce_gamma ~launch_overhead ~per_tb_launch
    ~instr_overhead =
  if sm_count <= 0 then invalid_arg "Topology.create: nonpositive sm_count";
  if num_nodes <= 0 || gpus_per_node <= 0 then
    invalid_arg "Topology.create: no ranks";
  Array.iteri
    (fun i res ->
      if res.rid <> i then invalid_arg "Topology.create: resource id mismatch";
      if res.capacity <= 0. then
        invalid_arg "Topology.create: nonpositive capacity")
    resources;
  {
    name;
    num_nodes;
    gpus_per_node;
    resources;
    route_of = route;
    sm_count;
    local_bandwidth;
    reduce_gamma;
    launch_overhead;
    per_tb_launch;
    instr_overhead;
  }

let name t = t.name
let num_nodes t = t.num_nodes
let gpus_per_node t = t.gpus_per_node
let num_ranks t = t.num_nodes * t.gpus_per_node
let node_of t rank = rank / t.gpus_per_node
let gpu_of t rank = rank mod t.gpus_per_node
let rank_of t ~node ~gpu = (node * t.gpus_per_node) + gpu
let same_node t a b = node_of t a = node_of t b
let resources t = t.resources

(* The one place a route is read: every consumer goes through here, so no
   route escapes without the checks [create] cannot afford to run over all
   P² pairs. Callers guarantee distinct in-range ranks. *)
let checked_route t ~src ~dst =
  match t.route_of ~src ~dst with
  | None ->
      invalid_arg
        (Printf.sprintf "Topology.route: missing route %d->%d" src dst)
  | Some rt ->
      if rt.tb_cap <= 0. then invalid_arg "Topology.route: nonpositive tb_cap";
      let n = Array.length t.resources in
      List.iter
        (fun h ->
          if h < 0 || h >= n then
            invalid_arg "Topology.route: resource id out of range")
        rt.hops;
      rt

let route t ~src ~dst =
  let r = num_ranks t in
  if src < 0 || src >= r || dst < 0 || dst >= r then
    invalid_arg "Topology.route: rank out of range";
  if src = dst then invalid_arg "Topology.route: src = dst";
  checked_route t ~src ~dst

let resource_capacity t rid =
  if rid < 0 || rid >= Array.length t.resources then
    invalid_arg "Topology.resource_capacity: id out of range";
  t.resources.(rid).capacity

let find_resource t name =
  let n = Array.length t.resources in
  let rec go i =
    if i >= n then None
    else if String.equal t.resources.(i).rname name then Some t.resources.(i)
    else go (i + 1)
  in
  go 0

let route_bandwidth t ~src ~dst =
  let rt = route t ~src ~dst in
  match rt.hops with
  | [] -> rt.tb_cap
  | hops ->
      List.fold_left
        (fun bw h -> Float.min bw (resource_capacity t h))
        infinity hops

let route_alpha t ~src ~dst = (route t ~src ~dst).base_alpha

let fold_routes t f acc =
  let r = num_ranks t in
  let acc = ref acc in
  for src = 0 to r - 1 do
    for dst = 0 to r - 1 do
      if src <> dst then acc := f !acc ~src ~dst (checked_route t ~src ~dst)
    done
  done;
  !acc

let sm_count t = t.sm_count
let local_bandwidth t = t.local_bandwidth
let reduce_gamma t = t.reduce_gamma
let launch_overhead t = t.launch_overhead
let per_tb_launch t = t.per_tb_launch
let instr_overhead t = t.instr_overhead

let pp fmt t =
  Format.fprintf fmt "%s: %d node(s) x %d GPU(s), %d resources" t.name
    t.num_nodes t.gpus_per_node (Array.length t.resources)

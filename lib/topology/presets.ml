(* Topology presets for the paper's evaluation systems. The numeric
   parameters (bandwidths, NIC counts, sharing) come from §7 and Fig. 7 of
   the paper; latency-style constants (alphas, launch overheads) are
   calibrated so the simulator reproduces the published performance shapes
   (see DESIGN.md, "Timing model"). *)

let gb = 1e9

(* Accumulates resources while building a topology. *)
module Builder = struct
  type t = { mutable acc : Topology.resource list; mutable next : int }

  let create () = { acc = []; next = 0 }

  let add b rname capacity =
    let rid = b.next in
    b.next <- rid + 1;
    b.acc <- { Topology.rid; rname; capacity } :: b.acc;
    rid

  let resources b = Array.of_list (List.rev b.acc)
end

(* A two-level (intra-node switch + per-GPU NIC) topology; covers NDv4 and,
   with [nic_of], DGX-2's NIC sharing between GPU pairs. *)
let two_level ~name ~nodes ~gpus_per_node ~(intra : Link.t) ~(inter : Link.t)
    ~nics_per_node ~nic_of ~sm_count ~local_bandwidth ~reduce_gamma
    ~launch_overhead ~per_tb_launch ~instr_overhead ~cross_board =
  if nodes <= 0 || gpus_per_node <= 0 then
    invalid_arg "Presets: nonpositive dimensions";
  let ranks = nodes * gpus_per_node in
  let b = Builder.create () in
  let egress = Array.init ranks (fun r ->
      Builder.add b (Printf.sprintf "rank%d/egress" r) intra.Link.bandwidth)
  in
  let ingress = Array.init ranks (fun r ->
      Builder.add b (Printf.sprintf "rank%d/ingress" r) intra.Link.bandwidth)
  in
  (* HDR InfiniBand is full duplex: each NIC gets independent egress and
     ingress resources of the line rate. *)
  let nic_out = Array.init nodes (fun n ->
      Array.init nics_per_node (fun i ->
          Builder.add b (Printf.sprintf "node%d/nic%d/out" n i)
            inter.Link.bandwidth))
  in
  let nic_in = Array.init nodes (fun n ->
      Array.init nics_per_node (fun i ->
          Builder.add b (Printf.sprintf "node%d/nic%d/in" n i)
            inter.Link.bandwidth))
  in
  (* Optional cross-board NVSwitch trunk (DGX-2: boards of 8 GPUs linked by
     8 NVLinks between counterpart switches). *)
  let xboard =
    match cross_board with
    | None -> None
    | Some (board_size, trunk_bw) ->
        let make n dir =
          Builder.add b (Printf.sprintf "node%d/xboard/%s" n dir) trunk_bw
        in
        Some
          ( board_size,
            Array.init nodes (fun n -> (make n "fwd", make n "bwd")) )
  in
  for g = 0 to gpus_per_node - 1 do
    let i = nic_of g in
    if i < 0 || i >= nics_per_node then
      invalid_arg
        (Printf.sprintf "Presets: gpu %d maps to nic %d of %d" g i
           nics_per_node)
  done;
  (* Every route is a closed-form function of the endpoints' (node, gpu),
     computed when read: NVSwitch egress -> ingress (plus the trunk when
     crossing DGX-2 boards) inside a node, NIC out -> NIC in between
     nodes. *)
  let node_of r = r / gpus_per_node in
  let gpu_of r = r mod gpus_per_node in
  let route ~src ~dst =
    if node_of src = node_of dst then begin
      let hops =
        match xboard with
        | Some (board, per_node)
          when gpu_of src / board <> gpu_of dst / board ->
            let fwd, bwd = per_node.(node_of src) in
            let trunk = if gpu_of src / board = 0 then fwd else bwd in
            [ egress.(src); ingress.(dst); trunk ]
        | Some _ | None -> [ egress.(src); ingress.(dst) ]
      in
      Some
        {
          Topology.hops;
          base_alpha = intra.Link.alpha;
          tb_cap = intra.Link.tb_cap;
          kind = intra.Link.kind;
        }
    end
    else
      let src_nic = nic_out.(node_of src).(nic_of (gpu_of src)) in
      let dst_nic = nic_in.(node_of dst).(nic_of (gpu_of dst)) in
      Some
        {
          Topology.hops = [ src_nic; dst_nic ];
          base_alpha = inter.Link.alpha;
          tb_cap = inter.Link.tb_cap;
          kind = inter.Link.kind;
        }
  in
  Topology.create ~name ~num_nodes:nodes ~gpus_per_node
    ~resources:(Builder.resources b) ~route ~sm_count ~local_bandwidth
    ~reduce_gamma ~launch_overhead ~per_tb_launch ~instr_overhead

let ndv4 ~nodes =
  two_level
    ~name:(Printf.sprintf "NDv4 %dx8xA100" nodes)
    ~nodes ~gpus_per_node:8 ~intra:Link.nvlink_a100 ~inter:Link.ib_hdr
    ~nics_per_node:8
    ~nic_of:(fun g -> g)
    ~sm_count:108 ~local_bandwidth:(50. *. gb)
    ~reduce_gamma:(1. /. (50. *. gb)) ~launch_overhead:7.0e-6
    ~per_tb_launch:0.12e-6 ~instr_overhead:0.25e-6 ~cross_board:None

let dgx2 ~nodes =
  two_level
    ~name:(Printf.sprintf "DGX-2 %dx16xV100" nodes)
    ~nodes ~gpus_per_node:16 ~intra:Link.nvlink_v100 ~inter:Link.ib_hdr
    ~nics_per_node:8
    ~nic_of:(fun g -> g / 2)
    ~sm_count:80 ~local_bandwidth:(40. *. gb)
    ~reduce_gamma:(1. /. (40. *. gb)) ~launch_overhead:8.0e-6
    ~per_tb_launch:0.15e-6 ~instr_overhead:0.3e-6
    ~cross_board:(Some (8, 1200. *. gb))

let hierarchical ?(name = "custom") ?(intra = Link.nvlink_a100)
    ?(inter = Link.ib_hdr) ~nodes ~gpus_per_node () =
  two_level ~name ~nodes ~gpus_per_node ~intra ~inter
    ~nics_per_node:gpus_per_node
    ~nic_of:(fun g -> g)
    ~sm_count:108 ~local_bandwidth:(50. *. gb)
    ~reduce_gamma:(1. /. (50. *. gb)) ~launch_overhead:7.0e-6
    ~per_tb_launch:0.12e-6 ~instr_overhead:0.25e-6 ~cross_board:None

(* DGX-1V NVLink brick counts between GPU pairs (6 links per GPU). *)
let dgx1_pairs =
  [
    ((0, 1), 1); ((0, 2), 1); ((0, 3), 2); ((0, 4), 2);
    ((1, 2), 2); ((1, 3), 1); ((1, 5), 2);
    ((2, 3), 1); ((2, 6), 2);
    ((3, 7), 2);
    ((4, 5), 1); ((4, 6), 1); ((4, 7), 2);
    ((5, 6), 2); ((5, 7), 1);
    ((6, 7), 1);
  ]

let dgx1_nvlink_count a b =
  let key = (min a b, max a b) in
  match List.assoc_opt key dgx1_pairs with
  | Some n -> n
  | None -> 0

let dgx1_connected a b = a <> b && dgx1_nvlink_count a b > 0

let dgx1 () =
  let ranks = 8 in
  let per_link_bw = 25. *. gb in
  let b = Builder.create () in
  (* A dedicated resource per directed NVLink-connected pair. *)
  let pair_res = Hashtbl.create 32 in
  List.iter
    (fun ((x, y), links) ->
      let cap = float_of_int links *. per_link_bw in
      Hashtbl.replace pair_res (x, y)
        (Builder.add b (Printf.sprintf "nvlink/%d-%d" x y) cap);
      Hashtbl.replace pair_res (y, x)
        (Builder.add b (Printf.sprintf "nvlink/%d-%d" y x) cap))
    dgx1_pairs;
  (* Shared PCIe fallback for pairs without a direct NVLink. *)
  let pcie = Array.init ranks (fun r ->
      Builder.add b (Printf.sprintf "rank%d/pcie" r) Link.pcie_gen4.Link.bandwidth)
  in
  let routes =
    Array.init ranks (fun src ->
        Array.init ranks (fun dst ->
            if src = dst then None
            else
              match Hashtbl.find_opt pair_res (src, dst) with
              | Some rid ->
                  Some
                    {
                      Topology.hops = [ rid ];
                      (* Direct NVLink bricks without NVSwitch pay a higher
                         per-message synchronization cost. *)
                      base_alpha = 12.0e-6;
                      tb_cap = 25. *. gb;
                      kind = Link.Nvlink;
                    }
              | None ->
                  Some
                    {
                      Topology.hops = [ pcie.(src); pcie.(dst) ];
                      base_alpha = Link.pcie_gen4.Link.alpha;
                      tb_cap = Link.pcie_gen4.Link.tb_cap;
                      kind = Link.Pcie;
                    }))
  in
  Topology.create ~name:"DGX-1 8xV100" ~num_nodes:1 ~gpus_per_node:8
    ~resources:(Builder.resources b)
    ~route:(fun ~src ~dst -> routes.(src).(dst))
    ~sm_count:80
    ~local_bandwidth:(40. *. gb) ~reduce_gamma:(1. /. (40. *. gb))
    ~launch_overhead:5.0e-6 ~per_tb_launch:0.15e-6 ~instr_overhead:0.3e-6

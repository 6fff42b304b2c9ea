open Msccl_core
module T = Msccl_topology
module A = Msccl_algorithms
module B = Msccl_baselines

let sim ?(occupancy = true) ?max_tiles topo ir ~buffer_bytes =
  (Simulator.run_buffer ~topo ~buffer_bytes ~check_occupancy:occupancy
     ?max_tiles ir)
    .Simulator.time

let times ?occupancy ?max_tiles topo ir sizes =
  List.map
    (fun buffer_bytes -> sim ?occupancy ?max_tiles topo ir ~buffer_bytes)
    sizes

(* ------------------------------------------------------------------ *)
(* Fig. 8a/8b: single-node AllReduce                                   *)
(* ------------------------------------------------------------------ *)

let allreduce_single_node ~fig_id ~title ~topo ~ring_variants ~sizes () =
  let num_ranks = T.Topology.num_ranks topo in
  let nccl = B.Nccl_model.allreduce topo in
  let baseline = List.map (fun buffer_bytes -> nccl ~buffer_bytes) sizes in
  let allpairs r proto =
    let ir = A.Allpairs_allreduce.ir ~proto ~instances:r ~num_ranks () in
    Report.speedup_series
      ~label:(Printf.sprintf "AllPairs r=%d %s" r (T.Protocol.name proto))
      ~baseline (times topo ir sizes)
  in
  let ring (ch, r, proto) =
    let ir =
      A.Ring_allreduce.ir ~proto ~channels:ch ~instances:r ~num_ranks ()
    in
    Report.speedup_series
      ~label:(Printf.sprintf "Ring ch=%d r=%d %s" ch r (T.Protocol.name proto))
      ~baseline (times topo ir sizes)
  in
  {
    Report.fig_id;
    title;
    ylabel = "speedup over NCCL";
    sizes;
    series =
      [ allpairs 2 T.Protocol.LL; allpairs 4 T.Protocol.LL ]
      @ List.map ring ring_variants;
  }

(* The paper's winning Ring uses ch=4 r=8; in this simulator's cost model
   the channel distribution itself does not pay (see EXPERIMENTS.md), so
   the tuned Ring keeps the paper's r and protocol with ch=1. *)
let fig8a () =
  allreduce_single_node ~fig_id:"fig8a" ~title:"1-node 8xA100 AllReduce"
    ~topo:(T.Presets.ndv4 ~nodes:1)
    ~ring_variants:
      [ (1, 8, T.Protocol.LL); (1, 8, T.Protocol.LL128) ]
    ~sizes:(Sweep.sizes ~from:(Sweep.kib 1.) ~upto:(Sweep.mib 32.))
    ()

let fig8b () =
  allreduce_single_node ~fig_id:"fig8b" ~title:"1-node 16xV100 AllReduce"
    ~topo:(T.Presets.dgx2 ~nodes:1)
    ~ring_variants:
      [ (1, 8, T.Protocol.LL); (1, 4, T.Protocol.LL128) ]
    ~sizes:(Sweep.sizes ~from:(Sweep.kib 2.) ~upto:(Sweep.mib 32.))
    ()

(* ------------------------------------------------------------------ *)
(* Fig. 8c/8d: hierarchical AllReduce on two nodes                     *)
(* ------------------------------------------------------------------ *)

let allreduce_two_node ~fig_id ~title ~topo ~sizes () =
  let nodes = T.Topology.num_nodes topo in
  let g = T.Topology.gpus_per_node topo in
  let nccl = B.Nccl_model.allreduce topo in
  let composed = B.Nccl_composed.time topo in
  let baseline = List.map (fun buffer_bytes -> nccl ~buffer_bytes) sizes in
  let hier r proto =
    let ir =
      A.Hierarchical_allreduce.ir ~proto ~instances:r ~nodes ~gpus_per_node:g
        ()
    in
    Report.speedup_series
      ~label:(Printf.sprintf "Hierarchical %s r=%d" (T.Protocol.name proto) r)
      ~baseline
      (times ~max_tiles:16 topo ir sizes)
  in
  {
    Report.fig_id;
    title;
    ylabel = "speedup over NCCL";
    sizes;
    series =
      [
        hier 1 T.Protocol.LL;
        hier 2 T.Protocol.LL128;
        (* The paper's Simple configuration uses r=4; in this cost model
           saturating the NVLink egress at the largest sizes takes r=8
           (see EXPERIMENTS.md). *)
        hier 8 T.Protocol.Simple;
        Report.speedup_series ~label:"NCCL composed" ~baseline
          (List.map (fun buffer_bytes -> composed ~buffer_bytes) sizes);
      ];
  }

let fig8c () =
  allreduce_two_node ~fig_id:"fig8c" ~title:"2-node 16xA100 AllReduce"
    ~topo:(T.Presets.ndv4 ~nodes:2)
    ~sizes:(Sweep.sizes_coarse ~from:(Sweep.kib 1.) ~upto:(Sweep.gib 4.))
    ()

let fig8d () =
  allreduce_two_node ~fig_id:"fig8d" ~title:"2-node 32xV100 AllReduce"
    ~topo:(T.Presets.dgx2 ~nodes:2)
    ~sizes:(Sweep.sizes_coarse ~from:(Sweep.kib 1.) ~upto:(Sweep.gib 4.))
    ()

(* ------------------------------------------------------------------ *)
(* Fig. 8e/8f: Two-Step AllToAll                                       *)
(* ------------------------------------------------------------------ *)

let alltoall_fig ~fig_id ~title ~topo ~sizes () =
  let nodes = T.Topology.num_nodes topo in
  let g = T.Topology.gpus_per_node topo in
  let cuda = B.Cuda_two_step.time topo in
  let nccl = B.Nccl_model.alltoall topo in
  let baseline = List.map (fun buffer_bytes -> cuda ~buffer_bytes) sizes in
  let two_step proto =
    let ir =
      A.Two_step_alltoall.ir ~proto ~verify:false ~nodes ~gpus_per_node:g ()
    in
    Report.speedup_series
      ~label:(Printf.sprintf "Two-Step %s" (T.Protocol.name proto))
      ~baseline
      (times ~occupancy:false topo ir sizes)
  in
  {
    Report.fig_id;
    title;
    ylabel = "speedup over CUDA Two-Step";
    sizes;
    series =
      [
        two_step T.Protocol.LL128;
        two_step T.Protocol.Simple;
        Report.speedup_series ~label:"NCCL" ~baseline
          (List.map (fun buffer_bytes -> nccl ~buffer_bytes) sizes);
      ];
  }

let fig8e () =
  alltoall_fig ~fig_id:"fig8e" ~title:"256xA100 AllToAll (32 NDv4 nodes)"
    ~topo:(T.Presets.ndv4 ~nodes:32)
    ~sizes:(Sweep.sizes_coarse ~from:(Sweep.kib 256.) ~upto:(Sweep.gib 4.))
    ()

let fig8f () =
  alltoall_fig ~fig_id:"fig8f" ~title:"4-node 64xV100 AllToAll"
    ~topo:(T.Presets.dgx2 ~nodes:4)
    ~sizes:(Sweep.sizes_coarse ~from:(Sweep.mib 1.) ~upto:(Sweep.gib 4.))
    ()

(* ------------------------------------------------------------------ *)
(* Fig. 8g/8h: AllToNext                                               *)
(* ------------------------------------------------------------------ *)

let alltonext_fig ~fig_id ~title ~topo ~rs ~sizes () =
  let nodes = T.Topology.num_nodes topo in
  let g = T.Topology.gpus_per_node topo in
  let cuda = B.Nccl_model.send_next topo in
  let baseline = List.map (fun buffer_bytes -> cuda ~buffer_bytes) sizes in
  let variant r =
    let ir =
      A.Alltonext.ir ~proto:T.Protocol.Simple ~instances:r ~verify:false
        ~nodes ~gpus_per_node:g ()
    in
    (* High parallelization factors exceed the resident-thread-block SM
       budget; NCCL-style time-sharing is assumed (see EXPERIMENTS.md). *)
    Report.speedup_series
      ~label:(Printf.sprintf "AllToNext r=%d" r)
      ~baseline
      (times ~occupancy:false ~max_tiles:8 topo ir sizes)
  in
  {
    Report.fig_id;
    title;
    ylabel = "speedup over CUDA P2P";
    sizes;
    series = List.map variant rs;
  }

let fig8g () =
  alltonext_fig ~fig_id:"fig8g" ~title:"3-node 24xA100 AllToNext"
    ~topo:(T.Presets.ndv4 ~nodes:3)
    ~rs:[ 4; 8; 16 ]
    ~sizes:(Sweep.sizes ~from:(Sweep.kib 4.) ~upto:(Sweep.mib 256.))
    ()

let fig8h () =
  alltonext_fig ~fig_id:"fig8h" ~title:"4-node 64xV100 AllToNext"
    ~topo:(T.Presets.dgx2 ~nodes:4)
    ~rs:[ 2; 4; 8 ]
    ~sizes:(Sweep.sizes ~from:(Sweep.kib 4.) ~upto:(Sweep.mib 256.))
    ()

(* ------------------------------------------------------------------ *)
(* Fig. 11: SCCL comparison                                            *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  let topo = T.Presets.dgx1 () in
  let sizes = Sweep.sizes_coarse ~from:(Sweep.kib 32.) ~upto:(Sweep.gib 1.) in
  let sccl_ir = A.Allgather_sccl.ir ~proto:T.Protocol.Sccl () in
  let sccl ~buffer_bytes = sim ~max_tiles:64 topo sccl_ir ~buffer_bytes in
  let mscclang proto =
    let ir = A.Allgather_sccl.ir ~proto () in
    {
      Report.label = Printf.sprintf "MSCCLang %s (1,2,2)" (T.Protocol.name proto);
      values =
        List.map
          (fun buffer_bytes ->
            sim ~max_tiles:64 topo ir ~buffer_bytes *. 1e6)
          sizes;
    }
  in
  {
    Report.fig_id = "fig11";
    title = "(1,2,2) AllGather on DGX-1 8xV100";
    ylabel = "latency (us)";
    sizes;
    series =
      [
        {
          Report.label = "SCCL (1,2,2)";
          values =
            List.map (fun buffer_bytes -> sccl ~buffer_bytes *. 1e6) sizes;
        };
        mscclang T.Protocol.Simple;
        mscclang T.Protocol.LL;
      ];
  }

let all =
  [
    ("fig8a", fig8a); ("fig8b", fig8b); ("fig8c", fig8c); ("fig8d", fig8d);
    ("fig8e", fig8e); ("fig8f", fig8f); ("fig8g", fig8g); ("fig8h", fig8h);
    ("fig11", fig11);
  ]

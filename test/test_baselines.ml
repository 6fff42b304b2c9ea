(* Baseline model tests: the NCCL/CUDA/SCCL comparators behave the way the
   paper's measurements say they do. *)

module T = Msccl_topology
module B = Msccl_baselines
module A = Msccl_algorithms
open Msccl_core

let test_protocol_thresholds () =
  Alcotest.(check bool) "tiny -> LL" true
    (B.Nccl_model.protocol_for_size ~bytes:4096. = T.Protocol.LL);
  Alcotest.(check bool) "mid -> LL128" true
    (B.Nccl_model.protocol_for_size ~bytes:262144. = T.Protocol.LL128);
  Alcotest.(check bool) "big -> Simple" true
    (B.Nccl_model.protocol_for_size ~bytes:1.e9 = T.Protocol.Simple)

let test_nccl_allreduce_sane () =
  let topo = T.Presets.ndv4 ~nodes:1 in
  let nccl = B.Nccl_model.allreduce topo in
  let t_small = nccl ~buffer_bytes:8192. in
  let t_big = nccl ~buffer_bytes:268435456. in
  Alcotest.(check bool) "positive" true (t_small > 0.);
  Alcotest.(check bool) "monotone" true (t_big > t_small);
  (* Large 256MB allreduce on 8xA100 should land in a plausible band
     (NCCL measures ~2-4ms). *)
  Alcotest.(check bool) "large time plausible" true
    (t_big > 1e-3 && t_big < 2e-2)

let test_nccl_ring_rotation_verifies () =
  (* The multi-node NCCL ring model is itself a correct allreduce. *)
  let topo = T.Presets.hierarchical ~nodes:2 ~gpus_per_node:3 () in
  ignore topo;
  let rings =
    Array.init 3 (fun k ->
        List.concat_map
          (fun node -> List.init 3 (fun i -> (node * 3) + ((i + k) mod 3)))
          [ 0; 1 ])
  in
  Testutil.check_verified "nccl rings" (A.Ring_allreduce.ir_multi ~rings ())

let test_two_step_story () =
  (* §7.3's qualitative claims on a scaled-down 4-node system:
     - Two-Step beats NCCL's naive AllToAll at mid sizes (IB alpha);
     - at very large sizes the gap narrows or reverses. *)
  let topo = T.Presets.ndv4 ~nodes:4 in
  let nccl = B.Nccl_model.alltoall topo in
  let two_step =
    A.Two_step_alltoall.ir ~proto:T.Protocol.LL128 ~verify:false ~nodes:4
      ~gpus_per_node:8 ()
  in
  let ts ~buffer_bytes =
    (Simulator.run_buffer ~topo ~buffer_bytes ~check_occupancy:false two_step)
      .Simulator.time
  in
  let mid = 1048576. in
  Alcotest.(check bool) "two-step wins mid sizes" true
    (ts ~buffer_bytes:mid < nccl ~buffer_bytes:mid)

let test_cuda_two_step_slower_than_mscclang () =
  (* The hand-written version pays an extra launch + no cross-phase
     pipelining: MSCCLang must win at large sizes (§7.3, up to 1.3x). *)
  let topo = T.Presets.ndv4 ~nodes:4 in
  let cuda = B.Cuda_two_step.time topo in
  let msccl =
    A.Two_step_alltoall.ir ~proto:T.Protocol.Simple ~verify:false ~nodes:4
      ~gpus_per_node:8 ()
  in
  let big = 536870912. in
  let t_msccl =
    (Simulator.run_buffer ~topo ~buffer_bytes:big ~check_occupancy:false msccl)
      .Simulator.time
  in
  Alcotest.(check bool) "MSCCLang faster than CUDA at 512MB" true
    (t_msccl < cuda ~buffer_bytes:big)

let test_alltonext_story () =
  (* §7.4: naive loses at large sizes, wins at tiny ones. *)
  let topo = T.Presets.ndv4 ~nodes:2 in
  let cuda = B.Nccl_model.send_next topo in
  let fancy =
    A.Alltonext.ir ~proto:T.Protocol.Simple ~instances:8 ~verify:false
      ~nodes:2 ~gpus_per_node:8 ()
  in
  let t ~buffer_bytes =
    (Simulator.run_buffer ~topo ~buffer_bytes ~max_tiles:8
       ~check_occupancy:false fancy)
      .Simulator.time
  in
  Alcotest.(check bool) "naive wins at 16KB" true
    (cuda ~buffer_bytes:16384. < t ~buffer_bytes:16384.);
  Alcotest.(check bool) "alltonext wins at 128MB by >3x" true
    (cuda ~buffer_bytes:134217728. > 3. *. t ~buffer_bytes:134217728.)

let test_sccl_runtime_story () =
  (* §7.5: SCCL beats MSCCLang-Simple at middle sizes; MSCCLang-LL is
     competitive at small sizes. *)
  let topo = T.Presets.dgx1 () in
  let sccl = B.Sccl_runtime.allgather_122 topo in
  let simple = A.Allgather_sccl.ir ~proto:T.Protocol.Simple () in
  let ll = A.Allgather_sccl.ir ~proto:T.Protocol.LL () in
  let t ir ~buffer_bytes =
    (Simulator.run_buffer ~topo ~buffer_bytes ir).Simulator.time
  in
  let mid = 2097152. in
  Alcotest.(check bool) "SCCL beats Simple at 2MB" true
    (sccl ~buffer_bytes:mid < t simple ~buffer_bytes:mid);
  let small = 32768. in
  Alcotest.(check bool) "LL beats Simple at 32KB" true
    (t ll ~buffer_bytes:small < t simple ~buffer_bytes:small);
  let big = 268435456. in
  Alcotest.(check bool) "LL worst at 256MB" true
    (t ll ~buffer_bytes:big > t simple ~buffer_bytes:big)

let test_composed_slower_than_single_kernel () =
  (* §7.2: composing NCCL collectives loses to the single MSCCLang kernel
     (launch overheads + no pipelining). *)
  let topo = T.Presets.ndv4 ~nodes:2 in
  let composed = B.Nccl_composed.time topo in
  let single =
    Instances.blocked
      (A.Hierarchical_allreduce.ir ~proto:T.Protocol.Simple ~verify:false
         ~nodes:2 ~gpus_per_node:8 ())
      ~instances:4
  in
  let big = 268435456. in
  let t_single =
    (Simulator.run_buffer ~topo ~buffer_bytes:big ~max_tiles:16 single)
      .Simulator.time
  in
  Alcotest.(check bool) "single kernel wins at 256MB" true
    (t_single < composed ~buffer_bytes:big)

let () =
  Alcotest.run "baselines"
    [
      ( "nccl",
        [
          Testutil.tc "protocol thresholds" test_protocol_thresholds;
          Testutil.tc "allreduce sane" test_nccl_allreduce_sane;
          Testutil.tc "ring rotation verifies" test_nccl_ring_rotation_verifies;
        ] );
      ( "paper stories",
        [
          Testutil.tc "two-step vs NCCL" test_two_step_story;
          Testutil.tc "MSCCLang vs CUDA two-step"
            test_cuda_two_step_slower_than_mscclang;
          Testutil.tc "alltonext" test_alltonext_story;
          Testutil.tc "SCCL runtime" test_sccl_runtime_story;
          Testutil.tc "composed kernels" test_composed_slower_than_single_kernel;
        ] );
    ]

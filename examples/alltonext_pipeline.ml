(* AllToNext (§7.4): a custom collective for pipeline-parallel workloads
   where GPU i streams activations to GPU i+1. The naive implementation
   bottlenecks on a single InfiniBand NIC at each node boundary; AllToNext
   scatters across the node so every NIC carries 1/G of the buffer.

   This example also validates the algorithm numerically: after execution,
   each rank's output must equal its predecessor's input.

     dune exec examples/alltonext_pipeline.exe *)

open Msccl_core
module T = Msccl_topology
module A = Msccl_algorithms
module B = Msccl_baselines
module H = Msccl_harness

let () =
  let nodes = 3 and gpus_per_node = 8 in
  let topo = T.Presets.ndv4 ~nodes in

  (* Correctness on real data first. *)
  let small = A.Alltonext.ir ~nodes:2 ~gpus_per_node:4 () in
  let st = Executor.Data.run_random ~elems_per_chunk:2 ~seed:9 small in
  let ok = ref true in
  for rank = 0 to Ir.num_ranks small - 1 do
    Array.iteri
      (fun index v ->
        match
          (v, Executor.Data.reference ~elems_per_chunk:2 ~seed:9 small ~rank ~index)
        with
        | Some got, Some want -> if got <> want then ok := false
        | None, Some _ -> ok := false
        | (Some _ | None), None -> ())
      (Executor.Data.output st ~rank)
  done;
  Printf.printf "numeric check (2x4 GPUs): %s\n\n" (if !ok then "OK" else "WRONG");

  (* Performance vs the naive point-to-point baseline. *)
  let cuda = B.Nccl_model.send_next topo in
  let variants =
    List.map
      (fun r ->
        ( r,
          A.Alltonext.ir ~proto:T.Protocol.Simple ~instances:r ~verify:false
            ~nodes ~gpus_per_node () ))
      [ 1; 4; 16 ]
  in
  Printf.printf "AllToNext on %s (speedup over naive P2P):\n\n"
    (T.Topology.name topo);
  Printf.printf "%10s | %10s" "size" "naive us";
  List.iter (fun (r, _) -> Printf.printf " | %8s" (Printf.sprintf "r=%d" r)) variants;
  print_newline ();
  List.iter
    (fun buffer_bytes ->
      let base = cuda ~buffer_bytes in
      Printf.printf "%10s | %10.1f" (H.Sweep.pretty buffer_bytes) (base *. 1e6);
      List.iter
        (fun (_, ir) ->
          let t =
            (Simulator.run_buffer ~topo ~buffer_bytes ~max_tiles:8
               ~check_occupancy:false ir)
              .Simulator.time
          in
          Printf.printf " | %7.2fx" (base /. t))
        variants;
      print_newline ())
    (H.Sweep.sizes_coarse ~from:(H.Sweep.kib 16.) ~upto:(H.Sweep.mib 256.));
  print_newline ();
  print_endline
    "Small buffers: the extra scatter/gather hops cost more than they save.\n\
     Large buffers: all 8 NICs per node carry traffic, up to ~14x faster."

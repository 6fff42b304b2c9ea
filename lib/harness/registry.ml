module T = Msccl_topology
module A = Msccl_algorithms

type params = {
  nodes : int;
  gpus_per_node : int;
  channels : int;
  instances : int;
  proto : T.Protocol.t;
  chunk_factor : int;
  verify : bool;
}

let default_params =
  {
    nodes = 1;
    gpus_per_node = 8;
    channels = 1;
    instances = 1;
    proto = T.Protocol.Simple;
    chunk_factor = 1;
    verify = true;
  }

(* The raw ingredients of a symmetry-aware compile: what
   [Msccl_analysis.Sym_compile.compile] needs to trace only the
   representative slice. Kept as data so the registry stays free of any
   analysis dependency. *)
type sym_case = {
  sym_coll : Msccl_core.Collective.t;
  sym_program : Msccl_core.Program.t -> unit;
  sym_hint : Msccl_core.Sym_hint.t;
}

type spec = {
  name : string;
  doc : string;
  build : params -> Msccl_core.Ir.t;
  sym : (params -> sym_case) option;
      (** Present for algorithms that declare a rank-symmetry hint. The
          case's program and collective match [build] for the same
          params, so a symmetry-aware compile of the case is certified
          (and, differentially, byte-identical) against [build]'s IR. *)
}

let ranks p = p.nodes * p.gpus_per_node

let no_sym = None

module C = Msccl_core.Collective

let allreduce_coll p =
  C.make C.Allreduce ~num_ranks:(ranks p) ~chunk_factor:(ranks p)
    ~inplace:true ()

let all =
  [
    {
      name = "ring-allreduce";
      doc = "Ring AllReduce; supports channels and instances (§7.1.1)";
      build =
        (fun p ->
          A.Ring_allreduce.ir ~proto:p.proto ~channels:p.channels
            ~instances:p.instances ~verify:p.verify ~num_ranks:(ranks p) ());
      sym =
        Some
          (fun p ->
            {
              sym_coll = allreduce_coll p;
              sym_program =
                A.Ring_allreduce.program ~num_ranks:(ranks p)
                  ~channels:p.channels;
              sym_hint =
                A.Ring_allreduce.hint ~num_ranks:(ranks p)
                  ~channels:p.channels;
            });
    };
    {
      name = "allpairs-allreduce";
      doc = "All Pairs AllReduce for small buffers (§7.1.2)";
      build =
        (fun p ->
          A.Allpairs_allreduce.ir ~proto:p.proto ~instances:p.instances
            ~verify:p.verify ~num_ranks:(ranks p) ());
      sym =
        Some
          (fun p ->
            {
              sym_coll = allreduce_coll p;
              sym_program = A.Allpairs_allreduce.program ~num_ranks:(ranks p);
              sym_hint = A.Allpairs_allreduce.hint ~num_ranks:(ranks p);
            });
    };
    {
      name = "hierarchical-allreduce";
      doc = "Four-phase hierarchical AllReduce (§2, §7.2)";
      build =
        (fun p ->
          A.Hierarchical_allreduce.ir ~proto:p.proto ~instances:p.instances
            ~verify:p.verify ~nodes:p.nodes ~gpus_per_node:p.gpus_per_node ());
      sym = no_sym;
    };
    {
      name = "two-step-alltoall";
      doc = "AllToAll with aggregated cross-node IB sends (§7.3)";
      build =
        (fun p ->
          A.Two_step_alltoall.ir ~proto:p.proto ~instances:p.instances
            ~verify:p.verify ~nodes:p.nodes ~gpus_per_node:p.gpus_per_node ());
      sym = no_sym;
    };
    {
      name = "naive-alltoall";
      doc = "One-step grouped point-to-point AllToAll (NCCL-style)";
      build =
        (fun p ->
          A.Alltoall_naive.ir ~proto:p.proto ~instances:p.instances
            ~verify:p.verify ~num_ranks:(ranks p) ());
      sym = no_sym;
    };
    {
      name = "alltonext";
      doc = "Custom AllToNext using every IB NIC at node boundaries (§7.4)";
      build =
        (fun p ->
          A.Alltonext.ir ~proto:p.proto ~instances:p.instances
            ~verify:p.verify ~nodes:p.nodes ~gpus_per_node:p.gpus_per_node ());
      sym = no_sym;
    };
    {
      name = "ring-allgather";
      doc = "Out-of-place Ring AllGather";
      build =
        (fun p ->
          A.Allgather_ring.ir ~proto:p.proto ~channels:p.channels
            ~chunk_factor:p.chunk_factor ~instances:p.instances
            ~verify:p.verify ~num_ranks:(ranks p) ());
      sym =
        Some
          (fun p ->
            {
              sym_coll =
                C.make C.Allgather ~num_ranks:(ranks p)
                  ~chunk_factor:p.chunk_factor ();
              sym_program =
                A.Allgather_ring.program ~num_ranks:(ranks p)
                  ~chunk_factor:p.chunk_factor ~channels:p.channels;
              sym_hint =
                A.Allgather_ring.hint ~num_ranks:(ranks p)
                  ~chunk_factor:p.chunk_factor ~channels:p.channels;
            });
    };
    {
      name = "ring-reducescatter";
      doc = "Out-of-place Ring ReduceScatter";
      build =
        (fun p ->
          A.Reduce_scatter_ring.ir ~proto:p.proto ~channels:p.channels
            ~chunk_factor:p.chunk_factor ~instances:p.instances
            ~verify:p.verify ~num_ranks:(ranks p) ());
      sym =
        Some
          (fun p ->
            {
              sym_coll =
                C.make C.Reduce_scatter ~num_ranks:(ranks p)
                  ~chunk_factor:p.chunk_factor ();
              sym_program =
                A.Reduce_scatter_ring.program ~num_ranks:(ranks p)
                  ~chunk_factor:p.chunk_factor ~channels:p.channels;
              sym_hint =
                A.Reduce_scatter_ring.hint ~num_ranks:(ranks p)
                  ~chunk_factor:p.chunk_factor ~channels:p.channels;
            });
    };
    {
      name = "ring-broadcast";
      doc = "Pipelined Ring Broadcast from rank 0";
      build =
        (fun p ->
          A.Broadcast_ring.ir ~proto:p.proto ~channels:p.channels
            ~chunk_factor:p.chunk_factor ~instances:p.instances
            ~verify:p.verify ~num_ranks:(ranks p) ~root:0 ());
      sym = no_sym;
    };
    {
      name = "tree-allreduce";
      doc = "Binary-tree AllReduce (NCCL's small-buffer algorithm)";
      build =
        (fun p ->
          A.Tree_allreduce.ir ~proto:p.proto ~channels:p.channels
            ~chunk_factor:p.chunk_factor ~instances:p.instances
            ~verify:p.verify ~num_ranks:(ranks p) ());
      sym = no_sym;
    };
    {
      name = "halving-doubling";
      doc = "Recursive halving-doubling AllReduce (power-of-two ranks)";
      build =
        (fun p ->
          A.Halving_doubling.ir ~proto:p.proto ~instances:p.instances
            ~verify:p.verify ~num_ranks:(ranks p) ());
      sym = no_sym;
    };
    {
      name = "recursive-doubling-allgather";
      doc = "Recursive-doubling AllGather (power-of-two ranks)";
      build =
        (fun p ->
          A.Recursive_doubling.ir ~proto:p.proto ~instances:p.instances
            ~verify:p.verify ~num_ranks:(ranks p) ());
      sym = no_sym;
    };
    {
      name = "double-binary-tree";
      doc = "Double binary tree AllReduce (NCCL's Tree algorithm)";
      build =
        (fun p ->
          A.Double_binary_tree.ir ~proto:p.proto ~instances:p.instances
            ~chunks_per_tree:p.chunk_factor ~verify:p.verify
            ~num_ranks:(ranks p) ());
      sym = no_sym;
    };
    {
      name = "hierarchical-allgather";
      doc = "Intra-node then inter-node ring AllGather with aggregated blocks";
      build =
        (fun p ->
          A.Hierarchical_allgather.ir ~proto:p.proto ~instances:p.instances
            ~verify:p.verify ~nodes:p.nodes ~gpus_per_node:p.gpus_per_node ());
      sym = no_sym;
    };
    {
      name = "synth-allgather";
      doc = "AllGather synthesized from the DGX-1 NVLink graph (SCCL-style)";
      build =
        (fun p ->
          A.Synthesis.allgather ~proto:p.proto ~instances:p.instances
            ~verify:p.verify ~num_ranks:8
            ~connected:T.Presets.dgx1_connected
            ~link_count:T.Presets.dgx1_nvlink_count ());
      sym = no_sym;
    };
    {
      name = "sccl-allgather";
      doc = "SCCL's (1,2,2) AllGather for DGX-1 (§7.5); always 8 ranks";
      build =
        (fun p ->
          A.Allgather_sccl.ir ~proto:p.proto ~instances:p.instances
            ~verify:p.verify ());
      sym = no_sym;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

let names () = List.map (fun s -> s.name) all

let parse_topology s =
  match String.split_on_char ':' s with
  | [ "dgx1" ] -> Ok (T.Presets.dgx1 ())
  | [ "ndv4"; n ] | [ "ndv4"; n; "" ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> Ok (T.Presets.ndv4 ~nodes:n)
      | Some _ | None -> Error "ndv4:<nodes> needs a positive node count")
  | [ "dgx2"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> Ok (T.Presets.dgx2 ~nodes:n)
      | Some _ | None -> Error "dgx2:<nodes> needs a positive node count")
  | [ "custom"; n; g ] -> (
      match (int_of_string_opt n, int_of_string_opt g) with
      | Some n, Some g when n > 0 && g > 0 ->
          Ok (T.Presets.hierarchical ~nodes:n ~gpus_per_node:g ())
      | _ -> Error "custom:<nodes>:<gpus> needs positive counts")
  | _ ->
      Error
        (Printf.sprintf
           "unknown topology %S (expected ndv4:<n>, dgx2:<n>, dgx1, or \
            custom:<n>:<g>)"
           s)

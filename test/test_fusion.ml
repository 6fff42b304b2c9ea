(* Instruction fusion tests (paper §4.3): rcs, rrcs, rrs rewrites. *)

open Msccl_core

let coll ?(ranks = 4) ?(c = 2) ?(inplace = false) () =
  Collective.make Collective.Allreduce ~num_ranks:ranks ~chunk_factor:c
    ~inplace ()

let lower ?coll:(c = coll ()) f =
  Instr_dag.of_chunk_dag (Program.trace c f)

let ops dag = List.map (fun (i : Instr.t) -> i.Instr.op) (Instr_dag.live dag)

(* recv + forward = rcs *)
let forwarding_chain p =
  let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
  let c = Program.copy c ~rank:1 Buffer_id.Scratch ~index:0 () in
  ignore (Program.copy c ~rank:2 Buffer_id.Scratch ~index:0 ())

let test_rcs () =
  let dag = lower forwarding_chain in
  let n = Fusion.fuse_rcs dag in
  Alcotest.(check int) "one rcs" 1 n;
  Alcotest.(check (list bool)) "send, rcs, recv"
    [ true; true; true ]
    (List.map2 ( = ) (ops dag)
       [ Instr.Send; Instr.Recv_copy_send; Instr.Recv ]);
  Instr_dag.validate dag

(* rrc + forward = rrcs; result still read locally so no rrs *)
let test_rrcs_kept () =
  let dag =
    lower (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let own = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        let red = Program.reduce own c () in
        (* forward the reduction... *)
        ignore (Program.copy red ~rank:2 Buffer_id.Scratch ~index:0 ());
        (* ...and also read it locally afterwards *)
        let again = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        ignore (Program.copy again ~rank:1 Buffer_id.Scratch ~index:0 ()))
  in
  let stats = Fusion.fuse dag in
  Alcotest.(check int) "one rrcs" 1 stats.Fusion.rrcs;
  Alcotest.(check int) "no rrs (result is read)" 0 stats.Fusion.rrs;
  Instr_dag.validate dag

(* In a ring ReduceScatter middle hop, the rrcs result is never used
   locally again... except by the final AllGather overwrite, so it becomes
   an rrs. *)
let test_rrs_in_ring () =
  let c = coll ~ranks:4 ~c:4 ~inplace:true () in
  let dag =
    lower ~coll:c (fun p ->
        Msccl_algorithms.Patterns.ring_reduce_scatter p
          ~ranks:[ 0; 1; 2; 3 ] ~offset:0 ~count:1 ();
        Msccl_algorithms.Patterns.ring_all_gather p ~ranks:[ 0; 1; 2; 3 ]
          ~offset:0 ~count:1 ())
  in
  let stats = Fusion.fuse dag in
  Alcotest.(check bool) "rrs fired" true (stats.Fusion.rrs > 0);
  Alcotest.(check bool) "rcs fired" true (stats.Fusion.rcs > 0);
  Instr_dag.validate dag

let test_no_fusion_across_channels () =
  let dag =
    lower (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let c = Program.copy c ~rank:1 Buffer_id.Scratch ~index:0 ~ch:0 () in
        ignore (Program.copy c ~rank:2 Buffer_id.Scratch ~index:0 ~ch:1 ()))
  in
  Alcotest.(check int) "different channels do not fuse" 0 (Fusion.fuse_rcs dag)

let test_longest_path_send_chosen () =
  (* Two sends depend on one receive; the one with further downstream work
     must be the fused one. *)
  let dag =
    lower (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let c = Program.copy c ~rank:1 Buffer_id.Scratch ~index:0 () in
        (* short branch *)
        ignore (Program.copy c ~rank:3 Buffer_id.Scratch ~index:0 ());
        (* long branch: 2 -> onward to 3's other slot *)
        let d = Program.copy c ~rank:2 Buffer_id.Scratch ~index:0 () in
        ignore (Program.copy d ~rank:3 Buffer_id.Scratch ~index:1 ()))
  in
  let n = Fusion.fuse_rcs dag in
  Alcotest.(check bool) "fused once here" true (n >= 1);
  (* The fused instruction at rank 1 must send to rank 2 (the long branch),
     leaving a plain send to rank 3. *)
  let fused =
    List.find
      (fun (i : Instr.t) -> i.Instr.op = Instr.Recv_copy_send)
      (Instr_dag.live dag)
  in
  Alcotest.(check (option int)) "long branch fused" (Some 2)
    fused.Instr.send_peer;
  Instr_dag.validate dag

(* Rank 0 reduces input[0..1] into rank 1's; rank 1 then copies its
   input[2] over input[0] and sends input[0..1] on to rank 2. The send
   reads the copy's chunk, so it must not fuse with the receive (it once
   did, and the merged dependencies made a cycle). *)
let overwritten_between p =
  let mine = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 ~count:2 () in
  let theirs = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 ~count:2 () in
  ignore (Program.reduce mine theirs ());
  let c = Program.chunk p ~rank:1 Buffer_id.Input ~index:2 () in
  ignore (Program.copy c ~rank:1 Buffer_id.Input ~index:0 ());
  let c = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 ~count:2 () in
  ignore (Program.copy c ~rank:2 Buffer_id.Scratch ~index:0 ())

let test_overwrite_blocks_fusion () =
  let c = coll ~ranks:3 ~c:3 () in
  let dag = lower ~coll:c overwritten_between in
  Alcotest.(check int) "no rrcs" 0 (Fusion.fuse dag).Fusion.rrcs;
  Instr_dag.validate dag;
  let mk fuse =
    (Compile.compile_dag ~fuse ~verify:false (Program.trace c overwritten_between))
      .Compile.ir
  in
  let fused = mk true in
  Ir.validate fused;
  Alcotest.(check bool) "deadlock-free" true
    (Verify.check_deadlock_free fused = Ok ());
  Alcotest.(check bool) "same symbolic result" true
    (Testutil.symbolic_states_equal (mk false) fused)

(* Fusion must never change program semantics. *)
let semantics_preserved name build =
  Testutil.tc name (fun () ->
      let mk fuse = (Compile.compile_dag ~fuse ~verify:false build).Compile.ir in
      let unfused = mk false and fused = mk true in
      Alcotest.(check bool) "same symbolic result" true
        (Testutil.symbolic_states_equal unfused fused))

let ring_dag =
  Program.trace
    (coll ~ranks:4 ~c:4 ~inplace:true ())
    (fun p ->
      Msccl_algorithms.Patterns.ring_reduce_scatter p ~ranks:[ 0; 1; 2; 3 ]
        ~offset:0 ~count:1 ();
      Msccl_algorithms.Patterns.ring_all_gather p ~ranks:[ 0; 1; 2; 3 ]
        ~offset:0 ~count:1 ())

let broadcast_dag =
  Program.trace
    (Collective.make (Collective.Broadcast 0) ~num_ranks:5 ~chunk_factor:2 ())
    (Msccl_algorithms.Broadcast_ring.program ~num_ranks:5 ~root:0
       ~chunk_factor:2 ~channels:1)

(* ------------------------------------------------------------------ *)
(* Differential: tracing, lowering and fusion against their reference  *)
(* ------------------------------------------------------------------ *)

module Q = QCheck

(* [Program.trace]'s dependency sets against the reference tracer rule,
   then lowering and fusion against [Lower_ref], field for field, with
   equal fusion counts. *)
let agrees_with_reference (dag : Chunk_dag.t) =
  let deps_ok =
    Array.for_all2
      (fun (n : Chunk_dag.node) d -> n.Chunk_dag.deps = d)
      dag.Chunk_dag.nodes (Lower_ref.chunk_deps dag)
  in
  let a = Instr_dag.of_chunk_dag dag and b = Lower_ref.of_chunk_dag dag in
  let lowered_ok = a.Instr_dag.instrs = b.Instr_dag.instrs in
  let sa = Fusion.fuse a and sb = Lower_ref.fuse b in
  deps_ok && lowered_ok && sa = sb && a.Instr_dag.instrs = b.Instr_dag.instrs

let prop_reference_fuzz_cases =
  let module C = Msccl_fuzz.Case in
  let print seed =
    let c = Msccl_fuzz.Fuzz.generate ~seed ~index:0 in
    Printf.sprintf "%s seed=%d" (C.describe c) seed
  in
  Testutil.qtest ~count:200 "fuzz cases: lowering and fusion = reference"
    (Q.make ~print Q.Gen.(int_bound 10_000))
    (fun seed ->
      let c = Msccl_fuzz.Fuzz.generate ~seed ~index:0 in
      agrees_with_reference (Program.trace (C.collective c) (C.program c)))

let prop_reference_random_routing =
  let print (seed, channels) =
    Printf.sprintf "seed=%d channels=%d" seed channels
  in
  Testutil.qtest ~count:300 "random routings: lowering and fusion = reference"
    (Q.make ~print Q.Gen.(pair (int_bound 100_000) (int_range 0 4)))
    (fun (seed, channels) ->
      let channels = if channels = 0 then None else Some channels in
      agrees_with_reference (Testutil.Random_routing.dag ?channels seed))

(* A dependent the rrs pass finds only in the absorbed send's row. Rank
   1 reduces rank 0's chunk into its input (the rrc [r]), forwards the
   sum to rank 2 (the send [s]) and then receives rank 2's input over it
   (the receive [j]). Lowering gives [j] both [r] and [s] as
   dependencies; dropping [r], which [s] already orders before [j], puts
   [j] in [s]'s successor row only, as in a transitively reduced DAG.
   Fusion turns [r] and [s] into an rrcs, and [j], now a dependent of
   the rrcs, overwrites its whole result, which nothing reads: an rrs.
   Two copies are lowered and edited alike, one fused by [Fusion], the
   other by [Lower_ref]. *)
let test_reference_absorbed_row () =
  let c = coll ~ranks:3 ~c:1 () in
  let build () =
    let dag =
      lower ~coll:c (fun p ->
          let theirs = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
          let own = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
          let sum = Program.reduce own theirs () in
          ignore (Program.copy sum ~rank:2 Buffer_id.Scratch ~index:0 ());
          let other = Program.chunk p ~rank:2 Buffer_id.Input ~index:0 () in
          ignore (Program.copy other ~rank:1 Buffer_id.Input ~index:0 ()))
    in
    let on_rank1 op =
      List.find
        (fun (i : Instr.t) -> i.Instr.rank = 1 && i.Instr.op = op)
        (Instr_dag.live dag)
    in
    let r = on_rank1 Instr.Recv_reduce_copy
    and s = on_rank1 Instr.Send
    and j = on_rank1 Instr.Recv in
    Alcotest.(check (list int)) "j depends on r and s"
      [ r.Instr.id; s.Instr.id ] j.Instr.deps;
    j.Instr.deps <- [ s.Instr.id ];
    Instr_dag.validate dag;
    dag
  in
  let a = build () and b = build () in
  let sa = Fusion.fuse a and sb = Lower_ref.fuse b in
  Alcotest.(check (list int)) "rcs, rrcs, rrs" [ 0; 1; 1 ]
    [ sa.Fusion.rcs; sa.Fusion.rrcs; sa.Fusion.rrs ];
  Alcotest.(check bool) "same stats as the reference" true (sa = sb);
  Alcotest.(check bool) "same instructions as the reference" true
    (a.Instr_dag.instrs = b.Instr_dag.instrs);
  Instr_dag.validate a

(* Every registry shape: [Testutil.registry_dag] compiles to the
   registry's own IR, and its lowering and fusion match the reference. *)
let test_reference_registry () =
  List.iter
    (fun ((_, _, _, instances, proto) as shape) ->
      let label = Testutil.shape_label shape in
      let dag = Testutil.registry_dag shape in
      let ir =
        (Compile.compile_dag ~instances
           ~proto:(Option.get (Msccl_topology.Protocol.of_string proto))
           ~verify:false dag)
          .Compile.ir
      in
      Alcotest.(check string)
        (label ^ ": registry_dag is the registry's program")
        (Xml.to_string (Testutil.registry_ir shape))
        (Xml.to_string ir);
      Alcotest.(check bool) (label ^ " = reference") true
        (agrees_with_reference dag))
    Testutil.registry_shapes

(* The representative slice of every hinted registry shape, traced
   sparsely as [Replicate.run] traces it, and of each hinted algorithm at
   16 nodes, where the slice covers few enough cells that lowering tracks
   them in a table. *)
let test_reference_hint_slices () =
  let module R = Msccl_harness.Registry in
  let at_16_nodes =
    List.filter_map
      (fun (s : R.spec) ->
        Option.map (fun _ -> (s.R.name, 16, 1, 1, "Simple")) s.R.sym)
      R.all
  in
  List.iter
    (fun ((name, nodes, channels, instances, _) as shape) ->
      match (Option.get (R.find name)).R.sym with
      | None -> ()
      | Some sym ->
          let case = sym { R.default_params with nodes; channels; instances } in
          let dag =
            Program.trace ~sparse:true case.R.sym_coll
              case.R.sym_hint.Sym_hint.trace_rep
          in
          Alcotest.(check bool)
            (Testutil.shape_label shape ^ " slice = reference")
            true
            (agrees_with_reference dag))
    (Testutil.registry_shapes @ at_16_nodes)

let () =
  Alcotest.run "fusion"
    [
      ( "rewrites",
        [
          Testutil.tc "rcs" test_rcs;
          Testutil.tc "rrcs kept when read" test_rrcs_kept;
          Testutil.tc "rrs in ring" test_rrs_in_ring;
          Testutil.tc "channel mismatch blocks fusion"
            test_no_fusion_across_channels;
          Testutil.tc "longest path send chosen" test_longest_path_send_chosen;
          Testutil.tc "overwrite between receive and send blocks fusion"
            test_overwrite_blocks_fusion;
        ] );
      ( "semantics",
        [
          semantics_preserved "ring allreduce" ring_dag;
          semantics_preserved "broadcast chain" broadcast_dag;
        ] );
      ( "reference",
        [
          prop_reference_fuzz_cases;
          prop_reference_random_routing;
          Testutil.tc "registry shapes" test_reference_registry;
          Testutil.tc "hint slices" test_reference_hint_slices;
          Testutil.tc "dependent in the absorbed row"
            test_reference_absorbed_row;
        ] );
    ]

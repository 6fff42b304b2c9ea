(* Scheduling tests (paper §5): channel assignment, thread-block
   constraints, global topological assignment, FIFO order, cross-TB
   dependencies, slot back-pressure. *)

open Msccl_core
module T = Msccl_topology
module Q = QCheck

let coll ?(ranks = 4) ?(c = 4) ?(inplace = true) () =
  Collective.make Collective.Allreduce ~num_ranks:ranks ~chunk_factor:c
    ~inplace ()

let ring_ir ?proto ?slots ?(fuse = true) () =
  let dag =
    Program.trace (coll ()) (fun p ->
        Msccl_algorithms.Patterns.ring_reduce_scatter p ~ranks:[ 0; 1; 2; 3 ]
          ~offset:0 ~count:1 ();
        Msccl_algorithms.Patterns.ring_all_gather p ~ranks:[ 0; 1; 2; 3 ]
          ~offset:0 ~count:1 ())
  in
  let idag = Instr_dag.of_chunk_dag dag in
  if fuse then ignore (Fusion.fuse idag);
  Schedule.run ?proto ?slots idag

let test_ring_tbs () =
  let ir = ring_ir () in
  Ir.validate ir;
  (* One channel ring: each GPU gets a single thread block owning both the
     send-to-next and recv-from-prev connections. *)
  Alcotest.(check int) "one tb per gpu" 4 (Ir.num_thread_blocks ir);
  Array.iter
    (fun (g : Ir.gpu) ->
      let tb = g.Ir.tbs.(0) in
      Alcotest.(check int) "send peer" ((g.Ir.gpu_id + 1) mod 4) tb.Ir.send;
      Alcotest.(check int) "recv peer" ((g.Ir.gpu_id + 3) mod 4) tb.Ir.recv)
    ir.Ir.gpus

let test_channel_directives () =
  (* Same pair of GPUs, two copies on distinct channels -> two TBs that
     can run in parallel (the §5.1 channel example). *)
  let ir =
    Compile.ir ~verify:false
      (Collective.make Collective.Allgather ~num_ranks:2 ~chunk_factor:2 ())
      (fun p ->
        let a = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        ignore (Program.copy a ~rank:1 Buffer_id.Output ~index:0 ~ch:0 ());
        let b = Program.chunk p ~rank:0 Buffer_id.Input ~index:1 () in
        ignore (Program.copy b ~rank:1 Buffer_id.Output ~index:1 ~ch:1 ()))
  in
  Alcotest.(check int) "two channels" 2 (Ir.num_channels ir);
  Alcotest.(check int) "gpu0 has two send TBs" 2
    (Array.length ir.Ir.gpus.(0).Ir.tbs)

let test_channel_conflict_error () =
  (* Forcing one fused chain onto two different channels must fail. *)
  let dag =
    Program.trace (coll ~ranks:3 ~c:1 ~inplace:false ()) (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let c = Program.copy c ~rank:1 Buffer_id.Scratch ~index:0 ~ch:0 () in
        ignore (Program.copy c ~rank:2 Buffer_id.Scratch ~index:0 ~ch:1 ()))
  in
  let idag = Instr_dag.of_chunk_dag dag in
  (* Fusion declines (channels differ), but the two-recv-conns-per-TB
     constraint is not violated here, so this schedules fine. *)
  ignore (Fusion.fuse idag);
  ignore (Schedule.run idag);
  (* Now force a true conflict: two receive connections into one TB by
     fusing with a shared send connection on the same channel. *)
  let dag2 =
    Program.trace (coll ~ranks:4 ~c:2 ~inplace:false ()) (fun p ->
        (* rank 2 receives from 0 and from 1, each fused with a forward to
           rank 3 on channel 0: both recv conns would join tb(send->3). *)
        let a = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let a = Program.copy a ~rank:2 Buffer_id.Scratch ~index:0 ~ch:0 () in
        ignore (Program.copy a ~rank:3 Buffer_id.Scratch ~index:0 ~ch:0 ());
        let b = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        let b = Program.copy b ~rank:2 Buffer_id.Scratch ~index:1 ~ch:0 () in
        ignore (Program.copy b ~rank:3 Buffer_id.Scratch ~index:1 ~ch:0 ()))
  in
  let idag2 = Instr_dag.of_chunk_dag dag2 in
  ignore (Fusion.fuse idag2);
  match Schedule.run idag2 with
  | exception Schedule.Scheduling_error m ->
      (* Of several conflicting connections, the first conflict in
         endpoint order is named. *)
      Alcotest.(check string) "conflict message"
        "rank 2: a thread block would need two receive connections (from 0 \
         and 1 on channel 0); use channel directives to separate them"
        m
  | _ -> Alcotest.fail "expected Scheduling_error for two recv connections"

let test_cross_tb_deps () =
  let ir =
    Msccl_algorithms.Hierarchical_allreduce.ir ~nodes:2 ~gpus_per_node:2 ()
  in
  Ir.validate ir;
  (* Phases on different channels must synchronize through explicit
     cross-thread-block dependencies. *)
  let found = ref false in
  Ir.iter_steps ir (fun _ _ st -> if st.Ir.depends <> [] then found := true);
  Alcotest.(check bool) "has cross-tb deps" true !found;
  (* And every dependency target is marked has_dep (checked by validate,
     but assert one exists). *)
  let marked = ref false in
  Ir.iter_steps ir (fun _ _ st -> if st.Ir.has_dep then marked := true);
  Alcotest.(check bool) "has_dep marked" true !marked

let test_fifo_order () =
  (* Many transfers over one connection: receive order must equal send
     order, which the executor implicitly checks by matching data. *)
  let ir =
    Compile.ir
      (Collective.make Collective.Allgather ~num_ranks:2 ~chunk_factor:6 ())
      (fun p ->
        for i = 0 to 5 do
          let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:i () in
          ignore (Program.copy c ~rank:0 Buffer_id.Output ~index:i ());
          ignore
            (Program.copy
               (Program.chunk p ~rank:0 Buffer_id.Input ~index:i ())
               ~rank:1 Buffer_id.Output ~index:i ());
          let d = Program.chunk p ~rank:1 Buffer_id.Input ~index:i () in
          ignore (Program.copy d ~rank:1 Buffer_id.Output ~index:(6 + i) ());
          ignore
            (Program.copy
               (Program.chunk p ~rank:1 Buffer_id.Input ~index:i ())
               ~rank:0 Buffer_id.Output ~index:(6 + i) ())
        done)
  in
  Testutil.check_numeric "fifo order" ir

let test_slot_backpressure () =
  (* Scheduling with s slots must yield programs that execute with a FIFO
     bound of s. An rrs is an atomic receive+send, so the fused ring needs
     at least 2 slots; with 1 slot only the unfused ring is schedulable. *)
  List.iter
    (fun (slots, fuse) ->
      let ir = ring_ir ~slots ~fuse () in
      Ir.validate ir;
      let _ = Executor.Symbolic.run_collective ~slots ir in
      match Verify.check_deadlock_free ~slots ir with
      | Ok () -> ()
      | Error m -> Alcotest.failf "slots=%d: %s" slots m)
    [ (1, false); (2, true); (8, true) ];
  (* The fused ring with a single slot has an inherent circular wait — the
     scheduler must refuse rather than emit a deadlocking program. *)
  match ring_ir ~slots:1 ~fuse:true () with
  | exception Schedule.Scheduling_error _ -> ()
  | _ -> Alcotest.fail "fused 1-slot ring should be unschedulable"

let test_scheduled_with_more_slots_can_deadlock_with_fewer () =
  (* A 32-peer staging pattern scheduled with 8 slots typically cannot run
     with 1 slot; the static checker must notice. This guards against the
     §6.1 deadlock class. *)
  let dag =
    Program.trace
      (Collective.make Collective.Allgather ~num_ranks:2 ~chunk_factor:12 ())
      (fun p ->
        for i = 0 to 11 do
          let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:i () in
          ignore (Program.copy c ~rank:0 Buffer_id.Output ~index:i ());
          ignore
            (Program.copy
               (Program.chunk p ~rank:0 Buffer_id.Input ~index:i ())
               ~rank:1 Buffer_id.Output ~index:i ())
        done;
        for i = 0 to 11 do
          let d = Program.chunk p ~rank:1 Buffer_id.Input ~index:i () in
          ignore (Program.copy d ~rank:1 Buffer_id.Output ~index:(12 + i) ());
          ignore
            (Program.copy
               (Program.chunk p ~rank:1 Buffer_id.Input ~index:i ())
               ~rank:0 Buffer_id.Output ~index:(12 + i) ())
        done)
  in
  let idag = Instr_dag.of_chunk_dag dag in
  let ir8 = Schedule.run ~slots:8 idag in
  (* With 8 slots this is fine. *)
  (match Verify.check_deadlock_free ~slots:8 ir8 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "8 slots should be fine: %s" m);
  (* Scheduling WITH the tight slot bound must produce a program that works
     with 1 slot. *)
  let idag2 = Instr_dag.of_chunk_dag dag in
  let ir1 = Schedule.run ~slots:1 idag2 in
  match Verify.check_deadlock_free ~slots:1 ir1 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "slots=1 schedule not 1-slot safe: %s" m

let test_deterministic () =
  let a = ring_ir () and b = ring_ir () in
  Alcotest.(check bool) "same schedule twice" true (Testutil.ir_equal a b)

(* [Schedule.run] reads a fused DAG in place and leaves it as it was:
   dead instructions, unassigned channels and all. Scheduling it again
   gives the same IR. *)
let test_run_leaves_dag () =
  let dag =
    Instr_dag.of_chunk_dag
      (Program.trace
         (coll ~ranks:4 ~c:4 ())
         (fun p ->
           let ranks = [ 0; 1; 2; 3 ] in
           Msccl_algorithms.Patterns.ring_reduce_scatter p ~ranks ~offset:0
             ~count:1 ();
           Msccl_algorithms.Patterns.ring_all_gather p ~ranks ~offset:0
             ~count:1 ()))
  in
  ignore (Fusion.fuse dag);
  let snapshot () =
    Array.map (fun (i : Instr.t) -> { i with Instr.id = i.Instr.id })
      dag.Instr_dag.instrs
  in
  let before = snapshot () in
  let a = Schedule.run dag in
  Alcotest.(check bool) "instructions untouched" true (snapshot () = before);
  Alcotest.(check bool) "some dead instructions" true
    (Instr_dag.num_live dag < Array.length before);
  Alcotest.(check bool) "channels still unassigned" true
    (Array.for_all (fun (i : Instr.t) -> i.Instr.ch = None) before);
  Alcotest.(check bool) "same IR again" true
    (Testutil.ir_equal a (Schedule.run dag))

(* Compile output for the whole registry ([Testutil.registry_shapes]),
   pinned by the MD5 of the printed XML. Any change to scheduling
   (thread-block formation, the placement order, FIFO back-pressure,
   emission) shows up here; a scheduler rewrite that keeps its decisions
   leaves every digest as it is. *)
let registry_digests =
  [
    ("ring-allreduce -n 1 -g 8 -c 1 -r 1 -p Simple",
     "e74bb8e022145c749ad444047b4435de");
    ("ring-allreduce -n 2 -g 8 -c 1 -r 1 -p Simple",
     "571b1df726a00273f81ee68c0973c17b");
    ("ring-allreduce -n 8 -g 8 -c 1 -r 1 -p Simple",
     "2f92de83bc9069ad3a61689ce798c17c");
    ("allpairs-allreduce -n 1 -g 8 -c 1 -r 1 -p Simple",
     "a09a7e951a5e8d1a41b0732b6d2b41e5");
    ("allpairs-allreduce -n 2 -g 8 -c 1 -r 1 -p Simple",
     "cb5ec1f87d277b09db49f6e295b99eb5");
    ("allpairs-allreduce -n 8 -g 8 -c 1 -r 1 -p Simple",
     "05f3b3d954ce9db2727deda54b0047be");
    ("hierarchical-allreduce -n 1 -g 8 -c 1 -r 1 -p Simple",
     "ddc6087cfd11f651d3ba1741d3595914");
    ("hierarchical-allreduce -n 2 -g 8 -c 1 -r 1 -p Simple",
     "2f6abf7fd0f5596c288b755e3689b6b6");
    ("hierarchical-allreduce -n 8 -g 8 -c 1 -r 1 -p Simple",
     "d99fdf439759033db4fdb8ecbf6feb36");
    ("two-step-alltoall -n 1 -g 8 -c 1 -r 1 -p Simple",
     "6d96a998d0c482432369fe46abf83394");
    ("two-step-alltoall -n 2 -g 8 -c 1 -r 1 -p Simple",
     "76760694c1782555c7c17e8de5b8f802");
    ("two-step-alltoall -n 8 -g 8 -c 1 -r 1 -p Simple",
     "2f48df587670a1d60d99d845e3d187ba");
    ("naive-alltoall -n 1 -g 8 -c 1 -r 1 -p Simple",
     "19687e109357ea2f47550d38732c1479");
    ("naive-alltoall -n 2 -g 8 -c 1 -r 1 -p Simple",
     "fc18642e663479b25f681d5181572b37");
    ("naive-alltoall -n 8 -g 8 -c 1 -r 1 -p Simple",
     "61bd2d767f21154c2590fff1e3527a08");
    ("alltonext -n 1 -g 8 -c 1 -r 1 -p Simple",
     "566aa1c189ce47bc652a5c7e6bd54f51");
    ("alltonext -n 2 -g 8 -c 1 -r 1 -p Simple",
     "45305bcbe66de4b8298ce21d28d33601");
    ("alltonext -n 8 -g 8 -c 1 -r 1 -p Simple",
     "01eda6b8be83e380c9bd200e84464220");
    ("ring-allgather -n 1 -g 8 -c 1 -r 1 -p Simple",
     "b6b9ff99146b8c04243a2de512fed55f");
    ("ring-allgather -n 2 -g 8 -c 1 -r 1 -p Simple",
     "5cfe0f0dd72e21de7da9896b9ad645bf");
    ("ring-allgather -n 8 -g 8 -c 1 -r 1 -p Simple",
     "dcf9adbe7b8e708a3065e01b03313ea7");
    ("ring-reducescatter -n 1 -g 8 -c 1 -r 1 -p Simple",
     "413a01cd94dbcca86276c94b32865779");
    ("ring-reducescatter -n 2 -g 8 -c 1 -r 1 -p Simple",
     "9dc29cbf3314093fa435b453bba14305");
    ("ring-reducescatter -n 8 -g 8 -c 1 -r 1 -p Simple",
     "915327e430bfed828601503e3a96b56d");
    ("ring-broadcast -n 1 -g 8 -c 1 -r 1 -p Simple",
     "8c9dc639f39473bf890626fc623140d8");
    ("ring-broadcast -n 2 -g 8 -c 1 -r 1 -p Simple",
     "525dc634eea22c72ed9c6f9b030a4477");
    ("ring-broadcast -n 8 -g 8 -c 1 -r 1 -p Simple",
     "1366fbce9ff1a7149bba524c9c1605bd");
    ("tree-allreduce -n 1 -g 8 -c 1 -r 1 -p Simple",
     "28414162fdc5fbed9a2ade7eb8c09b4f");
    ("tree-allreduce -n 2 -g 8 -c 1 -r 1 -p Simple",
     "32553ef2150419fed61c1892a5a4cb24");
    ("tree-allreduce -n 8 -g 8 -c 1 -r 1 -p Simple",
     "c7a8d03e72f2f35c1f2a7d4b9028d667");
    ("halving-doubling -n 1 -g 8 -c 1 -r 1 -p Simple",
     "2c4e8001e5efac14db8eca0efa91ed15");
    ("halving-doubling -n 2 -g 8 -c 1 -r 1 -p Simple",
     "97fe7124ff0b32443a8bf3c6605aab8d");
    ("halving-doubling -n 8 -g 8 -c 1 -r 1 -p Simple",
     "c7a0cc4928dad66a558adf4f9f615bd8");
    ("recursive-doubling-allgather -n 1 -g 8 -c 1 -r 1 -p Simple",
     "ea981f5746a5c6b92beb87f83a6d5f2b");
    ("recursive-doubling-allgather -n 2 -g 8 -c 1 -r 1 -p Simple",
     "13ca25e009e6ead03b0a42ea8f6729a1");
    ("recursive-doubling-allgather -n 8 -g 8 -c 1 -r 1 -p Simple",
     "a214b3d64ba268d0c30d254a75ea7919");
    ("double-binary-tree -n 1 -g 8 -c 1 -r 1 -p Simple",
     "507fc42527e10b5317b1faa7708a4ad4");
    ("double-binary-tree -n 2 -g 8 -c 1 -r 1 -p Simple",
     "9fb41bf121d54866635bc9a7dd21d37c");
    ("double-binary-tree -n 8 -g 8 -c 1 -r 1 -p Simple",
     "cf70569c0217ee8f15311edcd32ce42c");
    ("hierarchical-allgather -n 1 -g 8 -c 1 -r 1 -p Simple",
     "18fc97b5d1d17224496b4d59668495e0");
    ("hierarchical-allgather -n 2 -g 8 -c 1 -r 1 -p Simple",
     "6ec5a308577f4acb2a0b6413233e18c4");
    ("hierarchical-allgather -n 8 -g 8 -c 1 -r 1 -p Simple",
     "1694c411d7c42d168a69a7f13f7d8508");
    ("synth-allgather -n 1 -g 8 -c 1 -r 1 -p Simple",
     "0102adf8478d77b37dcac015ad149842");
    ("synth-allgather -n 2 -g 8 -c 1 -r 1 -p Simple",
     "0102adf8478d77b37dcac015ad149842");
    ("synth-allgather -n 8 -g 8 -c 1 -r 1 -p Simple",
     "0102adf8478d77b37dcac015ad149842");
    ("sccl-allgather -n 1 -g 8 -c 1 -r 1 -p Simple",
     "8dc21e373504fa2e5ba684d116fc22f8");
    ("ring-allreduce -n 1 -g 8 -c 2 -r 2 -p Simple",
     "b7d7289e4fa6a168abc067fbc66dfad4");
    ("ring-allreduce -n 2 -g 8 -c 2 -r 1 -p LL128",
     "5c8229d3b4a7b5ef0489c7985e838e39");
    ("allpairs-allreduce -n 1 -g 8 -c 1 -r 1 -p LL128",
     "124f4afb540a345f3eb7902dcea56dd8");
    ("hierarchical-allreduce -n 2 -g 8 -c 1 -r 1 -p LL",
     "6362d5ba9e1efec76eebed5f93a3bd0b");
  ]

let test_registry_digests () =
  List.iter
    (fun shape ->
      let xml = Xml.to_string (Testutil.registry_ir shape) in
      let digest = Digest.to_hex (Digest.string xml) in
      let label = Testutil.shape_label shape in
      match List.assoc_opt label registry_digests with
      | Some want -> Alcotest.(check string) label want digest
      | None -> Alcotest.failf "no pinned digest for %S (%s)" label digest)
    Testutil.registry_shapes

(* ------------------------------------------------------------------ *)
(* Differential: the scheduler against its reference                   *)
(* ------------------------------------------------------------------ *)

(* Schedules a freshly built DAG with [Schedule] and with the reference:
   the same IR, or a [Scheduling_error] from both. *)
let agrees_with_reference ~proto ~slots make_dag =
  let run f =
    match f (make_dag ()) with
    | ir -> Some ir
    | exception Schedule.Scheduling_error _ -> None
  in
  match
    (run (Schedule.run ~proto ~slots), run (Schedule_ref.run ~proto ~slots))
  with
  | Some a, Some b -> Ir.equal a b
  | None, None -> true
  | Some _, None | None, Some _ -> false

let lowered ~fuse chunk_dag () =
  let dag = Instr_dag.of_chunk_dag (chunk_dag ()) in
  if fuse then ignore (Fusion.fuse dag);
  dag

(* Fuzz cases (2-8 ranks, every collective and routing strategy) with
   1-4 channels, fused and unfused, scheduled with one FIFO slot and
   with the protocol's slot count. *)
let prop_reference_fuzz_cases =
  let module C = Msccl_fuzz.Case in
  let gen =
    Q.Gen.(
      let* seed = int_bound 10_000 in
      let* channels = int_range 1 4 in
      let* fuse = bool in
      let* one_slot = bool in
      let c = Msccl_fuzz.Fuzz.generate ~seed ~index:0 in
      return
        ({ c with C.channels; chan_rot = c.C.chan_rot mod channels; fuse },
         one_slot))
  in
  let print (c, one_slot) =
    Printf.sprintf "%s seed=%d%s" (C.describe c) c.C.seed
      (if one_slot then " slots=1" else "")
  in
  Testutil.qtest ~count:150 "fuzz cases: Schedule = reference"
    (Q.make ~print gen) (fun (c, one_slot) ->
      let slots = if one_slot then 1 else T.Protocol.num_slots c.C.proto in
      agrees_with_reference ~proto:c.C.proto ~slots
        (lowered ~fuse:c.C.fuse (fun () ->
             Program.trace (C.collective c) (C.program c))))

(* Random routings, with and without random channel directives (which
   make conflicting channels and two-connection thread blocks common). *)
let prop_reference_random_routing =
  let gen =
    Q.Gen.(quad (int_bound 100_000) (int_range 0 4) bool bool)
  in
  let print (seed, channels, fuse, one_slot) =
    Printf.sprintf "seed=%d channels=%d fuse=%b one_slot=%b" seed channels
      fuse one_slot
  in
  Testutil.qtest ~count:300 "random routings: Schedule = reference"
    (Q.make ~print gen) (fun (seed, channels, fuse, one_slot) ->
      let channels = if channels = 0 then None else Some channels in
      let proto = T.Protocol.Simple in
      let slots = if one_slot then 1 else T.Protocol.num_slots proto in
      agrees_with_reference ~proto ~slots
        (lowered ~fuse (fun () -> Testutil.Random_routing.dag ?channels seed)))

let () =
  Alcotest.run "schedule"
    [
      ( "thread blocks",
        [
          Testutil.tc "ring TBs" test_ring_tbs;
          Testutil.tc "channel directives" test_channel_directives;
          Testutil.tc "channel conflicts" test_channel_conflict_error;
          Testutil.tc "cross-TB deps" test_cross_tb_deps;
        ] );
      ( "ordering",
        [
          Testutil.tc "FIFO order" test_fifo_order;
          Testutil.tc "slot back-pressure" test_slot_backpressure;
          Testutil.tc "slot-aware scheduling"
            test_scheduled_with_more_slots_can_deadlock_with_fewer;
          Testutil.tc "deterministic" test_deterministic;
          Testutil.tc "run leaves its DAG as it was" test_run_leaves_dag;
        ] );
      ("registry", [ Testutil.tc "compile digests" test_registry_digests ]);
      ( "reference",
        [ prop_reference_fuzz_cases; prop_reference_random_routing ] );
    ]

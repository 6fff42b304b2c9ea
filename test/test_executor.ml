(* Executor tests: numeric correctness, FIFO blocking, deadlock detection
   (paper §6.2's runtime semantics, functionally). *)

open Msccl_core
module T = Msccl_topology
module A = Msccl_algorithms

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let numeric name ir = Testutil.tc name (fun () -> Testutil.check_numeric name ir)

let loc rank buf index = Loc.make ~rank ~buf ~index ~count:1

let mk_step s op ?src ?dst ?(depends = []) ?(has_dep = false) () =
  { Ir.s; op; src; dst; count = 1; depends; has_dep }

(* Hand-written IR where both GPUs first wait to receive and only then
   send: a classic deadlock the dynamic detector must report. *)
let deadlocked_ir () =
  let coll = Collective.make Collective.Allgather ~num_ranks:2 () in
  let gpu id peer =
    {
      Ir.gpu_id = id;
      input_chunks = 1;
      output_chunks = 2;
      scratch_chunks = 0;
      tbs =
        [|
          {
            Ir.tb_id = 0;
            send = peer;
            recv = peer;
            chan = 0;
            steps =
              [|
                mk_step 0 Instr.Recv ~dst:(loc id Buffer_id.Output peer) ();
                mk_step 1 Instr.Send ~src:(loc id Buffer_id.Input 0) ();
              |];
          };
        |];
    }
  in
  {
    Ir.name = "deadlock";
    collective = coll;
    proto = T.Protocol.Simple;
    gpus = [| gpu 0 1; gpu 1 0 |];
  }

let test_deadlock_detected () =
  match Executor.Symbolic.run_collective (deadlocked_ir ()) with
  | exception Executor.Exec_error msg ->
      Alcotest.(check bool) "mentions deadlock" true (contains msg "deadlock")
  | _ -> Alcotest.fail "deadlock not detected"

let test_static_deadlock_check_agrees () =
  match Verify.check_deadlock_free (deadlocked_ir ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "static check missed the deadlock"

let test_single_slot () =
  (* An 8-slot schedule of the fused ring legitimately deadlocks when the
     runtime only provides one slot (atomic rrs instructions hold their
     incoming slot while waiting for an outgoing one) — which is why the
     scheduler is slot-aware. The dynamic detector must catch it. *)
  let ir = A.Ring_allreduce.ir ~num_ranks:4 () in
  (match Executor.Symbolic.run_collective ~slots:1 ir with
  | exception Executor.Exec_error msg ->
      Alcotest.(check bool) "deadlock reported" true (contains msg "deadlock")
  | _ -> Alcotest.fail "1-slot run of an 8-slot fused ring should deadlock");
  (* Two slots suffice for the fused ring. *)
  ignore (Executor.Symbolic.run_collective ~slots:2 ir)

let test_uninit_read_detected () =
  let coll = Collective.make Collective.Allgather ~num_ranks:2 () in
  let gpus =
    [|
      {
        Ir.gpu_id = 0;
        input_chunks = 1;
        output_chunks = 2;
        scratch_chunks = 0;
        tbs =
          [|
            {
              Ir.tb_id = 0;
              send = -1;
              recv = -1;
              chan = 0;
              steps =
                [|
                  mk_step 0 Instr.Copy
                    ~src:(loc 0 Buffer_id.Output 1)
                    ~dst:(loc 0 Buffer_id.Output 0)
                    ();
                |];
            };
          |];
      };
      {
        Ir.gpu_id = 1;
        input_chunks = 1;
        output_chunks = 2;
        scratch_chunks = 0;
        tbs = [||];
      };
    |]
  in
  let ir =
    { Ir.name = "uninit"; collective = coll; proto = T.Protocol.Simple; gpus }
  in
  match Executor.Symbolic.run_collective ir with
  | exception Executor.Exec_error msg ->
      Alcotest.(check bool) "mentions uninitialized" true
        (contains msg "uninitialized")
  | _ -> Alcotest.fail "uninitialized read not detected"

let test_scratch_visible () =
  (* Data staged through scratch is observable via the scratch accessor. *)
  let ir =
    Compile.ir ~verify:false
      (Collective.make Collective.Allgather ~num_ranks:2 ())
      (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let s = Program.copy c ~rank:1 Buffer_id.Scratch ~index:0 () in
        ignore (Program.copy s ~rank:1 Buffer_id.Output ~index:0 ());
        (* satisfy the rest of the postcondition trivially *)
        let c1 = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c1 ~rank:1 Buffer_id.Output ~index:1 ());
        ignore
          (Program.copy
             (Program.chunk p ~rank:1 Buffer_id.Input ~index:0 ())
             ~rank:0 Buffer_id.Output ~index:1 ());
        ignore
          (Program.copy
             (Program.chunk p ~rank:0 Buffer_id.Input ~index:0 ())
             ~rank:0 Buffer_id.Output ~index:0 ()))
  in
  let st = Executor.Symbolic.run_collective ir in
  let scratch = Executor.Symbolic.scratch st ~rank:1 in
  Alcotest.(check bool) "scratch holds the staged chunk" true
    (match scratch.(0) with
    | Some c -> Chunk.equal c (Chunk.input ~rank:0 ~index:0)
    | None -> false);
  Alcotest.(check bool) "steps counted" true
    (Executor.Symbolic.steps_executed st > 0)

(* A message whose chunk count differs from the receiving step's is an
   [Exec_error] at that step naming both counts and the sender, never an
   [Invalid_argument] from the payload arithmetic. *)
let test_message_size () =
  List.iter
    (fun op ->
      let ir = Testutil.count_mismatch_ir op in
      match Executor.Symbolic.run_collective ir with
      | exception Executor.Exec_error msg ->
          Alcotest.(check string)
            "located"
            (Printf.sprintf
               "rank 0 tb 0 step 2 (%s): received 2 chunk(s) sent by rank 1 \
                tb 0 step 3, expected 1"
               (Instr.opcode_name op))
            msg
      | _ -> Alcotest.fail "count mismatch not detected")
    [ Instr.Recv; Instr.Recv_reduce_copy ]

let test_message_size_mangles () =
  List.iter
    (fun (seed, index) ->
      match Verify.check (Testutil.ring16_mangle ~seed ~index) with
      | Error msg ->
          Alcotest.(check bool) "message size reported" true
            (contains msg "chunk(s) sent by rank")
      | Ok () -> Alcotest.failf "mangle %d/%d accepted" seed index)
    Testutil.ring16_count_mangles

let () =
  Alcotest.run "executor"
    [
      ( "numeric",
        [
          numeric "ring allreduce" (A.Ring_allreduce.ir ~num_ranks:5 ());
          numeric "allpairs allreduce" (A.Allpairs_allreduce.ir ~num_ranks:4 ());
          numeric "hierarchical"
            (A.Hierarchical_allreduce.ir ~nodes:2 ~gpus_per_node:3 ());
          numeric "two-step alltoall"
            (A.Two_step_alltoall.ir ~nodes:2 ~gpus_per_node:3 ());
          numeric "alltonext" (A.Alltonext.ir ~nodes:3 ~gpus_per_node:2 ());
          numeric "allgather sccl" (A.Allgather_sccl.ir ());
          numeric "tree allreduce"
            (A.Tree_allreduce.ir ~num_ranks:6 ~chunk_factor:2 ());
          numeric "scatter-gather rings"
            (A.Reduce_scatter_ring.ir ~num_ranks:4 ~chunk_factor:2 ());
        ] );
      ( "machinery",
        [
          Testutil.tc "deadlock detected" test_deadlock_detected;
          Testutil.tc "static check agrees" test_static_deadlock_check_agrees;
          Testutil.tc "single slot" test_single_slot;
          Testutil.tc "uninit read detected" test_uninit_read_detected;
          Testutil.tc "scratch visible" test_scratch_visible;
          Testutil.tc "message size" test_message_size;
          Testutil.tc "message size on ring@16 mangles"
            test_message_size_mangles;
        ] );
    ]

(* Whole-pipeline property tests over randomly generated programs.

   A generator ([Testutil.Random_routing]) builds random-but-valid
   chunk-routing programs (random copies and reduces between random
   initialized locations across a few ranks), then we assert pipeline
   invariants:

   - compilation never produces an invalid or deadlocking IR;
   - fusion preserves the symbolic memory state;
   - the schedule executes with only 1 FIFO slot when scheduled for 1;
   - XML round-trips structurally;
   - blocked replication preserves per-instance semantics. *)

open Msccl_core
module Q = QCheck

let num_ranks = Testutil.Random_routing.num_ranks

let dag_of_seed = Testutil.Random_routing.dag

(* Programs whose fused chains force two receive connections into one
   thread block are rejected by the scheduler with a channel-directive
   error; such seeds are vacuously fine. *)
let compile_opt ?fuse seed =
  match Compile.compile_dag ?fuse ~verify:false (dag_of_seed seed) with
  | report -> Some report.Compile.ir
  | exception Schedule.Scheduling_error _ -> None

let arb_seed = Q.make (Q.Gen.int_bound 100000) ~print:string_of_int

let prop name f = Testutil.qtest ~count:60 name arb_seed f

let prop_pipeline_valid =
  prop "compiled IR is valid and deadlock-free" (fun seed ->
      match compile_opt seed with
      | None -> true
      | Some ir ->
          Ir.validate ir;
          Verify.check_deadlock_free ir = Ok ())

let prop_fusion_preserves_state =
  prop "fusion preserves the symbolic state" (fun seed ->
      match (compile_opt ~fuse:true seed, compile_opt ~fuse:false seed) with
      | Some fused, Some plain -> Testutil.symbolic_states_equal fused plain
      | None, _ | _, None -> true)

let prop_single_slot_schedule =
  prop "1-slot schedules run with 1 slot" (fun seed ->
      let dag = Instr_dag.of_chunk_dag (dag_of_seed seed) in
      ignore (Fusion.fuse dag);
      match Schedule.run ~slots:1 dag with
      | exception Schedule.Scheduling_error _ -> true
      | ir ->
          ignore (Executor.Symbolic.run_collective ~slots:1 ir);
          Verify.check_deadlock_free ~slots:1 ir = Ok ())

let prop_xml_roundtrip =
  prop "XML round-trips" (fun seed ->
      match compile_opt seed with
      | None -> true
      | Some ir -> (
          match Msccl_interop.Ingest.of_string (Xml.to_string ir) with
          | Ok (ir', []) -> Testutil.ir_equal ir ir'
          | Ok (_, _ :: _) | Error _ -> false))

let prop_replication_preserves =
  prop "blocked replication preserves instance 0's state" (fun seed ->
      match compile_opt seed with
      | None -> true
      | Some ir ->
      let r2 = Instances.blocked ir ~instances:2 in
      let st1 = Executor.Symbolic.run_collective ir in
      let st2 = Executor.Symbolic.run_collective r2 in
      let ok = ref true in
      for rank = 0 to num_ranks - 1 do
        let o1 = Executor.Symbolic.output st1 ~rank in
        let o2 = Executor.Symbolic.output st2 ~rank in
        Array.iteri
          (fun i v ->
            (* instance 0 occupies the first [in_chunks] positions *)
            if not (Option.equal Chunk.equal v o2.(i)) then ok := false)
          o1
      done;
      !ok)

let prop_executor_executes_everything =
  prop "every step executes exactly once" (fun seed ->
      match compile_opt seed with
      | None -> true
      | Some ir ->
          let st = Executor.Symbolic.run_collective ir in
          Executor.Symbolic.steps_executed st = Ir.num_steps ir)

let () =
  Alcotest.run "properties"
    [
      ( "pipeline",
        [
          prop_pipeline_valid;
          prop_fusion_preserves_state;
          prop_single_slot_schedule;
          prop_xml_roundtrip;
          prop_replication_preserves;
          prop_executor_executes_everything;
        ] );
    ]

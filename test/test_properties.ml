(* Whole-pipeline property tests over randomly generated programs.

   A generator builds random-but-valid chunk-routing programs (random
   copies and reduces between random initialized locations across a few
   ranks), then we assert pipeline invariants:

   - compilation never produces an invalid or deadlocking IR;
   - fusion preserves the symbolic memory state;
   - the schedule executes with only 1 FIFO slot when scheduled for 1;
   - XML round-trips structurally;
   - blocked replication preserves per-instance semantics. *)

open Msccl_core
module Q = QCheck

let num_ranks = 3

let in_chunks = 3

(* Deterministic random program from an integer seed. *)
let build_program seed (p : Program.t) =
  let rng = Random.State.make [| seed |] in
  let pick n = Random.State.int rng n in
  (* Track which (rank, buf, index) hold data, mirroring the program. *)
  let initialized = Hashtbl.create 32 in
  for r = 0 to num_ranks - 1 do
    for i = 0 to in_chunks - 1 do
      Hashtbl.replace initialized (r, Buffer_id.Input, i) ()
    done
  done;
  let scratch_hwm = Array.make num_ranks 0 in
  let random_src () =
    let candidates =
      Hashtbl.fold (fun k () acc -> k :: acc) initialized []
      |> List.sort compare
    in
    List.nth candidates (pick (List.length candidates))
  in
  let buf_size rank = function
    | Buffer_id.Input -> in_chunks
    | Buffer_id.Output -> in_chunks
    | Buffer_id.Scratch -> max 4 scratch_hwm.(rank)
  in
  let ops = 6 + pick 18 in
  for _ = 1 to ops do
    let sr, sb, si = random_src () in
    let dr = pick num_ranks in
    let db =
      match pick 3 with
      | 0 -> Buffer_id.Output
      | 1 -> Buffer_id.Scratch
      | _ -> Buffer_id.Input
    in
    let di = pick (buf_size dr db) in
    (* The collective is out-of-place, so cells alias only when rank,
       buffer and index all match. *)
    let same_cell (r1, b1, i1) (r2, b2, i2) =
      r1 = r2 && i1 = i2 && Buffer_id.equal b1 b2
    in
    if not (same_cell (sr, sb, si) (dr, db, di)) then begin
      let src = Program.chunk p ~rank:sr sb ~index:si () in
      let reduce_ok = Hashtbl.mem initialized (dr, db, di) in
      if reduce_ok && pick 3 = 0 then begin
        let dst = Program.chunk p ~rank:dr db ~index:di () in
        ignore (Program.reduce dst src ())
      end
      else ignore (Program.copy src ~rank:dr db ~index:di ());
      Hashtbl.replace initialized (dr, db, di) ();
      if db = Buffer_id.Scratch && di + 1 > scratch_hwm.(dr) then
        scratch_hwm.(dr) <- di + 1
    end
  done

let collective =
  Collective.make
    (Collective.Custom
       {
         Collective.custom_name = "random-routing";
         input_chunks = in_chunks;
         output_chunks = in_chunks;
         expected = (fun ~rank:_ ~index:_ -> None);
         initial = None;
       })
    ~num_ranks ()

let dag_of_seed seed = Program.trace collective (build_program seed)

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

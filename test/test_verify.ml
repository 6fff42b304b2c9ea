(* Verifier tests (paper §3.2): postcondition acceptance and rejection,
   mismatch reporting, deadlock analysis with FIFO edges. *)

open Msccl_core
module A = Msccl_algorithms

let accept name ir =
  Testutil.tc name (fun () -> Testutil.check_verified name ir)

let test_rejects_wrong_root () =
  (* A broadcast that distributes rank 1's data when the collective says
     root 0. *)
  let coll = Collective.make (Collective.Broadcast 0) ~num_ranks:3 () in
  let ir =
    Compile.ir ~verify:false coll (fun p ->
        let c = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c ~rank:1 Buffer_id.Output ~index:0 ());
        ignore
          (Program.copy
             (Program.chunk p ~rank:1 Buffer_id.Input ~index:0 ())
             ~rank:0 Buffer_id.Output ~index:0 ());
        ignore
          (Program.copy
             (Program.chunk p ~rank:1 Buffer_id.Input ~index:0 ())
             ~rank:2 Buffer_id.Output ~index:0 ()))
  in
  match Verify.check_postcondition ir with
  | Ok () -> Alcotest.fail "wrong-root broadcast accepted"
  | Error ms ->
      Alcotest.(check int) "all three outputs wrong" 3 (List.length ms);
      let m = List.hd ms in
      Alcotest.(check bool) "expected chunk is root's" true
        (Chunk.equal m.Verify.m_expected (Chunk.input ~rank:0 ~index:0))

let test_rejects_double_count () =
  (* An "allreduce" that adds rank 0's chunk twice. *)
  let coll = Collective.make Collective.Allreduce ~num_ranks:2 ~inplace:true () in
  let ir =
    Compile.ir ~verify:false coll (fun p ->
        let a = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let s = Program.copy a ~rank:1 Buffer_id.Scratch ~index:0 () in
        let own = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        let acc = Program.reduce own s () in
        (* bug: adds the same contribution again *)
        let s2 =
          Program.copy
            (Program.chunk p ~rank:0 Buffer_id.Input ~index:0 ())
            ~rank:1 Buffer_id.Scratch ~index:1 ()
        in
        let acc = Program.reduce acc s2 () in
        ignore (Program.copy acc ~rank:0 Buffer_id.Input ~index:0 ()))
  in
  match Verify.check_postcondition ir with
  | Ok () -> Alcotest.fail "double counting accepted"
  | Error _ -> ()

let test_rejects_incomplete () =
  (* Leaves rank 1's output uninitialized. *)
  let coll = Collective.make (Collective.Broadcast 0) ~num_ranks:2 () in
  let ir =
    Compile.ir ~verify:false coll (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c ~rank:0 Buffer_id.Output ~index:0 ()))
  in
  match Verify.check_postcondition ir with
  | Ok () -> Alcotest.fail "incomplete broadcast accepted"
  | Error [ m ] ->
      Alcotest.(check int) "rank 1" 1 m.Verify.m_rank;
      Alcotest.(check bool) "uninitialized" true (m.Verify.m_actual = None);
      (* the pretty-printer should render it *)
      let rendered = Format.asprintf "%a" Verify.pp_mismatch m in
      Alcotest.(check bool) "rendered" true (String.length rendered > 0)
  | Error ms -> Alcotest.failf "expected 1 mismatch, got %d" (List.length ms)

let test_check_composes () =
  let good = A.Ring_allreduce.ir ~num_ranks:4 () in
  (match Verify.check good with
  | Ok () -> ()
  | Error m -> Alcotest.failf "good program rejected: %s" m);
  match Verify.check_exn good with
  | () -> ()
  | exception Failure _ -> Alcotest.fail "check_exn on good program"

let test_dont_care_positions () =
  (* AllToNext leaves rank 0's output unconstrained: a program that writes
     garbage there must still verify. *)
  let coll =
    Collective.make Collective.Alltonext ~num_ranks:3 ~chunk_factor:1 ()
  in
  let ir =
    Compile.ir ~verify:false coll (fun p ->
        let c0 = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c0 ~rank:1 Buffer_id.Output ~index:0 ());
        let c1 = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c1 ~rank:2 Buffer_id.Output ~index:0 ());
        (* garbage into rank 0's unconstrained output *)
        let g = Program.chunk p ~rank:2 Buffer_id.Input ~index:0 () in
        ignore (Program.copy g ~rank:0 Buffer_id.Output ~index:0 ()))
  in
  Testutil.check_verified "don't care" ir

let test_rejects_missing_operand () =
  (* An rcs with no destination is structurally valid but cannot run:
     the verdict is an error naming the step, not an exception. *)
  let ir, tb, step =
    Testutil.strip_first_dst Instr.Recv_copy_send
      (A.Ring_allreduce.ir ~num_ranks:4 ())
  in
  Ir.validate ir;
  match Verify.check ir with
  | Ok () -> Alcotest.fail "step without a destination accepted"
  | Error m ->
      Alcotest.(check string)
        "message"
        (Printf.sprintf
           "symbolic execution failed: rank 0 tb %d step %d (rcs): no \
            destination operand"
           tb step)
        m

let test_deadlock_free_ok () =
  List.iter
    (fun ir ->
      match Verify.check_deadlock_free ir with
      | Ok () -> ()
      | Error m -> Alcotest.failf "spurious deadlock: %s" m)
    [
      A.Ring_allreduce.ir ~num_ranks:6 ();
      A.Two_step_alltoall.ir ~nodes:2 ~gpus_per_node:3 ();
      A.Hierarchical_allreduce.ir ~nodes:2 ~gpus_per_node:4 ();
    ]

(* ------------------------------------------------------------------ *)
(* Pinned error texts                                                  *)
(* ------------------------------------------------------------------ *)

(* Small hand-built IRs over an [n]-rank allgather (one input chunk, [n]
   output chunks per rank). [tbs.(g)] lists rank [g]'s thread blocks as
   (send, recv, steps); a step is (opcode, src, dst, depends), with chunk
   locations written "i0" (input 0) or "o1" (output 1) on the step's own
   rank. Targets of [depends] get [has_dep]. *)
let hand_ir n tbs =
  let loc rank s =
    let buf =
      match s.[0] with
      | 'i' -> Buffer_id.Input
      | 'o' -> Buffer_id.Output
      | _ -> Buffer_id.Scratch
    in
    Loc.make ~rank ~buf
      ~index:(int_of_string (String.sub s 1 (String.length s - 1)))
      ~count:1
  in
  let gpus =
    Array.init n (fun g ->
        let spec = tbs.(g) in
        let dep_targets =
          List.concat_map
            (fun (_, _, steps) ->
              List.concat_map (fun (_, _, _, deps) -> deps) steps)
            spec
        in
        {
          Ir.gpu_id = g;
          input_chunks = 1;
          output_chunks = n;
          scratch_chunks = 0;
          tbs =
            Array.of_list
              (List.mapi
                 (fun t (send, recv, steps) ->
                   {
                     Ir.tb_id = t;
                     send;
                     recv;
                     chan = 0;
                     steps =
                       Array.of_list
                         (List.mapi
                            (fun s (op, src, dst, depends) ->
                              {
                                Ir.s;
                                op;
                                src = Option.map (loc g) src;
                                dst = Option.map (loc g) dst;
                                count = 1;
                                depends;
                                has_dep = List.mem (t, s) dep_targets;
                              })
                            steps);
                   })
                 spec);
        })
  in
  {
    Ir.name = "hand";
    collective = Collective.make Collective.Allgather ~num_ranks:n ();
    proto = Msccl_topology.Protocol.Simple;
    gpus;
  }

let exec_error ir ?slots () =
  match Executor.Symbolic.run_collective ?slots ir with
  | _ -> Alcotest.fail "symbolic execution succeeded"
  | exception Executor.Exec_error m -> m

let check_text what expected actual =
  Alcotest.(check string) what expected actual

(* Both ranks receive before they send; rank 0's second block waits on
   the first one's receive. *)
let test_text_deadlock () =
  let s = Instr.Send and r = Instr.Recv and cpy = Instr.Copy in
  let ir =
    hand_ir 2
      [|
        [ (1, 1, [ (r, None, Some "o1", []); (s, Some "i0", None, []) ]);
          (-1, -1, [ (cpy, Some "i0", Some "o0", [ (0, 0) ]) ]) ];
        [ (0, 0, [ (r, None, Some "o0", []); (s, Some "i0", None, []) ]) ];
      |]
  in
  Ir.validate ir;
  check_text "verdict"
    "deadlock check failed: dependency cycle through 5 step(s) (with 8 FIFO \
     slots)"
    (match Verify.check ir with Ok () -> "ok" | Error m -> m);
  check_text "stuck blocks"
    "deadlock: no thread block can make progress\n\
    \  gpu 0 tb 0 at step 0 (r): waiting for data from rank 1\n\
    \  gpu 0 tb 1 at step 0 (cpy): waiting on semaphore (tb 0, step 0)\n\
    \  gpu 1 tb 0 at step 0 (r): waiting for data from rank 0"
    (exec_error ir ())

(* Both ranks send twice before receiving: deadlock-free with the
   protocol's slots, stuck with one. *)
let test_text_full_slots () =
  let s = Instr.Send and r = Instr.Recv in
  let tb peer =
    [ (peer, peer,
       [ (s, Some "i0", None, []); (s, Some "i0", None, []);
         (r, None, Some (Printf.sprintf "o%d" peer), []);
         (r, None, Some (Printf.sprintf "o%d" peer), []) ]) ]
  in
  let ir = hand_ir 2 [| tb 1; tb 0 |] in
  check_text "static" "dependency cycle through 6 step(s) (with 1 FIFO slots)"
    (match Verify.check_deadlock_free ~slots:1 ir with
    | Ok () -> "ok"
    | Error m -> m);
  check_text "stuck blocks"
    "deadlock: no thread block can make progress\n\
    \  gpu 0 tb 0 at step 1 (s): all 1 FIFO slots to rank 1 are full\n\
    \  gpu 1 tb 0 at step 1 (s): all 1 FIFO slots to rank 0 are full"
    (exec_error ir ~slots:1 ())

(* Sends nobody receives: the executor names the first connection in
   ascending (src, dst, ch) order; [Ir.validate] rejects the counts
   before [Verify.check] executes anything. *)
let test_text_in_flight () =
  let s = Instr.Send and r = Instr.Recv in
  let ir =
    hand_ir 3
      [|
        [ (1, 2, [ (s, Some "i0", None, []); (s, Some "i0", None, []);
                   (r, None, Some "o2", []) ]) ];
        [ (-1, -1, [ (Instr.Copy, Some "i0", Some "o1", []) ]) ];
        [ (0, -1, [ (s, Some "i0", None, []); (s, Some "i0", None, []) ]) ];
      |]
  in
  check_text "in flight"
    "2 message(s) left in flight on connection 0->1 ch0 (first sent by rank \
     0 tb 0 step 0)"
    (exec_error ir ());
  check_text "verdict"
    "structural check failed: Ir: connection 0->1 ch0 sends 2 but receives 0"
    (match Verify.check ir with Ok () -> "ok" | Error m -> m);
  let recv_only =
    hand_ir 2
      [| [ (-1, 1, [ (r, None, Some "o1", []) ]) ];
         [ (-1, -1, [ (Instr.Copy, Some "i0", Some "o1", []) ]) ] |]
  in
  check_text "receives without sends"
    "structural check failed: Ir: connection 1->0 ch0 receives without sends"
    (match Verify.check recv_only with Ok () -> "ok" | Error m -> m)

let test_text_message_size () =
  List.iter
    (fun (op, name) ->
      check_text name
        (Printf.sprintf
           "symbolic execution failed: rank 0 tb 0 step 2 (%s): received 2 \
            chunk(s) sent by rank 1 tb 0 step 3, expected 1"
           name)
        (match Verify.check (Testutil.count_mismatch_ir op) with
        | Ok () -> "ok"
        | Error m -> m))
    [ (Instr.Recv, "r"); (Instr.Recv_reduce_copy, "rrc") ]

(* Ring AllReduce whose rank 3 finally overwrites output[7] with its own
   output[5]: a wrong chunk of the right size. At 128 ranks the chunks
   compare as exact multisets, at 129 by hash pair. *)
let overwritten_ring n =
  let coll =
    Collective.make Collective.Allreduce ~num_ranks:n ~chunk_factor:n
      ~inplace:true ()
  in
  Compile.ir ~verify:false coll (fun p ->
      A.Ring_allreduce.program ~num_ranks:n ~channels:1 p;
      let c = Program.chunk p ~rank:3 Buffer_id.Input ~index:5 () in
      ignore (Program.copy c ~rank:3 Buffer_id.Input ~index:7 ()))

let test_text_overwritten_ring () =
  List.iter
    (fun (n, expected) ->
      check_text
        (Printf.sprintf "ring@%d" n)
        expected
        (match Verify.check (overwritten_ring n) with
        | Ok () -> "ok"
        | Error m -> m))
    [
      ( 128,
        "postcondition failed at 1 position(s); first: rank 3 output[7]: \
         expected sum{128 inputs, #2aa6a9}, got sum{128 inputs, #7f448a} \
         (last written by rank 3 tb 0 step 255)" );
      ( 129,
        "postcondition failed at 1 position(s); first: rank 3 output[7]: \
         expected sum{129 inputs, #89e066}, got sum{129 inputs, #dbdbb7} \
         (last written by rank 3 tb 0 step 257)" );
    ]

let () =
  Alcotest.run "verify"
    [
      ( "accepts",
        [
          accept "ring" (A.Ring_allreduce.ir ~num_ranks:6 ());
          accept "ring multi"
            (A.Ring_allreduce.ir_multi
               ~rings:[| [ 0; 1; 2; 3 ]; [ 0; 2; 1; 3 ] |]
               ());
          accept "allgather ch2"
            (A.Allgather_ring.ir ~channels:2 ~chunk_factor:4 ~num_ranks:4 ());
          Testutil.tc "don't-care positions" test_dont_care_positions;
          Testutil.tc "deadlock-free programs" test_deadlock_free_ok;
          Testutil.tc "check composes" test_check_composes;
        ] );
      ( "rejects",
        [
          Testutil.tc "wrong root" test_rejects_wrong_root;
          Testutil.tc "double counting" test_rejects_double_count;
          Testutil.tc "incomplete" test_rejects_incomplete;
          Testutil.tc "missing operand" test_rejects_missing_operand;
        ] );
      ( "texts",
        [
          Testutil.tc "deadlock" test_text_deadlock;
          Testutil.tc "full FIFO slots" test_text_full_slots;
          Testutil.tc "in flight and connection counts" test_text_in_flight;
          Testutil.tc "message size" test_text_message_size;
          Testutil.tc "overwritten ring output at exact_limit"
            test_text_overwritten_ring;
        ] );
    ]

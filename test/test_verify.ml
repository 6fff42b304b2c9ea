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
    ]

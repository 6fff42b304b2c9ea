(* Instruction generation tests (paper §4.2): chunk ops expand into
   point-to-point and local instructions with precise dependencies. *)

open Msccl_core

let coll ?(ranks = 3) ?(c = 2) () =
  Collective.make Collective.Allreduce ~num_ranks:ranks ~chunk_factor:c ()

let lower f = Instr_dag.of_chunk_dag (Program.trace (coll ()) f)

let live_ops dag =
  List.map (fun (i : Instr.t) -> (i.Instr.rank, i.Instr.op)) (Instr_dag.live dag)

let test_remote_copy () =
  let dag =
    lower (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c ~rank:1 Buffer_id.Scratch ~index:0 ()))
  in
  Alcotest.(check (list (pair int bool)))
    "send at 0, recv at 1"
    [ (0, true); (1, false) ]
    (List.map (fun (r, op) -> (r, op = Instr.Send)) (live_ops dag));
  let recv = List.nth (Instr_dag.live dag) 1 in
  Alcotest.(check (option int)) "comm edge" (Some 0) recv.Instr.comm_pred;
  Alcotest.(check (option int)) "recv peer" (Some 0) recv.Instr.recv_peer;
  Instr_dag.validate dag

let test_remote_reduce () =
  let dag =
    lower (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let own = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        ignore (Program.reduce own c ()))
  in
  match Instr_dag.live dag with
  | [ send; rrc ] ->
      Alcotest.(check bool) "send" true (send.Instr.op = Instr.Send);
      Alcotest.(check bool) "rrc" true
        (rrc.Instr.op = Instr.Recv_reduce_copy);
      Alcotest.(check bool) "rrc reads its own dst" true
        (Option.equal Loc.equal rrc.Instr.src rrc.Instr.dst);
      Instr_dag.validate dag
  | other -> Alcotest.failf "expected 2 instrs, got %d" (List.length other)

let test_local_ops () =
  let dag =
    lower (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let s = Program.copy c ~rank:0 Buffer_id.Scratch ~index:0 () in
        let own = Program.chunk p ~rank:0 Buffer_id.Input ~index:1 () in
        ignore (Program.reduce own s ()))
  in
  Alcotest.(check bool) "local copy then reduce" true
    (List.map (fun (i : Instr.t) -> i.Instr.op) (Instr_dag.live dag)
    = [ Instr.Copy; Instr.Reduce ]);
  let reduce = List.nth (Instr_dag.live dag) 1 in
  Alcotest.(check (list int)) "reduce after copy" [ 0 ] reduce.Instr.deps

let test_instruction_deps_are_precise () =
  (* Two independent remote copies to different scratch slots must not
     depend on each other; a reader of both depends on both receives. *)
  let dag =
    lower (fun p ->
        let a = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        ignore (Program.copy a ~rank:2 Buffer_id.Scratch ~index:0 ());
        let b = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        ignore (Program.copy b ~rank:2 Buffer_id.Scratch ~index:1 ());
        let s0 = Program.chunk p ~rank:2 Buffer_id.Scratch ~index:0 () in
        let s1 = Program.chunk p ~rank:2 Buffer_id.Scratch ~index:1 () in
        ignore (Program.reduce s0 s1 ()))
  in
  match Instr_dag.live dag with
  | [ _s1; r1; _s2; r2; red ] ->
      Alcotest.(check (list int)) "recvs independent" [] r1.Instr.deps;
      Alcotest.(check (list int)) "recvs independent 2" [] r2.Instr.deps;
      Alcotest.(check (list int)) "reduce needs both recvs"
        [ r1.Instr.id; r2.Instr.id ]
        red.Instr.deps
  | other -> Alcotest.failf "expected 5 instrs, got %d" (List.length other)

let test_depths () =
  let dag =
    lower (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let c = Program.copy c ~rank:1 Buffer_id.Scratch ~index:0 () in
        ignore (Program.copy c ~rank:2 Buffer_id.Scratch ~index:0 ()))
  in
  let depth, rdepth = Instr_dag.depths dag in
  (* chain: send0 -> recv1 -> send1 -> recv2 *)
  Alcotest.(check (list int)) "depths" [ 0; 1; 2; 3 ] (Array.to_list depth);
  Alcotest.(check (list int)) "reverse depths" [ 3; 2; 1; 0 ]
    (Array.to_list rdepth)

let test_compact () =
  let dag =
    lower (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let c = Program.copy c ~rank:1 Buffer_id.Scratch ~index:0 () in
        ignore (Program.copy c ~rank:2 Buffer_id.Scratch ~index:0 ()))
  in
  ignore (Fusion.fuse dag);
  Alcotest.(check bool) "fusion killed an instr" true
    (Instr_dag.num_live dag < Array.length dag.Instr_dag.instrs);
  let compacted = Schedule_ref.compact dag in
  Alcotest.(check int) "dense ids"
    (Instr_dag.num_live dag)
    (Array.length compacted.Instr_dag.instrs);
  Instr_dag.validate compacted

let () =
  Alcotest.run "lowering"
    [
      ( "expansion",
        [
          Testutil.tc "remote copy" test_remote_copy;
          Testutil.tc "remote reduce" test_remote_reduce;
          Testutil.tc "local ops" test_local_ops;
        ] );
      ( "dependencies",
        [
          Testutil.tc "precise deps" test_instruction_deps_are_precise;
          Testutil.tc "depths" test_depths;
          Testutil.tc "compact" test_compact;
        ] );
    ]

(* Shared helpers for the test suites. *)

open Msccl_core

let check_verified name ir =
  match Verify.check ir with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: verification failed: %s" name msg

(* Numeric end-to-end check: run the IR on pseudo-random float data and
   compare every constrained output position with the collective's
   reference value. *)
let check_numeric ?(elems = 3) ?(seed = 11) name ir =
  let st = Executor.Data.run_random ~elems_per_chunk:elems ~seed ir in
  for rank = 0 to Ir.num_ranks ir - 1 do
    let out = Executor.Data.output st ~rank in
    Array.iteri
      (fun index v ->
        match
          Executor.Data.reference ~elems_per_chunk:elems ~seed ir ~rank ~index
        with
        | None -> ()
        | Some want -> (
            match v with
            | None ->
                Alcotest.failf "%s: rank %d out[%d] uninitialized" name rank
                  index
            | Some got ->
                Array.iteri
                  (fun e x ->
                    if abs_float (x -. want.(e)) > 1e-9 then
                      Alcotest.failf
                        "%s: rank %d out[%d][%d] = %f, expected %f" name rank
                        index e x want.(e))
                  got))
      out
  done

(* Strict decoding is ingestion that draws no diagnostic at all: the
   repo's own printer output must decode this way. *)
let reingest ?(file = "<string>") doc =
  let module I = Msccl_interop.Ingest in
  match I.of_string ~file doc with
  | Ok (ir, []) -> ir
  | Ok (_, ds) | Error ds ->
      Alcotest.failf "%s does not ingest cleanly:\n%s" file
        (I.diags_to_string ds)

(* [ir] with the first [op] step of rank 0 stripped of its destination:
   a program Ingest accepts but no runtime can execute. Returns the
   stripped step's (tb, step) coordinates too. *)
let strip_first_dst op (ir : Ir.t) =
  let g = ir.Ir.gpus.(0) in
  let tb, step =
    let rec find t =
      if t >= Array.length g.Ir.tbs then
        Alcotest.failf "no %s step on rank 0" (Instr.opcode_name op)
      else
        let steps = g.Ir.tbs.(t).Ir.steps in
        let rec go i =
          if i >= Array.length steps then find (t + 1)
          else if steps.(i).Ir.op = op then (t, i)
          else go (i + 1)
        in
        go 0
    in
    find 0
  in
  let tbs = Array.copy g.Ir.tbs in
  let steps = Array.copy tbs.(tb).Ir.steps in
  steps.(step) <- { (steps.(step)) with Ir.dst = None };
  tbs.(tb) <- { (tbs.(tb)) with Ir.steps };
  let gpus = Array.copy ir.Ir.gpus in
  gpus.(0) <- { g with Ir.tbs };
  ({ ir with Ir.gpus }, tb, step)

(* A two-rank allgather in which rank 1 sends two chunks where rank 0's
   receive at tb 0 step 2 — [op], a plain [r] or a reducing [rrc] —
   expects one. Ingest accepts such a program; every checker must report
   it at that step. *)
let count_mismatch_ir op =
  let loc rank buf index count = Loc.make ~rank ~buf ~index ~count in
  let step s op ?src ?dst ?(count = 1) () =
    { Ir.s; op; src; dst; count; depends = []; has_dep = false }
  in
  let i r = loc r Buffer_id.Input 0 1 and o r k = loc r Buffer_id.Output k 1 in
  let recv =
    match op with
    | Instr.Recv -> step 2 op ~dst:(o 0 1) ()
    | _ -> step 2 op ~src:(i 0) ~dst:(o 0 1) ()
  in
  let gpu id ~scratch steps =
    {
      Ir.gpu_id = id;
      input_chunks = 1;
      output_chunks = 2;
      scratch_chunks = scratch;
      tbs =
        [| { Ir.tb_id = 0; send = 1 - id; recv = 1 - id; chan = 0; steps } |];
    }
  in
  {
    Ir.name = "allgather-count-mismatch";
    collective = Collective.make Collective.Allgather ~num_ranks:2 ();
    proto = Msccl_topology.Protocol.Simple;
    gpus =
      [|
        gpu 0 ~scratch:0
          [| step 0 Instr.Copy ~src:(i 0) ~dst:(o 0 0) ();
             step 1 Instr.Send ~src:(o 0 0) (); recv |];
        gpu 1 ~scratch:2
          [| step 0 Instr.Copy ~src:(i 1) ~dst:(o 1 1) ();
             step 1 Instr.Copy ~src:(i 1) ~dst:(loc 1 Buffer_id.Scratch 0 1) ();
             step 2 Instr.Copy ~src:(i 1) ~dst:(loc 1 Buffer_id.Scratch 1 1) ();
             step 3 Instr.Send ~src:(loc 1 Buffer_id.Scratch 0 2) ~count:2 ();
             step 4 Instr.Recv ~dst:(o 1 0) () |];
      |];
  }

(* Accepted [Mangle] corruptions of ring AllReduce@16, as (seed, index),
   in which a receive's count differs from its sender's. *)
let ring16_count_mangles = [ (1, 2440); (2, 376); (2, 386) ]

let ring16_doc =
  lazy
    (Xml.to_string
       (Msccl_algorithms.Ring_allreduce.ir ~verify:false ~num_ranks:16 ()))

let ring16_mangle ~seed ~index =
  let doc, _ =
    Msccl_interop.Mangle.mangle ~seed ~index (Lazy.force ring16_doc)
  in
  match Msccl_interop.Ingest.of_string doc with
  | Ok (ir, _) -> ir
  | Error _ -> Alcotest.failf "ring@16 mangle %d/%d was rejected" seed index

(* Structural IR equality (ignores the collective's closures). *)
let ir_equal (a : Ir.t) (b : Ir.t) =
  let step_eq (x : Ir.step) (y : Ir.step) =
    x.Ir.s = y.Ir.s && x.Ir.op = y.Ir.op && x.Ir.count = y.Ir.count
    && x.Ir.depends = y.Ir.depends
    && x.Ir.has_dep = y.Ir.has_dep
    && Option.equal Loc.equal x.Ir.src y.Ir.src
    && Option.equal Loc.equal x.Ir.dst y.Ir.dst
  in
  let tb_eq (x : Ir.tb) (y : Ir.tb) =
    x.Ir.tb_id = y.Ir.tb_id && x.Ir.send = y.Ir.send && x.Ir.recv = y.Ir.recv
    && x.Ir.chan = y.Ir.chan
    && Array.length x.Ir.steps = Array.length y.Ir.steps
    && Array.for_all2 step_eq x.Ir.steps y.Ir.steps
  in
  let gpu_eq (x : Ir.gpu) (y : Ir.gpu) =
    x.Ir.gpu_id = y.Ir.gpu_id
    && x.Ir.input_chunks = y.Ir.input_chunks
    && x.Ir.output_chunks = y.Ir.output_chunks
    && x.Ir.scratch_chunks = y.Ir.scratch_chunks
    && Array.length x.Ir.tbs = Array.length y.Ir.tbs
    && Array.for_all2 tb_eq x.Ir.tbs y.Ir.tbs
  in
  a.Ir.name = b.Ir.name && a.Ir.proto = b.Ir.proto
  && Ir.num_ranks a = Ir.num_ranks b
  && Array.for_all2 gpu_eq a.Ir.gpus b.Ir.gpus

(* Compare the full symbolic memory state of two executions. *)
let symbolic_states_equal ir1 ir2 =
  let st1 = Executor.Symbolic.run_collective ir1 in
  let st2 = Executor.Symbolic.run_collective ir2 in
  let buf_eq a b =
    Array.length a = Array.length b
    && Array.for_all2 (Option.equal Chunk.equal) a b
  in
  let ok = ref true in
  for rank = 0 to Ir.num_ranks ir1 - 1 do
    if
      not
        (buf_eq
           (Executor.Symbolic.output st1 ~rank)
           (Executor.Symbolic.output st2 ~rank)
        && buf_eq
             (Executor.Symbolic.input st1 ~rank)
             (Executor.Symbolic.input st2 ~rank))
    then ok := false
  done;
  !ok

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let tc name f = Alcotest.test_case name `Quick f

(* MSCCL-IR structure and XML serialization tests. *)

open Msccl_core
module T = Msccl_topology
module A = Msccl_algorithms

let roundtrip name ir =
  Testutil.tc name (fun () ->
      let s = Xml.to_string ir in
      let back = Testutil.reingest s in
      Alcotest.(check bool) "round-trips" true (Testutil.ir_equal ir back);
      (* and printing again yields the same document *)
      Alcotest.(check string) "stable print" s (Xml.to_string back))

let test_parse_tree () =
  let t =
    Xml.parse_tree
      "<?xml version=\"1.0\"?>\n<!-- hi -->\n<a x=\"1\" y=\"a&amp;b\">\n  \
       <b/> <c z=\"&quot;q&quot;\"></c>\n</a>"
  in
  Alcotest.(check string) "tag" "a" t.Xml.tag;
  Alcotest.(check (list (pair string string)))
    "attrs"
    [ ("x", "1"); ("y", "a&b") ]
    t.Xml.attrs;
  Alcotest.(check int) "children" 2 (List.length t.Xml.children);
  Alcotest.(check (option string)) "escaped attr" (Some "\"q\"")
    (List.assoc_opt "z" (List.nth t.Xml.children 1).Xml.attrs)

let test_parse_errors () =
  let bad s =
    match Xml.parse_tree s with
    | exception Xml.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  bad "<a>";
  bad "<a></b>";
  bad "<a x=1/>";
  bad "no element"

let test_validate_rejects () =
  let ir = A.Ring_allreduce.ir ~num_ranks:4 () in
  let broken peers =
    let g = ir.Ir.gpus.(0) in
    let tb = { g.Ir.tbs.(0) with Ir.send = peers } in
    {
      ir with
      Ir.gpus =
        Array.mapi
          (fun i g' ->
            if i = 0 then { g with Ir.tbs = [| tb |] } else g')
          ir.Ir.gpus;
    }
  in
  (match Ir.validate (broken 99) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "peer out of range accepted");
  match Ir.validate (broken 0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "self connection accepted"

let test_validate_connection_exclusivity () =
  (* Two thread blocks sending on the same connection must be rejected. *)
  let step op =
    {
      Ir.s = 0;
      op;
      src = Some (Loc.make ~rank:0 ~buf:Buffer_id.Input ~index:0 ~count:1);
      dst = None;
      count = 1;
      depends = [];
      has_dep = false;
    }
  in
  let tb id = { Ir.tb_id = id; send = 1; recv = -1; chan = 0;
                steps = [| step Instr.Send |] } in
  let recv_tb =
    {
      Ir.tb_id = 0;
      send = -1;
      recv = 0;
      chan = 0;
      steps =
        [|
          {
            Ir.s = 0;
            op = Instr.Recv;
            src = None;
            dst = Some (Loc.make ~rank:1 ~buf:Buffer_id.Output ~index:0 ~count:1);
            count = 1;
            depends = [];
            has_dep = false;
          };
          {
            Ir.s = 1;
            op = Instr.Recv;
            src = None;
            dst = Some (Loc.make ~rank:1 ~buf:Buffer_id.Output ~index:1 ~count:1);
            count = 1;
            depends = [];
            has_dep = false;
          };
        |];
    }
  in
  let coll = Collective.make Collective.Allgather ~num_ranks:2 ~chunk_factor:2 () in
  let ir =
    {
      Ir.name = "bad";
      collective = coll;
      proto = T.Protocol.Simple;
      gpus =
        [|
          { Ir.gpu_id = 0; input_chunks = 2; output_chunks = 4;
            scratch_chunks = 0; tbs = [| tb 0; tb 1 |] };
          { Ir.gpu_id = 1; input_chunks = 2; output_chunks = 4;
            scratch_chunks = 0; tbs = [| recv_tb |] };
        |];
    }
  in
  match Ir.validate ir with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate sender accepted"

(* The one-owner-per-connection-side texts, and the block they stop at:
   ring AllReduce@4 on three channels, with gpu 2's blocks 1 and 2 moved
   onto channel 0 (block 1 also loses its send peer). Block 1 is the
   first second owner, of the receiving side of 1->2 ch0. *)
let test_validate_connection_texts () =
  let ir = A.Ring_allreduce.ir ~channels:3 ~num_ranks:4 () in
  let with_gpu2 f =
    {
      ir with
      Ir.gpus =
        Array.map
          (fun (g : Ir.gpu) ->
            if g.Ir.gpu_id <> 2 then g
            else { g with Ir.tbs = Array.map f g.Ir.tbs })
          ir.Ir.gpus;
    }
  in
  let rejects what expected bad =
    match Ir.validate bad with
    | exception Invalid_argument m -> Alcotest.(check string) what expected m
    | () -> Alcotest.failf "%s accepted" what
  in
  Array.iter
    (fun (tb : Ir.tb) ->
      Alcotest.(check (pair int int))
        "gpu 2 block peers" (3, 1) (tb.Ir.send, tb.Ir.recv))
    ir.Ir.gpus.(2).Ir.tbs;
  Ir.validate ir;
  rejects "second sender"
    "Ir: two thread blocks send on connection 2->3 ch0"
    (with_gpu2 (fun tb ->
         if tb.Ir.tb_id = 1 then { tb with Ir.chan = 0 } else tb));
  rejects "second receiver, first in block order"
    "Ir: two thread blocks receive on connection 2<-1 ch0"
    (with_gpu2 (fun tb ->
         match tb.Ir.tb_id with
         | 1 -> { tb with Ir.chan = 0; send = -1 }
         | 2 -> { tb with Ir.chan = 0 }
         | _ -> tb))

(* Whether every (src, dst, channel) connection has as many receiving as
   sending steps, by per-connection totals in a hash table. *)
let reference_balanced (ir : Ir.t) =
  let totals = Hashtbl.create 32 in
  let add key n =
    Hashtbl.replace totals key
      (n + Option.value ~default:0 (Hashtbl.find_opt totals key))
  in
  Array.iter
    (fun (g : Ir.gpu) ->
      Array.iter
        (fun (tb : Ir.tb) ->
          Array.iter
            (fun (st : Ir.step) ->
              if Instr.sends st.Ir.op then
                add (g.Ir.gpu_id, tb.Ir.send, tb.Ir.chan) 1;
              if Instr.receives st.Ir.op then
                add (tb.Ir.recv, g.Ir.gpu_id, tb.Ir.chan) (-1))
            tb.Ir.steps)
        g.Ir.tbs)
    ir.Ir.gpus;
  Hashtbl.fold (fun _ n ok -> ok && n = 0) totals true

(* Registry programs with a few steps given another opcode that their
   block's peers allow, and maybe one block stripped of every send or of
   every receive (a connection then carries only receives, or only
   sends): [Ir.validate] rejects exactly the unbalanced ones, with a
   connection message. *)
let qcheck_validate_balance =
  let bases =
    [|
      A.Ring_allreduce.ir ~channels:2 ~num_ranks:4 ();
      A.Allpairs_allreduce.ir ~num_ranks:4 ();
      A.Hierarchical_allreduce.ir ~nodes:2 ~gpus_per_node:3 ();
    |]
  in
  let ops =
    Instr.
      [|
        Send; Recv; Copy; Reduce; Recv_reduce_copy; Recv_copy_send;
        Recv_reduce_send; Recv_reduce_copy_send; Nop;
      |]
  in
  let mutate (base, seed) =
    let ir = bases.(base) in
    let rng = Random.State.make [| seed |] in
    let gpus = Array.map (fun (g : Ir.gpu) -> { g with Ir.tbs = Array.copy g.Ir.tbs }) ir.Ir.gpus in
    for _ = 1 to Random.State.int rng 4 do
      let g = gpus.(Random.State.int rng (Array.length gpus)) in
      let ti = Random.State.int rng (Array.length g.Ir.tbs) in
      let tb = g.Ir.tbs.(ti) in
      if tb.Ir.steps <> [||] then begin
        let si = Random.State.int rng (Array.length tb.Ir.steps) in
        let op = ops.(Random.State.int rng (Array.length ops)) in
        if (tb.Ir.send >= 0 || not (Instr.sends op))
           && (tb.Ir.recv >= 0 || not (Instr.receives op))
        then begin
          let steps = Array.copy tb.Ir.steps in
          steps.(si) <- { steps.(si) with Ir.op };
          g.Ir.tbs.(ti) <- { tb with Ir.steps }
        end
      end
    done;
    if Random.State.bool rng then begin
      let g = gpus.(Random.State.int rng (Array.length gpus)) in
      let ti = Random.State.int rng (Array.length g.Ir.tbs) in
      let strip =
        if Random.State.bool rng then function
          | Instr.Send -> Instr.Nop
          | Instr.Recv_copy_send -> Instr.Recv
          | Instr.Recv_reduce_send | Instr.Recv_reduce_copy_send ->
              Instr.Recv_reduce_copy
          | op -> op
        else function
          | Instr.Recv -> Instr.Nop
          | Instr.Recv_copy_send | Instr.Recv_reduce_send
          | Instr.Recv_reduce_copy_send ->
              Instr.Send
          | Instr.Recv_reduce_copy -> Instr.Reduce
          | op -> op
      in
      let tb = g.Ir.tbs.(ti) in
      g.Ir.tbs.(ti) <-
        {
          tb with
          Ir.steps =
            Array.map
              (fun (st : Ir.step) -> { st with Ir.op = strip st.Ir.op })
              tb.Ir.steps;
        }
    end;
    { ir with Ir.gpus }
  in
  Testutil.qtest ~count:300 "validate rejects exactly unbalanced connections"
    QCheck.(pair (int_bound (Array.length bases - 1)) int)
    (fun case ->
      let ir = mutate case in
      match Ir.validate ir with
      | () -> reference_balanced ir
      | exception Invalid_argument m ->
          (not (reference_balanced ir))
          && String.length m > 15
          && String.sub m 0 15 = "Ir: connection ")

let test_summary_counts () =
  let ir = A.Ring_allreduce.ir ~num_ranks:4 () in
  Alcotest.(check int) "ranks" 4 (Ir.num_ranks ir);
  Alcotest.(check int) "channels" 1 (Ir.num_channels ir);
  Alcotest.(check bool) "steps counted" true (Ir.num_steps ir > 0);
  let ir2 = Ir.with_proto ir T.Protocol.LL in
  Alcotest.(check bool) "with_proto" true (ir2.Ir.proto = T.Protocol.LL)

let test_file_io () =
  let ir = A.Alltonext.ir ~nodes:2 ~gpus_per_node:2 () in
  let path = Filename.temp_file "msccl" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xml.save ir path;
      match Msccl_interop.Ingest.load path with
      | Ok (back, []) ->
          Alcotest.(check bool) "file round-trip" true
            (Testutil.ir_equal ir back)
      | Ok (_, ds) | Error ds ->
          Alcotest.failf "saved file does not ingest cleanly:\n%s"
            (Msccl_interop.Ingest.diags_to_string ds))

(* Registry-wide round-trip: every algorithm the registry can build, in
   several configurations (including instances=2, whose blocked
   replication wraps the collective in a Custom — the shape-only case of
   the serializer), must satisfy Ir -> Xml -> Ir losslessness under
   Ir.equal and print stably. Algorithms whose preconditions reject a
   configuration (e.g. hierarchical schedules on one node) are skipped,
   but most of the registry must be exercised. *)
let test_registry_roundtrip () =
  let module H = Msccl_harness in
  let configs =
    [
      ("1x8", { H.Registry.default_params with H.Registry.verify = false });
      ( "2x8",
        {
          H.Registry.default_params with
          H.Registry.nodes = 2;
          verify = false;
        } );
      ( "1x8 r2",
        {
          H.Registry.default_params with
          H.Registry.instances = 2;
          verify = false;
        } );
    ]
  in
  let built = ref 0 in
  List.iter
    (fun (spec : H.Registry.spec) ->
      List.iter
        (fun (label, params) ->
          match spec.H.Registry.build params with
          | exception _ -> ()
          | ir ->
              incr built;
              let s = Xml.to_string ir in
              let back =
                Testutil.reingest
                  ~file:(Printf.sprintf "%s (%s)" spec.H.Registry.name label)
                  s
              in
              if not (Ir.equal ir back) then
                Alcotest.failf "%s (%s): round-trip changed the IR"
                  spec.H.Registry.name label;
              if not (String.equal s (Xml.to_string back)) then
                Alcotest.failf "%s (%s): second print differs"
                  spec.H.Registry.name label)
        configs)
    H.Registry.all;
  if !built < 12 then
    Alcotest.failf "only %d registry builds succeeded; sweep too weak" !built

let test_ir_equal_discriminates () =
  let ir = A.Ring_allreduce.ir ~num_ranks:4 () in
  Alcotest.(check bool) "reflexive" true (Ir.equal ir ir);
  Alcotest.(check bool) "name matters" false
    (Ir.equal ir { ir with Ir.name = "other" });
  Alcotest.(check bool) "proto matters" false
    (Ir.equal ir (Ir.with_proto ir T.Protocol.LL));
  let dropped_step =
    {
      ir with
      Ir.gpus =
        Array.mapi
          (fun i (g : Ir.gpu) ->
            if i <> 0 then g
            else
              {
                g with
                Ir.tbs =
                  Array.mapi
                    (fun j (tb : Ir.tb) ->
                      if j <> 0 then tb
                      else
                        {
                          tb with
                          Ir.steps =
                            Array.sub tb.Ir.steps 0
                              (Array.length tb.Ir.steps - 1);
                        })
                    g.Ir.tbs;
              })
          ir.Ir.gpus;
    }
  in
  Alcotest.(check bool) "steps matter" false (Ir.equal ir dropped_step)

let () =
  Alcotest.run "ir-xml"
    [
      ( "xml",
        [
          Testutil.tc "parse tree" test_parse_tree;
          Testutil.tc "parse errors" test_parse_errors;
          roundtrip "ring allreduce" (A.Ring_allreduce.ir ~num_ranks:4 ());
          roundtrip "hierarchical"
            (A.Hierarchical_allreduce.ir ~nodes:2 ~gpus_per_node:3 ());
          roundtrip "alltonext with instances"
            (A.Alltonext.ir ~instances:2 ~nodes:2 ~gpus_per_node:3 ());
          roundtrip "broadcast root 2"
            (A.Broadcast_ring.ir ~num_ranks:5 ~root:2 ~chunk_factor:2 ());
          Testutil.tc "file io" test_file_io;
          Testutil.tc "registry-wide round-trip" test_registry_roundtrip;
          Testutil.tc "Ir.equal discriminates" test_ir_equal_discriminates;
        ] );
      ( "validation",
        [
          Testutil.tc "rejects bad peers" test_validate_rejects;
          Testutil.tc "connection exclusivity"
            test_validate_connection_exclusivity;
          Testutil.tc "connection owner texts" test_validate_connection_texts;
          qcheck_validate_balance;
          Testutil.tc "summary counts" test_summary_counts;
        ] );
    ]

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
          Testutil.tc "summary counts" test_summary_counts;
        ] );
    ]

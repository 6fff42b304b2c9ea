(* Topology and preset tests (paper §7's systems, Fig. 7). *)

module T = Msccl_topology
module H = Msccl_harness

let test_ndv4_shape () =
  let t = T.Presets.ndv4 ~nodes:2 in
  Alcotest.(check int) "ranks" 16 (T.Topology.num_ranks t);
  Alcotest.(check int) "sms" 108 (T.Topology.sm_count t);
  Alcotest.(check int) "node of rank 9" 1 (T.Topology.node_of t 9);
  Alcotest.(check int) "gpu of rank 9" 1 (T.Topology.gpu_of t 9);
  Alcotest.(check int) "rank of (1,1)" 9 (T.Topology.rank_of t ~node:1 ~gpu:1);
  Alcotest.(check bool) "same node" true (T.Topology.same_node t 8 15);
  Alcotest.(check bool) "different nodes" false (T.Topology.same_node t 7 8)

let test_route_kinds () =
  let t = T.Presets.ndv4 ~nodes:2 in
  let intra = T.Topology.route t ~src:0 ~dst:1 in
  let inter = T.Topology.route t ~src:0 ~dst:8 in
  Alcotest.(check bool) "intra is NVSwitch" true
    (intra.T.Topology.kind = T.Link.Nvswitch);
  Alcotest.(check bool) "inter is InfiniBand" true
    (inter.T.Topology.kind = T.Link.Infiniband);
  Alcotest.(check bool) "IB slower per thread block" true
    (inter.T.Topology.tb_cap < intra.T.Topology.tb_cap)

let test_nic_sharing () =
  (* NDv4: one NIC per GPU. DGX-2: GPU pairs share a NIC (Fig. 7 vs §7). *)
  let nic_out t src dst = List.hd (T.Topology.route t ~src ~dst).T.Topology.hops in
  let a100 = T.Presets.ndv4 ~nodes:2 in
  Alcotest.(check bool) "a100 distinct NICs" true
    (nic_out a100 0 8 <> nic_out a100 1 9);
  let v100 = T.Presets.dgx2 ~nodes:2 in
  Alcotest.(check bool) "dgx2 pair shares NIC" true
    (nic_out v100 0 16 = nic_out v100 1 17);
  Alcotest.(check bool) "dgx2 next pair differs" true
    (nic_out v100 0 16 <> nic_out v100 2 18)

let test_duplex_nics () =
  (* Outgoing and incoming hops of opposite-direction routes must not share
     a resource (full duplex). *)
  let t = T.Presets.ndv4 ~nodes:2 in
  let out_hops = (T.Topology.route t ~src:0 ~dst:8).T.Topology.hops in
  let back_hops = (T.Topology.route t ~src:8 ~dst:0).T.Topology.hops in
  List.iter
    (fun h ->
      Alcotest.(check bool) "no shared duplex resource" false
        (List.mem h back_hops))
    out_hops

let test_dgx1_connectivity () =
  (* Every V100 has exactly 6 NVLink bricks. *)
  for g = 0 to 7 do
    let links =
      List.fold_left
        (fun acc p -> acc + T.Presets.dgx1_nvlink_count g p)
        0
        (List.init 8 Fun.id)
    in
    Alcotest.(check int) (Printf.sprintf "gpu %d links" g) 6 links
  done;
  Alcotest.(check bool) "0-4 connected" true (T.Presets.dgx1_connected 0 4);
  Alcotest.(check bool) "0-5 not connected" false (T.Presets.dgx1_connected 0 5);
  let t = T.Presets.dgx1 () in
  let direct = T.Topology.route t ~src:0 ~dst:4 in
  let fallback = T.Topology.route t ~src:0 ~dst:5 in
  Alcotest.(check bool) "direct is NVLink" true
    (direct.T.Topology.kind = T.Link.Nvlink);
  Alcotest.(check bool) "fallback is PCIe" true
    (fallback.T.Topology.kind = T.Link.Pcie)

let test_route_errors () =
  let t = T.Presets.ndv4 ~nodes:1 in
  (match T.Topology.route t ~src:0 ~dst:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self route accepted");
  match T.Topology.route t ~src:0 ~dst:99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range accepted"

let test_parse_topology () =
  let ok s ranks =
    match H.Registry.parse_topology s with
    | Ok t -> Alcotest.(check int) s ranks (T.Topology.num_ranks t)
    | Error m -> Alcotest.failf "%s: %s" s m
  in
  ok "ndv4:2" 16;
  ok "dgx2:1" 16;
  ok "dgx1" 8;
  ok "custom:3:4" 12;
  List.iter
    (fun s ->
      match H.Registry.parse_topology s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" s)
    [ "ndv4:0"; "ndv4:x"; "nope"; "custom:1"; "dgx2:-1" ]

let create ?(resources = [||]) route =
  T.Topology.create ~name:"bad" ~num_nodes:1 ~gpus_per_node:2 ~resources
    ~route ~sm_count:4 ~local_bandwidth:1. ~reduce_gamma:1.
    ~launch_overhead:0. ~per_tb_launch:0. ~instr_overhead:0.

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s accepted" what

(* Route checks run when a route is read, so a topology with a missing
   route builds but no consumer can ever see the hole. *)
let test_create_validation () =
  let t = create (fun ~src:_ ~dst:_ -> None) in
  expect_invalid "missing route" (fun () -> T.Topology.route t ~src:0 ~dst:1);
  expect_invalid "missing route in fold" (fun () ->
      T.Topology.fold_routes t (fun n ~src:_ ~dst:_ _ -> n + 1) 0)

let one_resource = [| { T.Topology.rid = 0; rname = "r0"; capacity = 1. } |]

let route_with ~hops ~tb_cap =
  create ~resources:one_resource (fun ~src:_ ~dst:_ ->
      Some
        {
          T.Topology.hops;
          base_alpha = 0.;
          tb_cap;
          kind = T.Link.Nvswitch;
        })

let test_access_validation () =
  let ok = route_with ~hops:[ 0 ] ~tb_cap:1. in
  Alcotest.(check (list int)) "valid route" [ 0 ]
    (T.Topology.route ok ~src:1 ~dst:0).T.Topology.hops;
  List.iter
    (fun (what, t) ->
      expect_invalid what (fun () -> T.Topology.route t ~src:0 ~dst:1);
      expect_invalid (what ^ " in fold") (fun () ->
          T.Topology.fold_routes t (fun n ~src:_ ~dst:_ _ -> n + 1) 0))
    [
      ("hop past the resources", route_with ~hops:[ 0; 1 ] ~tb_cap:1.);
      ("negative hop", route_with ~hops:[ -1 ] ~tb_cap:1.);
      ("zero tb_cap", route_with ~hops:[ 0 ] ~tb_cap:0.);
      ("negative tb_cap", route_with ~hops:[ 0 ] ~tb_cap:(-1.));
    ]

let test_create_checks () =
  let none ~src:_ ~dst:_ = None in
  expect_invalid "resource id mismatch" (fun () ->
      create
        ~resources:[| { T.Topology.rid = 1; rname = "r"; capacity = 1. } |]
        none);
  expect_invalid "zero capacity" (fun () ->
      create
        ~resources:[| { T.Topology.rid = 0; rname = "r"; capacity = 0. } |]
        none);
  expect_invalid "no ranks" (fun () ->
      T.Topology.create ~name:"empty" ~num_nodes:0 ~gpus_per_node:8
        ~resources:[||] ~route:none ~sm_count:4 ~local_bandwidth:1.
        ~reduce_gamma:1. ~launch_overhead:0. ~per_tb_launch:0.
        ~instr_overhead:0.)

(* Building costs O(P + resources): 16 384 ranks would be ~268M routes
   as a table. *)
let test_scale_guard () =
  let t = T.Presets.ndv4 ~nodes:2048 in
  Alcotest.(check int) "ranks" 16384 (T.Topology.num_ranks t);
  let kind src dst = (T.Topology.route t ~src ~dst).T.Topology.kind in
  Alcotest.(check bool) "0->1 NVSwitch" true (kind 0 1 = T.Link.Nvswitch);
  Alcotest.(check bool) "0->16383 InfiniBand" true
    (kind 0 16383 = T.Link.Infiniband);
  Alcotest.(check bool) "16383->8 InfiniBand" true
    (kind 16383 8 = T.Link.Infiniband)

(* ------------------------------------------------------------------ *)
(* Differential: closed-form routes against a reference route table    *)
(* ------------------------------------------------------------------ *)

(* The reference is the table a preset used to materialize: every
   (src, dst) route written out from the resource names and link
   models, with resource ids looked up by name. *)
let check_against_table label t table =
  let p = T.Topology.num_ranks t in
  for src = 0 to p - 1 do
    for dst = 0 to p - 1 do
      if src <> dst then
        let expected = table ~src ~dst in
        if T.Topology.route t ~src ~dst <> expected then
          Alcotest.failf "%s: route %d->%d differs from the reference" label
            src dst
    done
  done

let rid_of t =
  let ids = Hashtbl.create 64 in
  Array.iter
    (fun r -> Hashtbl.replace ids r.T.Topology.rname r.T.Topology.rid)
    (T.Topology.resources t);
  fun name ->
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None -> Alcotest.failf "no resource %s" name

let two_level_table t ~(intra : T.Link.t) ~(inter : T.Link.t) ~nic_of ~board =
  let g = T.Topology.gpus_per_node t in
  let rid = rid_of t in
  let mk hops (l : T.Link.t) =
    {
      T.Topology.hops;
      base_alpha = l.T.Link.alpha;
      tb_cap = l.T.Link.tb_cap;
      kind = l.T.Link.kind;
    }
  in
  let table =
    Array.init (T.Topology.num_ranks t) (fun src ->
        Array.init (T.Topology.num_ranks t) (fun dst ->
            let sn = src / g and dn = dst / g in
            let sg = src mod g and dg = dst mod g in
            if sn = dn then
              let hops =
                [
                  rid (Printf.sprintf "rank%d/egress" src);
                  rid (Printf.sprintf "rank%d/ingress" dst);
                ]
              in
              let hops =
                match board with
                | Some b when sg / b <> dg / b ->
                    let dir = if sg / b = 0 then "fwd" else "bwd" in
                    hops @ [ rid (Printf.sprintf "node%d/xboard/%s" sn dir) ]
                | Some _ | None -> hops
              in
              mk hops intra
            else
              mk
                [
                  rid (Printf.sprintf "node%d/nic%d/out" sn (nic_of sg));
                  rid (Printf.sprintf "node%d/nic%d/in" dn (nic_of dg));
                ]
                inter))
  in
  fun ~src ~dst -> table.(src).(dst)

let test_routes_match_table () =
  let a100 = (T.Link.nvlink_a100, T.Link.ib_hdr) in
  List.iter
    (fun (label, t, (intra, inter), nic_of, board) ->
      check_against_table label t
        (two_level_table t ~intra ~inter ~nic_of ~board))
    [
      ("ndv4:1", T.Presets.ndv4 ~nodes:1, a100, Fun.id, None);
      ("ndv4:2", T.Presets.ndv4 ~nodes:2, a100, Fun.id, None);
      ("ndv4:3", T.Presets.ndv4 ~nodes:3, a100, Fun.id, None);
      ( "dgx2:1", T.Presets.dgx2 ~nodes:1, (T.Link.nvlink_v100, T.Link.ib_hdr),
        (fun g -> g / 2), Some 8 );
      ( "dgx2:2", T.Presets.dgx2 ~nodes:2, (T.Link.nvlink_v100, T.Link.ib_hdr),
        (fun g -> g / 2), Some 8 );
      ( "hierarchical 3x4",
        T.Presets.hierarchical ~nodes:3 ~gpus_per_node:4 (),
        a100, Fun.id, None );
    ];
  let t = T.Presets.dgx1 () in
  let rid = rid_of t in
  check_against_table "dgx1" t (fun ~src ~dst ->
      if T.Presets.dgx1_connected src dst then
        {
          T.Topology.hops = [ rid (Printf.sprintf "nvlink/%d-%d" src dst) ];
          base_alpha = 12.0e-6;
          tb_cap = 25e9;
          kind = T.Link.Nvlink;
        }
      else
        {
          T.Topology.hops =
            [
              rid (Printf.sprintf "rank%d/pcie" src);
              rid (Printf.sprintf "rank%d/pcie" dst);
            ];
          base_alpha = T.Link.pcie_gen4.T.Link.alpha;
          tb_cap = T.Link.pcie_gen4.T.Link.tb_cap;
          kind = T.Link.Pcie;
        })

let () =
  Alcotest.run "topology"
    [
      ( "presets",
        [
          Testutil.tc "ndv4 shape" test_ndv4_shape;
          Testutil.tc "route kinds" test_route_kinds;
          Testutil.tc "nic sharing" test_nic_sharing;
          Testutil.tc "duplex NICs" test_duplex_nics;
          Testutil.tc "dgx1 connectivity" test_dgx1_connectivity;
        ] );
      ( "interface",
        [
          Testutil.tc "route errors" test_route_errors;
          Testutil.tc "parse" test_parse_topology;
          Testutil.tc "validation" test_create_validation;
          Testutil.tc "access validation" test_access_validation;
          Testutil.tc "create checks" test_create_checks;
          Testutil.tc "scale guard" test_scale_guard;
          Testutil.tc "routes match table" test_routes_match_table;
        ] );
    ]

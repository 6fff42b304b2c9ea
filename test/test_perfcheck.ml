(* Perfcheck tests: the α–β–γ lower-bound certificate and efficiency
   ratio on compiled algorithms, each perf lint rule on a hand-built IR
   that provably triggers it, the weighted critical path, and the
   registry-wide perf sweep. *)

open Msccl_core
module T = Msccl_topology
module H = Msccl_harness

let topo_of label =
  match H.Registry.parse_topology label with
  | Ok t -> t
  | Error m -> Alcotest.failf "topology %s: %s" label m

let build_algo ?(params = H.Registry.default_params) name =
  match H.Registry.find name with
  | None -> Alcotest.failf "unknown algorithm %s" name
  | Some spec ->
      spec.H.Registry.build { params with H.Registry.verify = false }

let rule_diags rule diags =
  List.filter (fun d -> d.Lint.d_rule = rule) diags

(* ------------------------------------------------------------------ *)
(* Hand-built IR helpers (same shapes as test_races)                   *)
(* ------------------------------------------------------------------ *)

let loc ?(rank = 0) buf index count = Loc.make ~rank ~buf ~index ~count

let step ?(depends = []) ?(has_dep = false) s op src dst count =
  { Ir.s; op; src; dst; count; depends; has_dep }

let tb ?(send = -1) ?(recv = -1) ?(chan = 0) tb_id steps =
  { Ir.tb_id; send; recv; chan; steps = Array.of_list steps }

let gpu ?(input = 2) ?(output = 2) ?(scratch = 0) gpu_id tbs =
  {
    Ir.gpu_id;
    input_chunks = input;
    output_chunks = output;
    scratch_chunks = scratch;
    tbs = Array.of_list tbs;
  }

let mk_ir ?(name = "hand-built") collective gpus =
  { Ir.name; collective; proto = T.Protocol.Simple; gpus = Array.of_list gpus }

let allreduce_ir ?name ~ranks gpus =
  mk_ir ?name
    (Collective.make Collective.Allreduce ~num_ranks:ranks ~chunk_factor:2 ())
    gpus

(* ------------------------------------------------------------------ *)
(* Lower-bound certificate on compiled algorithms                      *)
(* ------------------------------------------------------------------ *)

(* The acceptance pin: a single-node ring allreduce is bandwidth-optimal
   in the α–β–γ model, so its efficiency must certify as ≥ 0.9 (it is in
   fact 1.0 up to rounding) and produce no below-bandwidth-optimal
   finding at any size. *)
let test_ring_allreduce_efficient () =
  let topo = topo_of "ndv4:1" in
  let ir = build_algo "ring-allreduce" in
  let report, diags =
    Perfcheck.lint ~topo ~size_bytes:(32 * 1024 * 1024) ir
  in
  Alcotest.(check bool)
    (Printf.sprintf "bw efficiency %f >= 0.9" report.Perfcheck.bw_efficiency)
    true
    (report.Perfcheck.bw_efficiency >= 0.9);
  Alcotest.(check bool) "bw efficiency <= 1 + eps" true
    (report.Perfcheck.bw_efficiency <= 1.0 +. 1e-9);
  Alcotest.(check int) "no below-bandwidth-optimal finding" 0
    (List.length (rule_diags "below-bandwidth-optimal" diags))

(* A flat ring across two NDv4 nodes funnels all traffic through one NIC
   pair per node — the paper's motivating inefficiency. The certificate
   must expose it. *)
let test_flat_ring_two_nodes_flagged () =
  let topo = topo_of "ndv4:2" in
  let ir =
    build_algo
      ~params:{ H.Registry.default_params with H.Registry.nodes = 2 }
      "ring-allreduce"
  in
  let report, diags = Perfcheck.lint ~topo ir in
  Alcotest.(check bool) "efficiency below 0.2" true
    (report.Perfcheck.bw_efficiency < 0.2);
  Alcotest.(check bool) "below-bandwidth-optimal flagged" true
    (rule_diags "below-bandwidth-optimal" diags <> []);
  Alcotest.(check bool) "NIC hotspot flagged" true
    (rule_diags "link-hotspot" diags <> [])

(* The bound's structure: bandwidth and compute terms scale linearly with
   the size, latency does not, and the efficiency ratio is
   size-independent. *)
let test_bound_scales_with_size () =
  let topo = topo_of "ndv4:1" in
  let ir = build_algo "ring-allreduce" in
  let r1 = Perfcheck.analyze ~topo ~size_bytes:(1 lsl 20) ir in
  let r2 = Perfcheck.analyze ~topo ~size_bytes:(1 lsl 21) ir in
  let close what a b =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %g vs %g" what a b)
      true
      (Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a))
  in
  close "bandwidth doubles"
    (2. *. r1.Perfcheck.bound.Perfcheck.lb_bandwidth)
    r2.Perfcheck.bound.Perfcheck.lb_bandwidth;
  close "compute doubles"
    (2. *. r1.Perfcheck.bound.Perfcheck.lb_compute)
    r2.Perfcheck.bound.Perfcheck.lb_compute;
  close "latency unchanged" r1.Perfcheck.bound.Perfcheck.lb_latency
    r2.Perfcheck.bound.Perfcheck.lb_latency;
  close "bw efficiency size-independent" r1.Perfcheck.bw_efficiency
    r2.Perfcheck.bw_efficiency

(* Closed-form check of the allreduce bandwidth bound: 2(P-1)/P × size
   over the egress capacity of one rank (all its routes share the one
   egress resource on the hierarchical preset). *)
let test_allreduce_bound_closed_form () =
  let topo = topo_of "custom:1:4" in
  let ir =
    build_algo
      ~params:{ H.Registry.default_params with H.Registry.gpus_per_node = 4 }
      "ring-allreduce"
  in
  let size = 1 lsl 20 in
  let r = Perfcheck.analyze ~topo ~size_bytes:size ir in
  let cap = T.Topology.route_bandwidth topo ~src:0 ~dst:1 in
  let expected = 2. *. 3. /. 4. *. float_of_int size /. cap in
  Alcotest.(check bool)
    (Printf.sprintf "lb_bandwidth %g = %g"
       r.Perfcheck.bound.Perfcheck.lb_bandwidth expected)
    true
    (Float.abs (r.Perfcheck.bound.Perfcheck.lb_bandwidth -. expected)
    <= 1e-9 *. expected)

let test_rank_mismatch_rejected () =
  let topo = topo_of "ndv4:2" in
  let ir = build_algo "ring-allreduce" in
  match Perfcheck.analyze ~topo ir with
  | _ -> Alcotest.fail "8-rank IR on 16-rank topology must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* below-bandwidth-optimal on a deliberately bad hand-built IR         *)
(* ------------------------------------------------------------------ *)

(* A star broadcast: the root sends the full buffer separately to each of
   the three peers, so its egress carries 3× the data the bound needs to
   move — efficiency exactly 1/3, under the 0.5 threshold. (The root
   keeps no local copy: a full-buffer copy at the much lower local
   bandwidth would dominate the β-only span and hide the congestion this
   test is about.) *)
let star_broadcast_ir () =
  let coll =
    Collective.make (Collective.Broadcast 0) ~num_ranks:4 ()
  in
  let send_tb id peer =
    tb ~send:peer id
      [ step 0 Instr.Send (Some (loc Buffer_id.Input 0 1)) None 1 ]
  in
  let recv_gpu r =
    gpu ~input:1 ~output:1 r
      [
        tb ~recv:0 0
          [
            step 0 Instr.Recv None
              (Some (loc ~rank:r Buffer_id.Output 0 1))
              1;
          ];
      ]
  in
  mk_ir ~name:"star-broadcast" coll
    [
      gpu ~input:1 ~output:1 0 [ send_tb 0 1; send_tb 1 2; send_tb 2 3 ];
      recv_gpu 1;
      recv_gpu 2;
      recv_gpu 3;
    ]

let test_star_broadcast_flagged () =
  let topo = topo_of "custom:1:4" in
  let ir = star_broadcast_ir () in
  Ir.validate ir;
  let report, diags = Perfcheck.lint ~topo ir in
  Alcotest.(check bool)
    (Printf.sprintf "efficiency %f is ~1/3" report.Perfcheck.bw_efficiency)
    true
    (Float.abs (report.Perfcheck.bw_efficiency -. (1. /. 3.)) < 1e-6);
  Alcotest.(check bool) "below-bandwidth-optimal flagged" true
    (rule_diags "below-bandwidth-optimal" diags <> [])

(* ------------------------------------------------------------------ *)
(* redundant-send                                                      *)
(* ------------------------------------------------------------------ *)

(* Rank 0 sends the same input chunk twice; by the second delivery rank 1
   provably already holds it, so the dataflow pass must flag the second
   send — and locate it at the sender. *)
let redundant_send_ir () =
  allreduce_ir ~name:"redundant" ~ranks:2
    [
      gpu 0
        [
          tb ~send:1 0
            [
              step 0 Instr.Send (Some (loc Buffer_id.Input 0 1)) None 1;
              step 1 Instr.Send (Some (loc Buffer_id.Input 0 1)) None 1;
            ];
        ];
      gpu 1
        [
          tb ~recv:0 0
            [
              step 0 Instr.Recv None
                (Some (loc ~rank:1 Buffer_id.Output 0 1))
                1;
              step 1 Instr.Recv None
                (Some (loc ~rank:1 Buffer_id.Output 1 1))
                1;
            ];
        ];
    ]

let test_redundant_send_flagged () =
  let topo = topo_of "custom:1:2" in
  let ir = redundant_send_ir () in
  Ir.validate ir;
  let _, diags = Perfcheck.lint ~topo ir in
  match rule_diags "redundant-send" diags with
  | [ d ] ->
      Alcotest.(check bool) "located" true (d.Lint.d_at <> None);
      let at = Option.get d.Lint.d_at in
      Alcotest.(check int) "at sender gpu" 0 at.Lint.at_gpu;
      Alcotest.(check int) "at second send" 1 at.Lint.at_step
  | ds ->
      Alcotest.failf "expected exactly one redundant-send, got %d"
        (List.length ds)

(* The same shape sending two DIFFERENT chunks is not redundant. *)
let test_distinct_sends_not_flagged () =
  let topo = topo_of "custom:1:2" in
  let ir =
    allreduce_ir ~name:"distinct" ~ranks:2
      [
        gpu 0
          [
            tb ~send:1 0
              [
                step 0 Instr.Send (Some (loc Buffer_id.Input 0 1)) None 1;
                step 1 Instr.Send (Some (loc Buffer_id.Input 1 1)) None 1;
              ];
          ];
        gpu 1
          [
            tb ~recv:0 0
              [
                step 0 Instr.Recv None
                  (Some (loc ~rank:1 Buffer_id.Output 0 1))
                  1;
                step 1 Instr.Recv None
                  (Some (loc ~rank:1 Buffer_id.Output 1 1))
                  1;
              ];
          ];
      ]
  in
  let _, diags = Perfcheck.lint ~topo ir in
  Alcotest.(check int) "no redundant-send" 0
    (List.length (rule_diags "redundant-send" diags))

(* ------------------------------------------------------------------ *)
(* missed-fusion                                                       *)
(* ------------------------------------------------------------------ *)

(* Rank 1 receives into scratch and its very next step forwards exactly
   that interval to rank 2: a recv_copy_send in disguise. *)
let missed_fusion_ir () =
  allreduce_ir ~name:"bounce" ~ranks:3
    [
      gpu 0
        [
          tb ~send:1 0
            [ step 0 Instr.Send (Some (loc Buffer_id.Input 0 1)) None 1 ];
        ];
      gpu ~scratch:1 1
        [
          tb ~recv:0 ~send:2 0
            [
              step 0 Instr.Recv None
                (Some (loc ~rank:1 Buffer_id.Scratch 0 1))
                1;
              step 1 Instr.Send
                (Some (loc ~rank:1 Buffer_id.Scratch 0 1))
                None 1;
            ];
        ];
      gpu 2
        [
          tb ~recv:1 0
            [
              step 0 Instr.Recv None
                (Some (loc ~rank:2 Buffer_id.Output 0 1))
                1;
            ];
        ];
    ]

let test_missed_fusion_flagged () =
  let topo = topo_of "custom:1:3" in
  let ir = missed_fusion_ir () in
  Ir.validate ir;
  let _, diags = Perfcheck.lint ~topo ir in
  match rule_diags "missed-fusion" diags with
  | [ d ] ->
      Alcotest.(check bool) "info severity" true
        (d.Lint.d_severity = Lint.Info);
      let at = Option.get d.Lint.d_at in
      Alcotest.(check int) "at relay gpu" 1 at.Lint.at_gpu;
      Alcotest.(check int) "at the recv" 0 at.Lint.at_step
  | ds ->
      Alcotest.failf "expected exactly one missed-fusion, got %d"
        (List.length ds)

(* With a second reader of the scratch interval, the bounce is not
   removable and must not be flagged. *)
let test_scratch_with_second_reader_not_flagged () =
  let topo = topo_of "custom:1:3" in
  let base = missed_fusion_ir () in
  let g1 = base.Ir.gpus.(1) in
  let extra =
    tb 1
      [
        step 0 Instr.Copy
          (Some (loc ~rank:1 Buffer_id.Scratch 0 1))
          (Some (loc ~rank:1 Buffer_id.Output 0 1))
          1;
      ]
  in
  let ir =
    {
      base with
      Ir.gpus =
        Array.mapi
          (fun i g ->
            if i = 1 then
              { g1 with Ir.tbs = Array.append g1.Ir.tbs [| extra |] }
            else g)
          base.Ir.gpus;
    }
  in
  let _, diags = Perfcheck.lint ~topo ir in
  Alcotest.(check int) "no missed-fusion" 0
    (List.length (rule_diags "missed-fusion" diags))

(* ------------------------------------------------------------------ *)
(* tb-imbalance and link-hotspot                                       *)
(* ------------------------------------------------------------------ *)

let test_tb_imbalance_flagged () =
  let topo = topo_of "custom:1:1" in
  let copies n =
    List.init n (fun i ->
        step i Instr.Copy
          (Some (loc Buffer_id.Input 0 1))
          (Some (loc Buffer_id.Output 0 1))
          1)
  in
  let ir =
    allreduce_ir ~name:"straggler" ~ranks:1
      [ gpu 0 [ tb 0 (copies 10); tb 1 (copies 1); tb 2 (copies 1) ] ]
  in
  let _, diags = Perfcheck.lint ~topo ir in
  match rule_diags "tb-imbalance" diags with
  | [ d ] ->
      let at_msg = d.Lint.d_message in
      Alcotest.(check bool)
        (Printf.sprintf "names the straggler: %s" at_msg)
        true
        (String.length at_msg > 0)
  | ds ->
      Alcotest.failf "expected exactly one tb-imbalance, got %d"
        (List.length ds)

(* A ring where one link carries 10× the traffic of the others: its
   endpoints' resources are hotspots. *)
let test_link_hotspot_flagged () =
  let topo = topo_of "custom:1:4" in
  let sends ~rank ~peer n =
    tb ~send:peer 0
      (List.init n (fun i ->
           step i Instr.Send (Some (loc ~rank Buffer_id.Input 0 1)) None 1))
  in
  let recvs ~rank ~peer ~tb_id n =
    tb ~recv:peer tb_id
      (List.init n (fun i ->
           step i Instr.Recv None
             (Some (loc ~rank Buffer_id.Output 0 1))
             1))
  in
  let ring r hot =
    let next = (r + 1) mod 4 and prev = (r + 3) mod 4 in
    gpu r
      [
        sends ~rank:r ~peer:next (if r = 0 then hot else 1);
        recvs ~rank:r ~peer:prev ~tb_id:1 (if prev = 0 then hot else 1);
      ]
  in
  let ir =
    allreduce_ir ~name:"hot-ring" ~ranks:4 [ ring 0 10; ring 1 10; ring 2 10; ring 3 10 ]
  in
  Ir.validate ir;
  let report, diags = Perfcheck.lint ~topo ir in
  let hot = rule_diags "link-hotspot" diags in
  Alcotest.(check int) "both endpoint resources flagged" 2 (List.length hot);
  (* The busiest resource in the report is one of rank 0's. *)
  match report.Perfcheck.link_loads with
  | busiest :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "busiest is rank0's egress: %s"
           busiest.Perfcheck.ll_name)
        true
        (busiest.Perfcheck.ll_name = "rank0/egress"
        || busiest.Perfcheck.ll_name = "rank1/ingress")
  | [] -> Alcotest.fail "no link loads"

(* ------------------------------------------------------------------ *)
(* Weighted critical path and FIFO back-pressure                       *)
(* ------------------------------------------------------------------ *)

let chain_ir () =
  allreduce_ir ~name:"chain" ~ranks:2
    [
      gpu 0
        [
          tb ~send:1 0
            [
              step 0 Instr.Send (Some (loc Buffer_id.Input 0 1)) None 1;
              step 1 Instr.Send (Some (loc Buffer_id.Input 1 1)) None 1;
            ];
        ];
      gpu 1
        [
          tb ~recv:0 0
            [
              step 0 Instr.Recv None
                (Some (loc ~rank:1 Buffer_id.Output 0 1))
                1;
              step 1 Instr.Recv None
                (Some (loc ~rank:1 Buffer_id.Output 1 1))
                1;
            ];
        ];
    ]

(* With one FIFO slot the second send waits for the first receive:
   send0 → recv0 → send1 → recv1 lengthens the critical path to 4. *)
let test_fifo_backpressure_slots1 () =
  let ir = chain_ir () in
  Alcotest.(check int) "no back-pressure: path 3" 3
    (Hbgraph.longest_path (Hbgraph.build ir));
  Alcotest.(check int) "slots=1: path 4" 4
    (Hbgraph.longest_path (Hbgraph.build ~fifo_slots:1 ir));
  Alcotest.(check int) "slots=2: path 3" 3
    (Hbgraph.longest_path (Hbgraph.build ~fifo_slots:2 ir))

let test_weighted_parity_with_unit_weights () =
  List.iter
    (fun ir ->
      List.iter
        (fun hb ->
          Alcotest.(check (float 1e-9))
            "unit-weight longest path = integer longest path"
            (float_of_int (Hbgraph.longest_path hb))
            (Hbgraph.weighted_longest_path hb ~weight:(fun _ -> 1.)))
        [ Hbgraph.build ir; Hbgraph.build ~fifo_slots:1 ir ])
    [ chain_ir (); build_algo "ring-allreduce"; star_broadcast_ir () ]

let test_weighted_path_uses_weights () =
  let ir = chain_ir () in
  let hb = Hbgraph.build ir in
  (* Make the first send overwhelmingly heavy: the path is its weight
     plus the two receives on its downstream chain. *)
  let w i =
    let _, tbi, s = Hbgraph.coords hb i in
    ignore tbi;
    if s = 0 then 10. else 1.
  in
  (* Heaviest chain: send0 (10) → recv0 (10) → recv1 (1) = 21. *)
  Alcotest.(check (float 1e-9)) "weighted path" 21.
    (Hbgraph.weighted_longest_path hb ~weight:w)

(* ------------------------------------------------------------------ *)
(* Per-link aggregation in Analysis                                    *)
(* ------------------------------------------------------------------ *)

let test_analysis_link_aggregation () =
  (* Two channels between the same rank pair: two connections, one
     physical link. *)
  let send_tb id chan =
    tb ~send:1 ~chan id
      [ step 0 Instr.Send (Some (loc Buffer_id.Input id 1)) None 1 ]
  in
  let recv_tb id chan =
    tb ~recv:0 ~chan id
      [
        step 0 Instr.Recv None (Some (loc ~rank:1 Buffer_id.Output id 1)) 1;
      ]
  in
  let ir =
    allreduce_ir ~name:"two-chan" ~ranks:2
      [
        gpu 0 [ send_tb 0 0; send_tb 1 1 ];
        gpu 1 [ recv_tb 0 0; recv_tb 1 1 ];
      ]
  in
  Ir.validate ir;
  let a = Analysis.analyze ir in
  Alcotest.(check int) "two connections" 2 (List.length a.Analysis.connections);
  match a.Analysis.links with
  | [ l ] ->
      Alcotest.(check int) "src" 0 l.Analysis.link_src;
      Alcotest.(check int) "dst" 1 l.Analysis.link_dst;
      Alcotest.(check int) "channels" 2 l.Analysis.link_channels;
      Alcotest.(check int) "chunks" 2 l.Analysis.link_chunks;
      Alcotest.(check int) "max chunks per link" 2
        a.Analysis.max_chunks_per_link
  | ls -> Alcotest.failf "expected one link, got %d" (List.length ls)

(* ------------------------------------------------------------------ *)
(* Registry sweep                                                      *)
(* ------------------------------------------------------------------ *)

let test_run_perf_sweep () =
  let configs =
    [
      {
        H.Lint_sweep.c_label = "ndv4:1";
        c_nodes = 1;
        c_gpus = 8;
        c_proto = T.Protocol.Simple;
      };
    ]
  in
  let entries = H.Lint_sweep.run_perf ~configs () in
  Alcotest.(check int) "one entry per algorithm"
    (List.length H.Registry.all)
    (List.length entries);
  let analyzed =
    List.filter
      (fun e ->
        match e.H.Lint_sweep.p_outcome with
        | H.Lint_sweep.Analyzed _ -> true
        | H.Lint_sweep.Perf_skipped _ -> false)
      entries
  in
  Alcotest.(check bool) "most algorithms analyzed" true
    (List.length analyzed >= 14);
  let ring =
    List.find (fun e -> e.H.Lint_sweep.p_algo = "ring-allreduce") entries
  in
  match ring.H.Lint_sweep.p_outcome with
  | H.Lint_sweep.Analyzed { report; _ } ->
      Alcotest.(check bool) "ring allreduce efficient in sweep" true
        (report.Perfcheck.bw_efficiency >= 0.9)
  | H.Lint_sweep.Perf_skipped m ->
      Alcotest.failf "ring-allreduce skipped: %s" m

let test_report_json_well_formed () =
  let topo = topo_of "ndv4:1" in
  let ir = build_algo "ring-allreduce" in
  let report, diags = Perfcheck.lint ~topo ir in
  let json = Perfcheck.report_json report in
  Alcotest.(check bool) "object" true
    (String.length json > 2 && json.[0] = '{'
    && json.[String.length json - 1] = '}');
  List.iter
    (fun key ->
      let needle = Printf.sprintf "\"%s\":" key in
      let found =
        let n = String.length json and m = String.length needle in
        let rec go i =
          i + m <= n && (String.sub json i m = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (needle ^ " present") true found)
    [
      "size_bytes"; "lb_latency"; "lb_bandwidth"; "lb_compute"; "lb_total";
      "span"; "span_bw"; "congestion"; "estimate"; "bw_efficiency";
      "time_efficiency"; "links"; "tb_loads";
    ];
  ignore diags

(* Perf rules must all be registered in the lint rule table (Lint.diag
   would raise otherwise) and carry the Perf category. *)
let test_perf_rules_registered () =
  List.iter
    (fun id ->
      match List.find_opt (fun r -> r.Lint.rule_id = id) Lint.rules with
      | None -> Alcotest.failf "rule %s not registered" id
      | Some r ->
          Alcotest.(check bool) (id ^ " is perf-category") true
            (r.Lint.rule_category = Lint.Perf))
    [
      "below-bandwidth-optimal"; "link-hotspot"; "tb-imbalance";
      "redundant-send"; "missed-fusion";
    ];
  List.iter
    (fun (r : Lint.rule) ->
      if r.Lint.rule_category = Lint.Correctness then
        Alcotest.(check bool)
          (r.Lint.rule_id ^ " correctness rules unchanged")
          true
          (List.mem r.Lint.rule_id
             [
               "race"; "fifo-deadlock"; "conn-mismatch"; "dangling-depends";
               "oob-access"; "dead-scratch"; "channel-contention";
               "unused-scratch"; "uninitialized-read"; "dead-store";
               "unread-scratch";
             ]))
    Lint.rules

(* The bound is a certificate, so it must sit below the simulator for
   every algorithm the registry can build: a simulated execution models
   strictly more constraints (thread-block serialization, FIFO slots,
   launch-free kernel time still includes α per message) than the
   α–β–γ floor. Swept table-driven across the registry on two cluster
   shapes. *)
let test_bound_never_exceeds_simulation () =
  let configs = [ (1, 8); (2, 8) ] in
  let analyzed = ref 0 in
  List.iter
    (fun (spec : H.Registry.spec) ->
      List.iter
        (fun (nodes, gpus_per_node) ->
          let params =
            {
              H.Registry.default_params with
              H.Registry.nodes;
              gpus_per_node;
              verify = false;
            }
          in
          match spec.H.Registry.build params with
          | exception _ -> ()
          | ir -> (
              let topo = T.Presets.hierarchical ~nodes ~gpus_per_node () in
              let buffer_bytes = float_of_int Perfcheck.default_size_bytes in
              match
                Simulator.run_buffer ~topo ~buffer_bytes
                  ~check_occupancy:false ir
              with
              | exception Simulator.Sim_error _ -> ()
              | sim ->
                  incr analyzed;
                  let pc = Perfcheck.analyze ~topo ir in
                  let lb = Perfcheck.lb_total pc.Perfcheck.bound in
                  if sim.Simulator.kernel_time < lb *. (1. -. 1e-6) then
                    Alcotest.failf
                      "%s on %dx%d: simulated kernel %.3f us beats the \
                       lower bound %.3f us"
                      spec.H.Registry.name nodes gpus_per_node
                      (sim.Simulator.kernel_time *. 1e6)
                      (lb *. 1e6)))
        configs)
    H.Registry.all;
  if !analyzed < 12 then
    Alcotest.failf "only %d registry configurations simulated" !analyzed

(* ------------------------------------------------------------------ *)
(* Differential: the one-walk cuts against per-cut reference walks     *)
(* ------------------------------------------------------------------ *)

(* The reference walks every route once per cut, keeping the cut's
   routes by predicate, exactly as the bound was first defined. *)
let reference_cut topo ~first pred =
  let seen = Hashtbl.create 8 in
  let unbounded = ref false in
  T.Topology.fold_routes topo
    (fun () ~src ~dst rt ->
      if pred ~src ~dst then
        match rt.T.Topology.hops with
        | [] -> unbounded := true
        | h :: _ when first -> Hashtbl.replace seen h ()
        | hops ->
            Hashtbl.replace seen (List.nth hops (List.length hops - 1)) ())
    ();
  if !unbounded then infinity
  else
    Hashtbl.fold
      (fun h () acc -> acc +. T.Topology.resource_capacity topo h)
      seen 0.

let reference_min_alpha topo keep =
  T.Topology.fold_routes topo
    (fun acc ~src ~dst rt ->
      if not (keep ~src ~dst) then acc
      else
        let a = rt.T.Topology.base_alpha in
        Some (match acc with None -> a | Some m -> Float.min m a))
    None

let reference_cuts topo =
  let node_of = T.Topology.node_of topo in
  let per n f = Array.init n f in
  let p = T.Topology.num_ranks topo and nn = T.Topology.num_nodes topo in
  {
    Perfcheck.c_rank_out =
      per p (fun r ->
          reference_cut topo ~first:true (fun ~src ~dst:_ -> src = r));
    c_rank_in =
      per p (fun r ->
          reference_cut topo ~first:false (fun ~src:_ ~dst -> dst = r));
    c_node_out =
      per nn (fun n ->
          reference_cut topo ~first:true (fun ~src ~dst ->
              node_of src = n && node_of dst <> n));
    c_node_in =
      per nn (fun n ->
          reference_cut topo ~first:false (fun ~src ~dst ->
              node_of src <> n && node_of dst = n));
    c_min_alpha = reference_min_alpha topo (fun ~src:_ ~dst:_ -> true);
    c_min_alpha_cross =
      reference_min_alpha topo (fun ~src ~dst -> node_of src <> node_of dst);
  }

let hex = Printf.sprintf "%h"
let hex_opt = Option.fold ~none:"none" ~some:hex

let check_cuts label (c : Perfcheck.cuts) (r : Perfcheck.cuts) =
  let arr what a b =
    Alcotest.(check (array string)) (label ^ " " ^ what) (Array.map hex b)
      (Array.map hex a)
  in
  arr "rank out" c.Perfcheck.c_rank_out r.Perfcheck.c_rank_out;
  arr "rank in" c.Perfcheck.c_rank_in r.Perfcheck.c_rank_in;
  arr "node out" c.Perfcheck.c_node_out r.Perfcheck.c_node_out;
  arr "node in" c.Perfcheck.c_node_in r.Perfcheck.c_node_in;
  Alcotest.(check string) (label ^ " min alpha")
    (hex_opt r.Perfcheck.c_min_alpha) (hex_opt c.Perfcheck.c_min_alpha);
  Alcotest.(check string) (label ^ " min cross alpha")
    (hex_opt r.Perfcheck.c_min_alpha_cross)
    (hex_opt c.Perfcheck.c_min_alpha_cross)

(* Exact (%h) agreement of the cuts and of analyze's bound with the
   reference, for every registry algorithm that builds on the shape. *)
let test_cuts_match_reference () =
  let analyzed = ref 0 in
  List.iter
    (fun label ->
      let topo = topo_of label in
      let reference = reference_cuts topo in
      check_cuts label (Perfcheck.cuts topo) reference;
      let params =
        {
          H.Registry.default_params with
          H.Registry.nodes = T.Topology.num_nodes topo;
          gpus_per_node = T.Topology.gpus_per_node topo;
          verify = false;
        }
      in
      List.iter
        (fun (spec : H.Registry.spec) ->
          match spec.H.Registry.build params with
          | exception _ -> ()
          | ir when Ir.num_ranks ir <> T.Topology.num_ranks topo -> ()
          | ir ->
              incr analyzed;
              let b = (Perfcheck.analyze ~topo ir).Perfcheck.bound in
              let r =
                Perfcheck.bound ~cuts:reference ~topo
                  ~size_bytes:Perfcheck.default_size_bytes ir
              in
              let what = label ^ " " ^ spec.H.Registry.name in
              Alcotest.(check (list string)) what
                (List.map hex
                   [
                     r.Perfcheck.lb_latency;
                     r.Perfcheck.lb_bandwidth;
                     r.Perfcheck.lb_compute;
                   ])
                (List.map hex
                   [
                     b.Perfcheck.lb_latency;
                     b.Perfcheck.lb_bandwidth;
                     b.Perfcheck.lb_compute;
                   ]))
        H.Registry.all)
    [ "ndv4:1"; "ndv4:2"; "dgx2:1"; "dgx1" ];
  if !analyzed < 30 then
    Alcotest.failf "only %d registry configurations compared" !analyzed

let () =
  Alcotest.run "perfcheck"
    [
      ( "bound",
        [
          Alcotest.test_case "ring allreduce certifies >= 0.9" `Quick
            test_ring_allreduce_efficient;
          Alcotest.test_case "flat two-node ring flagged" `Quick
            test_flat_ring_two_nodes_flagged;
          Alcotest.test_case "bound scales with size" `Quick
            test_bound_scales_with_size;
          Alcotest.test_case "allreduce closed form" `Quick
            test_allreduce_bound_closed_form;
          Alcotest.test_case "rank mismatch rejected" `Quick
            test_rank_mismatch_rejected;
          Alcotest.test_case "star broadcast flagged" `Quick
            test_star_broadcast_flagged;
          Alcotest.test_case "cuts match reference walk" `Quick
            test_cuts_match_reference;
        ] );
      ( "rules",
        [
          Alcotest.test_case "redundant send flagged" `Quick
            test_redundant_send_flagged;
          Alcotest.test_case "distinct sends clean" `Quick
            test_distinct_sends_not_flagged;
          Alcotest.test_case "missed fusion flagged" `Quick
            test_missed_fusion_flagged;
          Alcotest.test_case "second reader suppresses fusion" `Quick
            test_scratch_with_second_reader_not_flagged;
          Alcotest.test_case "tb imbalance flagged" `Quick
            test_tb_imbalance_flagged;
          Alcotest.test_case "link hotspot flagged" `Quick
            test_link_hotspot_flagged;
          Alcotest.test_case "perf rules registered" `Quick
            test_perf_rules_registered;
        ] );
      ( "paths",
        [
          Alcotest.test_case "fifo back-pressure at slots=1" `Quick
            test_fifo_backpressure_slots1;
          Alcotest.test_case "unit-weight parity" `Quick
            test_weighted_parity_with_unit_weights;
          Alcotest.test_case "weights shape the path" `Quick
            test_weighted_path_uses_weights;
        ] );
      ( "integration",
        [
          Alcotest.test_case "analysis link aggregation" `Quick
            test_analysis_link_aggregation;
          Alcotest.test_case "registry perf sweep" `Quick
            test_run_perf_sweep;
          Alcotest.test_case "report json well-formed" `Quick
            test_report_json_well_formed;
          Alcotest.test_case "bound never exceeds simulation" `Quick
            test_bound_never_exceeds_simulation;
        ] );
    ]

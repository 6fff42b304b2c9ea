(* Timing simulator tests: protocol behavior, contention, occupancy,
   determinism (paper §6's runtime model). *)

open Msccl_core
module T = Msccl_topology
module A = Msccl_algorithms

let topo1 = T.Presets.ndv4 ~nodes:1

let time ?max_tiles ?(topo = topo1) ir bytes =
  (Simulator.run_buffer ~topo ~buffer_bytes:bytes ?max_tiles
     ~check_occupancy:false ir)
    .Simulator.time

let ring proto = A.Ring_allreduce.ir ~proto ~num_ranks:8 ()

let test_monotone_in_size () =
  let ir = ring T.Protocol.Simple in
  let rec go prev = function
    | [] -> ()
    | s :: rest ->
        let t = time ir s in
        Alcotest.(check bool) "monotone" true (t >= prev);
        go t rest
  in
  go 0. [ 1024.; 65536.; 1048576.; 16777216. ]

let test_protocol_tradeoff () =
  (* LL wins tiny buffers (lower alpha), Simple wins huge ones (full
     bandwidth) — the §6.1 protocol tradeoff. *)
  let ll = ring T.Protocol.LL and simple = ring T.Protocol.Simple in
  Alcotest.(check bool) "LL faster at 8KB" true (time ll 8192. < time simple 8192.);
  Alcotest.(check bool) "Simple faster at 256MB" true
    (time simple 268435456. < time ll 268435456.)

let test_parallelization_helps_large () =
  (* One thread block cannot saturate NVLink (§5.1): more instances win at
     large sizes, lose at small ones. *)
  let r1 = ring T.Protocol.Simple in
  let r8 = Instances.blocked r1 ~instances:8 in
  Alcotest.(check bool) "r8 faster at 256MB" true
    (time r8 268435456. < time r1 268435456.);
  Alcotest.(check bool) "r1 faster at 4KB" true (time r1 4096. < time r8 4096.)

let test_launch_overhead_visible () =
  let ir = ring T.Protocol.LL in
  let r = Simulator.run_buffer ~topo:topo1 ~buffer_bytes:1024. ir in
  Alcotest.(check bool) "kernel_time < time" true
    (r.Simulator.kernel_time < r.Simulator.time);
  Alcotest.(check bool) "time includes launch" true
    (r.Simulator.time >= T.Topology.launch_overhead topo1)

let test_occupancy_check () =
  let big = Instances.blocked (ring T.Protocol.Simple) ~instances:200 in
  match Simulator.run_buffer ~topo:topo1 ~buffer_bytes:1048576. big with
  | exception Simulator.Sim_error _ -> ()
  | _ -> Alcotest.fail "200 TBs per GPU accepted on 108 SMs"

let test_rank_mismatch () =
  let ir = A.Ring_allreduce.ir ~num_ranks:4 () in
  match Simulator.run_buffer ~topo:topo1 ~buffer_bytes:1024. ir with
  | exception Simulator.Sim_error _ -> ()
  | _ -> Alcotest.fail "4-rank IR on 8-GPU topology accepted"

(* A NaN or infinite chunk size used to reach the engine as NaN-byte
   flows and spin forever; it must be refused up front, naming the value. *)
let test_rejects_bad_chunk_bytes () =
  let ir = ring T.Protocol.Simple in
  List.iter
    (fun (chunk_bytes, expect) ->
      match Simulator.run ~topo:topo1 ~chunk_bytes ir with
      | exception Simulator.Sim_error msg ->
          Alcotest.(check string) "message" expect msg
      | _ -> Alcotest.failf "chunk_bytes %g accepted" chunk_bytes)
    [
      (nan, "chunk_bytes is NaN");
      (infinity, "chunk_bytes inf must be finite and positive");
      (0., "chunk_bytes 0 must be finite and positive");
    ];
  match Simulator.run_buffer ~topo:topo1 ~buffer_bytes:nan ir with
  | exception Simulator.Sim_error _ -> ()
  | _ -> Alcotest.fail "buffer_bytes nan accepted"

let test_deterministic () =
  let ir = A.Hierarchical_allreduce.ir ~nodes:2 ~gpus_per_node:8 () in
  let topo = T.Presets.ndv4 ~nodes:2 in
  let t1 = time ~topo ir 4194304. and t2 = time ~topo ir 4194304. in
  Alcotest.(check (float 0.)) "bit-identical" t1 t2

let test_tiles_cap () =
  let ir = ring T.Protocol.Simple in
  let r =
    Simulator.run_buffer ~topo:topo1 ~buffer_bytes:1073741824. ~max_tiles:2 ir
  in
  Alcotest.(check int) "respects max_tiles" 2 r.Simulator.tiles;
  let r1 =
    Simulator.run_buffer ~topo:topo1 ~buffer_bytes:1024. ~max_tiles:8 ir
  in
  Alcotest.(check int) "small buffers need one tile" 1 r1.Simulator.tiles

let test_wire_bytes_accounting () =
  (* A ring moves 2*(R-1)/R of the buffer per GPU; with LL the wire volume
     doubles. *)
  let bytes = 8388608. in
  let simple = Simulator.run_buffer ~topo:topo1 ~buffer_bytes:bytes (ring T.Protocol.Simple) in
  let ll = Simulator.run_buffer ~topo:topo1 ~buffer_bytes:bytes (ring T.Protocol.LL) in
  let expected = 8. *. bytes *. (2. *. 7. /. 8.) in
  Alcotest.(check bool) "simple wire volume" true
    (abs_float (simple.Simulator.wire_bytes -. expected) /. expected < 0.01);
  Alcotest.(check bool) "LL doubles wire bytes" true
    (abs_float ((ll.Simulator.wire_bytes /. simple.Simulator.wire_bytes) -. 2.)
    < 0.01)

let test_ib_serialization () =
  (* Two nodes: cross-node sends on one connection serialize on the NIC
     proxy, so doubling the message count roughly doubles the time at
     bandwidth-bound sizes. *)
  let topo = T.Presets.hierarchical ~nodes:2 ~gpus_per_node:1 () in
  let coll cf = Collective.make Collective.Alltonext ~num_ranks:2 ~chunk_factor:cf () in
  let one =
    Compile.ir ~verify:false (coll 1) (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c ~rank:1 Buffer_id.Output ~index:0 ()))
  in
  let t1 = time ~topo ~max_tiles:1 one 33554432. in
  let t_half = time ~topo ~max_tiles:1 one 16777216. in
  Alcotest.(check bool) "bandwidth bound" true (t1 > 1.7 *. t_half)

let test_algbw () =
  let r = Simulator.run_buffer ~topo:topo1 ~buffer_bytes:1048576. (ring T.Protocol.Simple) in
  Alcotest.(check (float 1e-6)) "algbw definition"
    (1048576. /. r.Simulator.time)
    (Simulator.algbw ~buffer_bytes:1048576. r)

(* ---- Simulated times, pinned ------------------------------------------ *)

(* One line per run: the [%h] (exact hexadecimal) time and kernel time,
   the engine's event count and the message count. A change to the event
   path that keeps every push in order and at its priority leaves every
   line, so every digest, as it is. *)
let result_line label (r : Simulator.result) =
  Printf.sprintf "%s %h %h %d %d\n" label r.Simulator.time
    r.Simulator.kernel_time r.Simulator.events r.Simulator.messages

let digest_of lines = Digest.to_hex (Digest.string (String.concat "" lines))

(* Every registry shape, with ndv4 at one node per 8 ranks of its IR (a
   few algorithms build a fixed rank count whatever the shape asks). *)
let registry_runs =
  lazy
    (List.map
       (fun shape ->
         let ir = Testutil.registry_ir shape in
         let topo = T.Presets.ndv4 ~nodes:(Ir.num_ranks ir / 8) in
         (Testutil.shape_label shape, topo, ir))
       Testutil.registry_shapes)

let registry_lines buffer_bytes =
  List.map
    (fun (label, topo, ir) ->
      result_line label
        (Simulator.run_buffer ~topo ~buffer_bytes ~check_occupancy:false ir))
    (Lazy.force registry_runs)

let test_registry_digests () =
  List.iter
    (fun (bytes, want) ->
      Alcotest.(check string)
        (Printf.sprintf "registry at %.0f bytes" bytes)
        want
        (digest_of (registry_lines bytes)))
    [
      (1024., "a463e87a7f105fc9b1e105ad541fbfe4");
      (1048576., "f8e90170091d23ead90efb69f5fc2a9b");
      (268435456., "d03b75dc26aebfa17a0c6217ad45998f");
    ]

(* Every tuner candidate on ndv4 at 1, 2 and 4 nodes, at the tune-sweep
   grid (1 KiB times 4^i, i < 11), with the candidate's own tile cap: the
   shapes the registry digests miss (ring r=24, hierarchical at
   [max_tiles:16], two-step AllToAll). *)
let test_tuner_digest () =
  let module Tn = Msccl_harness.Tuner in
  let sizes = List.init 11 (fun i -> 1024. *. (4. ** float_of_int i)) in
  let lines =
    List.concat_map
      (fun nodes ->
        let topo = T.Presets.ndv4 ~nodes in
        List.concat_map
          (fun (c : Tn.candidate) ->
            List.map
              (fun buffer_bytes ->
                result_line
                  (Printf.sprintf "ndv4:%d %s %.0f" nodes c.Tn.cand_name
                     buffer_bytes)
                  (Simulator.run_buffer ~topo ~buffer_bytes
                     ~max_tiles:c.Tn.cand_max_tiles ~check_occupancy:false
                     c.Tn.cand_ir))
              sizes)
          (Tn.allreduce_candidates topo @ Tn.alltoall_candidates topo))
      [ 1; 2; 4 ]
  in
  Alcotest.(check int) "runs" (11 * (5 + 5 + 5)) (List.length lines);
  Alcotest.(check string) "tuner candidates" "1ee8a6fb2105408fa875ab83b9116bb5"
    (digest_of lines)

let ring16 () = A.Ring_allreduce.ir ~num_ranks:16 ~channels:2 ()

let test_fault_digest () =
  let topo = T.Presets.ndv4 ~nodes:2 in
  let faults = Msccl_faults.Plan.random ~seed:3 ~severity:0.7 ~topo in
  let run ?faults () =
    Simulator.run_buffer ~topo ~buffer_bytes:4194304. ?faults (ring16 ())
  in
  let r = run ~faults () in
  Alcotest.(check bool) "the plan slows the run" true
    (r.Simulator.time > (run ()).Simulator.time);
  Alcotest.(check string) "seeded fault plan" "ac75d6bc5aa9c29998d3504a3cce5800"
    (digest_of [ result_line "ring@16 faults" r ])

let test_timeline_digest () =
  let topo = T.Presets.ndv4 ~nodes:2 in
  let timeline = Timeline.create () in
  let r =
    Simulator.run_buffer ~topo ~buffer_bytes:1048576. ~timeline (ring16 ())
  in
  Alcotest.(check string) "timeline on" "accf258a09fcefbebe5b19c4b613c9cb"
    (digest_of
       [
         result_line "ring@16 timeline" r;
         Timeline.to_chrome_json timeline;
       ])

let test_cohort_digest () =
  let p = 32 in
  let coll =
    Collective.make Collective.Allreduce ~num_ranks:p ~chunk_factor:p
      ~inplace:true ()
  in
  let rep =
    Replicate.run ~name:"ring"
      ~hint:(A.Ring_allreduce.hint ~num_ranks:p ~channels:1)
      coll
  in
  let r, co =
    Simulator.run_sym ~topo:(T.Presets.ndv4 ~nodes:4) ~chunk_bytes:65536.
      ~check_occupancy:false rep
  in
  Alcotest.(check (option string)) "cohort path" None co.Simulator.co_fallback;
  Alcotest.(check string) "cohort run" "31dc0cdee42b1ded86852f220717f5ae"
    (digest_of
       [
         result_line
           (Printf.sprintf "ring@32 cohort width %d" co.Simulator.co_width)
           r;
       ])

let () =
  Alcotest.run "simulator"
    [
      ( "model",
        [
          Testutil.tc "monotone in size" test_monotone_in_size;
          Testutil.tc "protocol tradeoff" test_protocol_tradeoff;
          Testutil.tc "parallelization" test_parallelization_helps_large;
          Testutil.tc "launch overhead" test_launch_overhead_visible;
          Testutil.tc "wire accounting" test_wire_bytes_accounting;
          Testutil.tc "IB proxy" test_ib_serialization;
        ] );
      ( "interface",
        [
          Testutil.tc "occupancy" test_occupancy_check;
          Testutil.tc "rank mismatch" test_rank_mismatch;
          Testutil.tc "bad chunk_bytes" test_rejects_bad_chunk_bytes;
          Testutil.tc "deterministic" test_deterministic;
          Testutil.tc "tile cap" test_tiles_cap;
          Testutil.tc "algbw" test_algbw;
        ] );
      ( "simulate digests",
        [
          Testutil.tc "registry" test_registry_digests;
          Testutil.tc "tuner candidates" test_tuner_digest;
          Testutil.tc "fault plan" test_fault_digest;
          Testutil.tc "timeline" test_timeline_digest;
          Testutil.tc "cohort" test_cohort_digest;
        ] );
    ]

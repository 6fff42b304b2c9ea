(* Benchmark harness.

   Two parts:

   1. Bechamel micro-benchmarks — one [Test.make] per paper experiment
      (fig8a..fig8h, fig11, e2e), each timing one representative simulation
      point of that experiment, so `dune exec bench/main.exe` doubles as a
      performance regression test of the compiler+simulator stack.

   2. Full reproduction — every figure's size sweep and the end-to-end
      table, printed with the same rows/series the paper reports. The
      headline numbers land in EXPERIMENTS.md. *)

open Bechamel
open Toolkit
module T = Msccl_topology
module A = Msccl_algorithms
module H = Msccl_harness
open Msccl_core

let sim ?(max_tiles = 4) topo ir buffer_bytes =
  (Simulator.run_buffer ~topo ~buffer_bytes ~max_tiles ~check_occupancy:false
     ir)
    .Simulator.time

let mib = 1024. *. 1024.

(* Representative simulation points, one per experiment. IRs are compiled
   once, outside the timed region. *)
let micro_tests () =
  let ndv4_1 = T.Presets.ndv4 ~nodes:1 in
  let ndv4_2 = T.Presets.ndv4 ~nodes:2 in
  let ndv4_3 = T.Presets.ndv4 ~nodes:3 in
  let ndv4_4 = T.Presets.ndv4 ~nodes:4 in
  let dgx2_1 = T.Presets.dgx2 ~nodes:1 in
  let dgx2_2 = T.Presets.dgx2 ~nodes:2 in
  let dgx1 = T.Presets.dgx1 () in
  let ring8 =
    A.Ring_allreduce.ir ~proto:T.Protocol.LL ~instances:8 ~num_ranks:8 ()
  in
  let ring16 =
    A.Ring_allreduce.ir ~proto:T.Protocol.LL ~instances:8 ~num_ranks:16 ()
  in
  let hier_a100 =
    A.Hierarchical_allreduce.ir ~proto:T.Protocol.LL128 ~instances:2 ~nodes:2
      ~gpus_per_node:8 ()
  in
  let hier_v100 =
    A.Hierarchical_allreduce.ir ~proto:T.Protocol.LL128 ~instances:2 ~nodes:2
      ~gpus_per_node:16 ~verify:false ()
  in
  let two_step_a100 =
    A.Two_step_alltoall.ir ~proto:T.Protocol.Simple ~verify:false ~nodes:4
      ~gpus_per_node:8 ()
  in
  let two_step_v100 =
    A.Two_step_alltoall.ir ~proto:T.Protocol.Simple ~verify:false ~nodes:2
      ~gpus_per_node:16 ()
  in
  let a2n_a100 =
    A.Alltonext.ir ~proto:T.Protocol.Simple ~instances:4 ~verify:false
      ~nodes:3 ~gpus_per_node:8 ()
  in
  let a2n_v100 =
    A.Alltonext.ir ~proto:T.Protocol.Simple ~instances:4 ~verify:false
      ~nodes:2 ~gpus_per_node:16 ()
  in
  let sccl_ag = A.Allgather_sccl.ir ~proto:T.Protocol.Sccl () in
  let allpairs =
    A.Allpairs_allreduce.ir ~proto:T.Protocol.LL ~instances:2 ~num_ranks:8 ()
  in
  let stage name f = Test.make ~name (Staged.stage f) in
  [
    stage "fig8a/ring-LL-r8@1MB" (fun () -> sim ndv4_1 ring8 mib);
    stage "fig8b/ring-LL-r8@1MB" (fun () -> sim dgx2_1 ring16 mib);
    stage "fig8c/hier-LL128-r2@4MB" (fun () -> sim ndv4_2 hier_a100 (4. *. mib));
    stage "fig8d/hier-LL128-r2@4MB" (fun () -> sim dgx2_2 hier_v100 (4. *. mib));
    stage "fig8e/two-step@16MB" (fun () -> sim ndv4_4 two_step_a100 (16. *. mib));
    stage "fig8f/two-step@16MB" (fun () -> sim dgx2_2 two_step_v100 (16. *. mib));
    stage "fig8g/alltonext-r4@16MB" (fun () -> sim ndv4_3 a2n_a100 (16. *. mib));
    stage "fig8h/alltonext-r4@16MB" (fun () -> sim dgx2_2 a2n_v100 (16. *. mib));
    stage "fig11/sccl-allgather@1MB" (fun () -> sim ~max_tiles:64 dgx1 sccl_ag mib);
    stage "e2e/allpairs-LL-r2@3MB" (fun () -> sim ndv4_1 allpairs (3. *. mib));
  ]

let run_micro () =
  let tests = micro_tests () in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0
      ~predictors:[| Measure.run |]
  in
  Printf.printf "== Bechamel micro-benchmarks (simulation cost per experiment point) ==\n";
  Printf.printf "%-28s %14s %10s\n" "experiment" "time/run" "r^2";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some (e :: _) -> e
            | Some [] | None -> nan
          in
          let r2 = Option.value ~default:nan (Analyze.OLS.r_square est) in
          let pretty =
            if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else Printf.sprintf "%.2f us" (ns /. 1e3)
          in
          Printf.printf "%-28s %14s %10.4f\n%!" (Test.Elt.name elt) pretty r2)
        (Test.elements test))
    tests;
  print_newline ()

(* Figures are independent sweeps returning pure report values, so they
   regenerate in parallel over the domain pool; printing stays in
   definition order. *)
let run_figures () =
  let figs =
    Msccl_parallel.Pool.map
      (fun (_, f) ->
        let t0 = Unix.gettimeofday () in
        let fig = f () in
        (fig, Unix.gettimeofday () -. t0))
      H.Figures.all
  in
  List.iter
    (fun (fig, dt) ->
      H.Report.print Format.std_formatter fig;
      print_string (H.Report.summarize fig);
      Printf.printf "  (regenerated in %.1fs)\n\n%!" dt)
    figs

let run_ablations () =
  List.iter
    (fun fig ->
      H.Report.print Format.std_formatter fig;
      print_string (H.Report.summarize fig);
      print_newline ())
    (Msccl_parallel.Pool.map (fun (_, f) -> f ()) H.Ablations.all)

let run_tuner () =
  Printf.printf "== tuner: automatic size-range selection (paper §6) ==\n";
  let topo1 = T.Presets.ndv4 ~nodes:1 in
  Format.printf "AllReduce, %a@." Msccl_topology.Topology.pp topo1;
  Format.printf "%a@." H.Tuner.pp_table
    (H.Tuner.tune ~topo:topo1
       ~nccl:(Msccl_baselines.Nccl_model.allreduce topo1)
       ~candidates:(H.Tuner.allreduce_candidates topo1)
       ());
  let topo4 = T.Presets.ndv4 ~nodes:4 in
  Format.printf "AllToAll, %a@." Msccl_topology.Topology.pp topo4;
  Format.printf "%a@." H.Tuner.pp_table
    (H.Tuner.tune ~topo:topo4
       ~nccl:(Msccl_baselines.Nccl_model.alltoall topo4)
       ~candidates:(H.Tuner.alltoall_candidates topo4)
       ~sizes:(H.Sweep.sizes_coarse ~from:(H.Sweep.kib 64.) ~upto:(H.Sweep.gib 1.))
       ())

let run_e2e () =
  let rows = H.E2e.run () in
  H.E2e.print Format.std_formatter rows

(* Wall-time of the registry-wide perfcheck sweep (every algorithm priced
   on every default config), written to BENCH_perfcheck.json so CI can
   track the analyzer's own cost over time. *)
let run_perfcheck () =
  let t0 = Unix.gettimeofday () in
  let entries = H.Lint_sweep.run_perf () in
  let dt = Unix.gettimeofday () -. t0 in
  let analyzed, skipped =
    List.fold_left
      (fun (a, s) e ->
        match e.H.Lint_sweep.p_outcome with
        | H.Lint_sweep.Analyzed _ -> (a + 1, s)
        | H.Lint_sweep.Perf_skipped _ -> (a, s + 1))
      (0, 0) entries
  in
  Printf.printf
    "== perfcheck sweep: %d configs (%d analyzed, %d skipped) in %.3f s ==\n"
    (List.length entries) analyzed skipped dt;
  let oc = open_out "BENCH_perfcheck.json" in
  Printf.fprintf oc
    "{\"benchmark\":\"perfcheck-sweep\",\"configs\":%d,\"analyzed\":%d,\
     \"skipped\":%d,\"wall_s\":%.6f}\n"
    (List.length entries) analyzed skipped dt;
  close_out oc;
  Printf.printf "wrote BENCH_perfcheck.json\n%!"

(* ------------------------------------------------------------------ *)
(* Scale benchmark: the full pipeline at cluster sizes                  *)
(* ------------------------------------------------------------------ *)

type scale_point = {
  sp_algo : string;
  sp_ranks : int;
  sp_compile_s : float;
  sp_verify_s : float;
  sp_races_s : float;
  (* Building the Presets.ndv4 topology the simulation runs on; timed on
     its own so simulate_s (and events/s) is the simulator alone.
     total_s still spans compile through simulate, topology included. *)
  sp_topology_s : float;
  sp_simulate_s : float;
  sp_total_s : float;
  sp_events : int;
  (* Quotient analysis under certified rank symmetry: inference time,
     race/lint time through one representative per orbit, and the orbit
     count. The quotient results are asserted identical to the full
     pass's before they are recorded. *)
  sp_infer_s : float;
  sp_races_q_s : float;
  sp_lint_s : float;
  sp_lint_q_s : float;
  (* Static chunk-provenance verification, full interpretation vs the
     orbit quotient; verdicts are asserted identical (and clean) before
     the times are recorded. *)
  sp_prov_s : float;
  sp_prov_q_s : float;
  sp_orbits : int;
  (* Symmetry-aware (replicated) compilation: trace one representative
     slice, instantiate every rank by index arithmetic, certify the rank
     permutation post hoc. The replicated IR is asserted identical
     (modulo program name) to the classic pipeline's before the time is
     recorded; ["none"] marks algorithms without a hint. *)
  sp_sym_compile_s : float;
  sp_sym_mode : string;
}

let scale_file = "BENCH_scale.json"

let wall = Unix.gettimeofday

(* One pipeline point: compile (no inline verify), then postcondition
   verification, race detection and a 1 MB cluster simulation, each timed
   separately. *)
let scale_point ?sym sp_algo sp_ranks build =
  Printf.printf "%-6s %5d ranks: %!" sp_algo sp_ranks;
  let t0 = wall () in
  let ir = build () in
  let t1 = wall () in
  (match Verify.check_postcondition ir with
  | Ok () -> ()
  | Error _ -> failwith (sp_algo ^ ": postcondition mismatch at scale"));
  let t2 = wall () in
  let races = Races.find ir in
  if races <> [] then failwith (sp_algo ^ ": races found at scale");
  let t3 = wall () in
  let topo = T.Presets.ndv4 ~nodes:(sp_ranks / 8) in
  let t3_topo = wall () in
  let r =
    Simulator.run_buffer ~topo ~buffer_bytes:mib ~check_occupancy:false ir
  in
  let t4 = wall () in
  (* Quotient block, timed after the classic pipeline so total_s stays
     comparable across revisions. Soundness is asserted, not assumed:
     quotient races must equal the full pass's and quotient lint must be
     as clean as full lint. *)
  let inferred = Msccl_analysis.Symmetry.infer ir in
  let t5 = wall () in
  let orbit = inferred.Msccl_analysis.Symmetry.s_orbit in
  let qraces = Races.find ~orbit ir in
  let t6 = wall () in
  if qraces <> races then
    failwith (sp_algo ^ ": quotient races diverge from the full pass");
  let lint_full = Lint.run ir in
  let t7 = wall () in
  let lint_q = Lint.run ~orbit ir in
  let t8 = wall () in
  if Lint.has_errors lint_full || Lint.has_errors lint_q then
    failwith (sp_algo ^ ": lint errors at scale");
  let prov_full = Msccl_analysis.Provenance.analyze ~lints:false ir in
  let t9 = wall () in
  let prov_q =
    Msccl_analysis.Provenance.analyze ~symmetry:inferred ~lints:false ir
  in
  let t10 = wall () in
  (match
     ( prov_full.Msccl_analysis.Provenance.r_diags,
       prov_q.Msccl_analysis.Provenance.r_diags )
   with
  | [], [] -> ()
  | _ :: _, _ ->
      failwith (sp_algo ^ ": static provenance diagnostics at scale")
  | [], _ :: _ ->
      failwith (sp_algo ^ ": quotient provenance diverges from the full pass"));
  let prov_mode =
    match prov_q.Msccl_analysis.Provenance.r_mode with
    | Msccl_analysis.Provenance.Full -> "full-fallback"
    | Msccl_analysis.Provenance.Quotient _ -> "quotient"
  in
  (* Symmetry-aware compilation, certified, against the same program; the
     replicated IR must be the classic pipeline's byte for byte (the
     program name differs, nothing else may). *)
  let sym_compile_s, sym_mode =
    match sym with
    | None -> (0., "none")
    | Some (coll, prog, hint) ->
        let ts0 = wall () in
        let report, outcome =
          Msccl_analysis.Sym_compile.compile ~name:sp_algo
            ~proto:T.Protocol.Simple ~verify:false ~hint coll prog
        in
        let ts1 = wall () in
        (match outcome with
        | Msccl_analysis.Sym_compile.Fell_back m ->
            failwith (sp_algo ^ ": symmetry-aware compile fell back: " ^ m)
        | Msccl_analysis.Sym_compile.Replicated _ ->
            let sym_ir = report.Compile.ir in
            if not (Ir.equal { sym_ir with Ir.name = ir.Ir.name } ir) then
              failwith
                (sp_algo
               ^ ": replicated IR differs from the classic pipeline's"));
        (ts1 -. ts0, "replicated")
  in
  let p =
    {
      sp_algo;
      sp_ranks;
      sp_compile_s = t1 -. t0;
      sp_verify_s = t2 -. t1;
      sp_races_s = t3 -. t2;
      sp_topology_s = t3_topo -. t3;
      sp_simulate_s = t4 -. t3_topo;
      sp_total_s = t4 -. t0;
      sp_events = r.Simulator.events;
      sp_infer_s = t5 -. t4;
      sp_races_q_s = t6 -. t5;
      sp_lint_s = t7 -. t6;
      sp_lint_q_s = t8 -. t7;
      sp_prov_s = t9 -. t8;
      sp_prov_q_s = t10 -. t9;
      sp_orbits = Orbit.num_orbits orbit;
      sp_sym_compile_s = sym_compile_s;
      sp_sym_mode = sym_mode;
    }
  in
  Printf.printf
    "compile %.2fs  verify %.2fs  races %.2fs  topo %.2fs  simulate %.2fs  \
     total %.2fs (%d steps, %.0f events/s)\n       symmetry: infer %.2fs  %d orbit(s)  \
     races_q %.2fs (%.1fx)  lint %.2fs  lint_q %.2fs  prov %.2fs  \
     prov_q %.2fs (%.1fx, %s)\n"
    p.sp_compile_s p.sp_verify_s p.sp_races_s p.sp_topology_s p.sp_simulate_s
    p.sp_total_s (Ir.num_steps ir)
    (float_of_int p.sp_events /. p.sp_simulate_s)
    p.sp_infer_s p.sp_orbits p.sp_races_q_s
    (p.sp_races_s /. Float.max p.sp_races_q_s 1e-9)
    p.sp_lint_s p.sp_lint_q_s p.sp_prov_s p.sp_prov_q_s
    (p.sp_prov_s /. Float.max p.sp_prov_q_s 1e-9)
    prov_mode;
  if p.sp_sym_mode <> "none" then
    Printf.printf
      "       sym-compile: %.2fs (%.1fx vs full compile, %s, IR identical)\n"
      p.sp_sym_compile_s
      (p.sp_compile_s /. Float.max p.sp_sym_compile_s 1e-9)
      p.sp_sym_mode;
  Printf.printf "%!";
  p

let scale_points ~quick =
  let ranks = if quick then [ 64; 256 ] else [ 64; 256; 1024 ] in
  let allreduce n =
    Collective.make Collective.Allreduce ~num_ranks:n ~chunk_factor:n
      ~inplace:true ()
  in
  List.concat_map
    (fun n ->
      [
        ( "ring", n,
          (fun () ->
            A.Ring_allreduce.ir ~proto:T.Protocol.Simple ~verify:false
              ~num_ranks:n ()),
          Some
            ( allreduce n,
              A.Ring_allreduce.program ~num_ranks:n ~channels:1,
              A.Ring_allreduce.hint ~num_ranks:n ~channels:1 ) );
        ( "allpairs", n,
          (fun () ->
            A.Allpairs_allreduce.ir ~proto:T.Protocol.Simple ~verify:false
              ~num_ranks:n ()),
          Some
            ( allreduce n,
              A.Allpairs_allreduce.program ~num_ranks:n,
              A.Allpairs_allreduce.hint ~num_ranks:n ) );
        ( "hier", n,
          (fun () ->
            A.Hierarchical_allreduce.ir ~proto:T.Protocol.Simple
              ~verify:false ~nodes:(n / 8) ~gpus_per_node:8 ()),
          None );
      ])
    ranks

(* Frontier point: ring AllReduce at 4096 ranks through the symmetry-aware
   path end to end — replicated compile (the O(P) representative schedule;
   the O(P²) materialization is never forced) plus cohort simulation over
   the topology-certified rank-shift quotient. The classic pipeline needs
   ~30 s of compile alone at this size, so this row records the quotient
   path only; hint certification and replicated-vs-full IR identity are
   asserted at every ≤1024-rank point above and in the test suite. *)
let scale_point_sym_frontier () =
  let n = 4096 in
  Printf.printf "%-6s %5d ranks: %!" "ring" n;
  let t0 = wall () in
  let rep =
    Replicate.run ~proto:T.Protocol.Simple ~name:"ring-allreduce"
      ~hint:(A.Ring_allreduce.hint ~num_ranks:n ~channels:1)
      (Collective.make Collective.Allreduce ~num_ranks:n ~chunk_factor:n
         ~inplace:true ())
  in
  let t1 = wall () in
  let topo = T.Presets.ndv4 ~nodes:(n / 8) in
  let t2 = wall () in
  let r, cohort =
    Simulator.run_sym ~topo
      ~chunk_bytes:(mib /. float_of_int n)
      ~check_occupancy:false rep
  in
  let t3 = wall () in
  (match cohort.Simulator.co_fallback with
  | None -> ()
  | Some why ->
      failwith ("ring@4096: cohort simulation fell back (" ^ why ^ ")"));
  let p =
    {
      sp_algo = "ring";
      sp_ranks = n;
      sp_compile_s = t1 -. t0;
      sp_verify_s = 0.;
      sp_races_s = 0.;
      sp_topology_s = t2 -. t1;
      sp_simulate_s = t3 -. t2;
      sp_total_s = t3 -. t0;
      sp_events = r.Simulator.events;
      sp_infer_s = 0.;
      sp_races_q_s = 0.;
      sp_lint_s = 0.;
      sp_lint_q_s = 0.;
      sp_prov_s = 0.;
      sp_prov_q_s = 0.;
      sp_orbits = 1;
      sp_sym_compile_s = t1 -. t0;
      sp_sym_mode = "quotient";
    }
  in
  Printf.printf
    "replicate %.2fs  topo %.2fs  cohort-sim %.2fs  total %.2fs \
     (%d quotient events, %d ranks/cohort)\n%!"
    p.sp_compile_s p.sp_topology_s p.sp_simulate_s p.sp_total_s p.sp_events
    cohort.Simulator.co_width;
  p

let point_json p =
  Printf.sprintf
    "{\"algo\":\"%s\",\"ranks\":%d,\"compile_s\":%.3f,\"verify_s\":%.3f,\
     \"races_s\":%.3f,\"topology_s\":%.3f,\"simulate_s\":%.3f,\
     \"total_s\":%.3f,\"events\":%d,\
     \"events_per_s\":%.0f,\"symmetry_infer_s\":%.3f,\"races_quotient_s\":%.3f,\
     \"lint_s\":%.3f,\"lint_quotient_s\":%.3f,\"provenance_s\":%.3f,\
     \"provenance_quotient_s\":%.3f,\"orbits\":%d,\"sym_compile_s\":%.3f,\
     \"sym_mode\":\"%s\"}"
    p.sp_algo p.sp_ranks p.sp_compile_s p.sp_verify_s p.sp_races_s
    p.sp_topology_s p.sp_simulate_s p.sp_total_s p.sp_events
    (float_of_int p.sp_events /. p.sp_simulate_s)
    p.sp_infer_s p.sp_races_q_s p.sp_lint_s p.sp_lint_q_s p.sp_prov_s
    p.sp_prov_q_s p.sp_orbits p.sp_sym_compile_s p.sp_sym_mode

(* Minimal extraction from our own fixed serialization: every point object
   starts with {"algo": and carries a "total_s" field before its '}'. *)
let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then raise Not_found
    else if String.sub s i m = sub then i
    else go (i + 1)
  in
  go from

let baseline_points path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let pts = ref [] in
    let i = ref 0 in
    (try
       while true do
         let start = find_sub s "{\"algo\":\"" !i in
         let stop = String.index_from s start '}' in
         let frag = String.sub s start (stop - start) in
         i := stop;
         let field name conv =
           let tag = Printf.sprintf "\"%s\":" name in
           let from = find_sub frag tag 0 + String.length tag in
           let upto = ref from in
           while
             !upto < String.length frag
             && (match frag.[!upto] with
                | '0' .. '9' | '.' | '-' | 'e' -> true
                | _ -> false)
           do
             incr upto
           done;
           conv (String.sub frag from (!upto - from))
         in
         let algo =
           let from = start + String.length "{\"algo\":\"" in
           String.sub s from (String.index_from s from '"' - from)
         in
         pts := (algo, field "ranks" int_of_string, field "total_s" float_of_string) :: !pts
       done
     with Not_found -> ());
    List.rev !pts
  end

(* Whole-registry quotient soundness gate: for every registered
   algorithm at its default shape, quotient race findings must equal the
   full pass's, and the quotient provenance verdict must equal the full
   one. Certification failures are fine (the quotient degenerates to the
   full pass); divergence is a hard failure. *)
let quotient_registry_gate () =
  let t0 = wall () in
  let checked = ref 0 in
  List.iter
    (fun spec ->
      match spec.H.Registry.build H.Registry.default_params with
      | exception _ -> () (* shape unsupported *)
      | ir ->
          let s = Msccl_analysis.Symmetry.infer ir in
          let orbit = s.Msccl_analysis.Symmetry.s_orbit in
          if Races.find ~orbit ir <> Races.find ir then
            failwith
              (spec.H.Registry.name
             ^ ": quotient races diverge from the full pass");
          (match
             ( Msccl_analysis.Provenance.check ir,
               Msccl_analysis.Provenance.check ~symmetry:s ir )
           with
          | Ok (), Ok () -> ()
          | _ ->
              failwith
                (spec.H.Registry.name
               ^ ": provenance verdicts diverge on registry output"));
          incr checked)
    H.Registry.all;
  Printf.printf
    "registry quotient soundness: %d algorithm(s) identical (%.2fs)\n%!"
    !checked (wall () -. t0);
  !checked

let run_scale ~quick ~check () =
  let baseline = if check then baseline_points scale_file else [] in
  Printf.printf "== scale: full pipeline at cluster sizes%s ==\n%!"
    (if quick then " (quick)" else "");
  let quotient_algos = quotient_registry_gate () in
  let classic =
    List.map
      (fun (a, n, build, sym) -> scale_point ?sym a n build)
      (scale_points ~quick)
  in
  let points = classic @ [ scale_point_sym_frontier () ] in
  (* Parallel speedup of the registry sweep. The whole sweep runs in
     ~150 ms, so a single timing of each configuration is dominated by
     scheduler noise (it has honestly reported <1x on loaded hosts); take
     the min over alternating repetitions instead, and compare the two
     outputs once. On a single-core host this still reports ~1x. *)
  let s1 = H.Lint_sweep.run ~jobs:1 () in
  let s8 = H.Lint_sweep.run ~jobs:8 () in
  if s1 <> s8 then failwith "registry sweep: jobs=1 and jobs=8 outputs differ";
  let time_sweep jobs =
    Gc.full_major ();
    let t = wall () in
    ignore (H.Lint_sweep.run ~jobs ());
    wall () -. t
  in
  let reps = 7 in
  let jobs1_s = ref infinity and jobs8_s = ref infinity in
  for rep = 1 to reps do
    (* Alternate which configuration goes first so heap drift over the
       repetitions cannot bias one side. *)
    let first, second = if rep land 1 = 1 then (1, 8) else (8, 1) in
    let tf = time_sweep first and ts = time_sweep second in
    let t1, t8 = if first = 1 then (tf, ts) else (ts, tf) in
    jobs1_s := Float.min !jobs1_s t1;
    jobs8_s := Float.min !jobs8_s t8
  done;
  let jobs1_s = !jobs1_s and jobs8_s = !jobs8_s in
  Printf.printf
    "registry sweep: jobs=1 %.2fs, jobs=8 %.2fs (%.2fx, min of %d reps, \
     outputs identical)\n%!"
    jobs1_s jobs8_s (jobs1_s /. jobs8_s) reps;
  let oc = open_out scale_file in
  Printf.fprintf oc
    "{\"benchmark\":\"scale\",\"quick\":%b,\"points\":[%s],\
     \"registry_sweep\":{\"jobs1_s\":%.3f,\"jobs8_s\":%.3f,\"speedup\":%.3f},\
     \"quotient_gate\":{\"algorithms\":%d,\"identical\":true}}\n"
    quick
    (String.concat "," (List.map point_json points))
    jobs1_s jobs8_s (jobs1_s /. jobs8_s)
    quotient_algos;
  close_out oc;
  Printf.printf "wrote %s\n%!" scale_file;
  if check then begin
    let tolerance = 1.25 in
    (* Quotient provenance must never be slower than the full pass (the
       orbit-count cost gate exists precisely to guarantee this); 50 ms of
       absolute slack keeps sub-centisecond points from flaking. *)
    List.iter
      (fun p ->
        if p.sp_prov_q_s > (p.sp_prov_s *. tolerance) +. 0.05 then begin
          Printf.printf
            "REGRESSION %s@%d: quotient provenance %.3fs slower than full \
             %.3fs\n"
            p.sp_algo p.sp_ranks p.sp_prov_q_s p.sp_prov_s;
          exit 1
        end)
      points;
    (* Headline gates: the frontier row must land inside the 1024-rank
       seed's end-to-end budget, and (full runs) symmetry-aware compile
       at 1024 ranks must be at least 5x the classic compile. *)
    (match
       List.find_opt (fun p -> p.sp_ranks = 4096 && p.sp_algo = "ring") points
     with
    | None -> ()
    | Some p ->
        if p.sp_total_s > 36.1 then begin
          Printf.printf
            "REGRESSION ring@4096: %.2fs exceeds the 36.1s ring@1024 seed \
             budget\n"
            p.sp_total_s;
          exit 1
        end);
    if not quick then begin
      match
        List.find_opt
          (fun p -> p.sp_ranks = 1024 && p.sp_algo = "ring")
          points
      with
      | None -> ()
      | Some p ->
          let speedup = p.sp_compile_s /. Float.max p.sp_sym_compile_s 1e-9 in
          if speedup < 5. then begin
            Printf.printf
              "REGRESSION ring@1024: sym compile %.2fs is only %.1fx the \
               classic %.2fs (need >=5x)\n"
              p.sp_sym_compile_s speedup p.sp_compile_s;
            exit 1
          end
    end;
    let regressed =
      List.filter_map
        (fun p ->
          match
            List.find_opt
              (fun (a, n, _) -> a = p.sp_algo && n = p.sp_ranks)
              baseline
          with
          | Some (_, _, base) when p.sp_total_s > base *. tolerance ->
              Some (p, base)
          | Some _ | None -> None)
        points
    in
    List.iter
      (fun (p, base) ->
        Printf.printf
          "REGRESSION %s@%d: %.2fs vs baseline %.2fs (>%.0f%%)\n" p.sp_algo
          p.sp_ranks p.sp_total_s base
          ((tolerance -. 1.) *. 100.))
      regressed;
    if baseline = [] then
      Printf.printf "no committed baseline points; check skipped\n%!"
    else if regressed = [] then Printf.printf "within %.0f%% of baseline\n%!"
        ((tolerance -. 1.) *. 100.)
    else exit 1
  end

(* Chaos degradation curve: ring and hierarchical allreduce at 64 ranks
   (ndv4, 8 nodes) with one cross-node NIC degraded 0..90%. The NIC is
   node0/nic7/out, which carries the ring link 7->8 and gpu 7's
   inter-node ring in the hierarchical algorithm, so both curves move.
   The knee sits where the degraded IB line rate drops below the
   per-thread-block cap (13/25 GB/s, severity ~0.48); below it the curve
   is honestly flat because a single flow never saturated the link. *)
let chaos_file = "BENCH_chaos.json"

let run_chaos () =
  Printf.printf "== chaos: degradation curves at 64 ranks ==\n%!";
  let topo = T.Presets.ndv4 ~nodes:8 in
  let resource = "node0/nic7/out" in
  let algos =
    [
      ( "ring-allreduce",
        A.Ring_allreduce.ir ~proto:T.Protocol.Simple ~verify:false
          ~num_ranks:64 () );
      ( "hierarchical-allreduce",
        A.Hierarchical_allreduce.ir ~proto:T.Protocol.Simple ~verify:false
          ~nodes:8 ~gpus_per_node:8 () );
    ]
  in
  let severities = [ 0.0; 0.15; 0.3; 0.45; 0.6; 0.75; 0.9 ] in
  (* Large enough that transfers are bandwidth-bound, not α-bound. *)
  let bytes = 64. *. mib in
  let points =
    List.concat_map
      (fun (name, ir) ->
        let baseline = sim topo ir bytes in
        List.map
          (fun sev ->
            let faults =
              Msccl_faults.Plan.make
                ~name:(Printf.sprintf "degrade-nic(severity=%g)" sev)
                [
                  Msccl_faults.Plan.Degrade
                    {
                      target = Msccl_faults.Plan.Resource_named resource;
                      factor = 1. -. sev;
                      from_s = 0.;
                      until_s = None;
                    };
                ]
            in
            let t =
              (Simulator.run_buffer ~topo ~buffer_bytes:bytes
                 ~check_occupancy:false ~faults ir)
                .Simulator.time
            in
            let d = t /. baseline in
            Printf.printf "%-24s severity %.2f: %9.3f ms (x%.3f)\n%!" name sev
              (t *. 1e3) d;
            (name, sev, t, baseline, d))
          severities)
      algos
  in
  let oc = open_out chaos_file in
  Printf.fprintf oc
    "{\"benchmark\":\"chaos\",\"ranks\":64,\"buffer_bytes\":%.0f,\
     \"resource\":\"%s\",\"points\":[%s]}\n"
    bytes resource
    (String.concat ","
       (List.map
          (fun (name, sev, t, base, d) ->
            Printf.sprintf
              "{\"algo\":\"%s\",\"severity\":%.2f,\"time_s\":%.9e,\
               \"baseline_s\":%.9e,\"degradation\":%.6f}"
              name sev t base d)
          points));
  close_out oc;
  Printf.printf "wrote %s\n%!" chaos_file

let () =
  let which = if Array.length Sys.argv > 1 then Some Sys.argv.(1) else None in
  let has flag =
    Array.exists (fun a -> a = flag) Sys.argv
  in
  match which with
  | Some "micro" -> run_micro ()
  | Some "figures" -> run_figures ()
  | Some "ablations" -> run_ablations ()
  | Some "tuner" -> run_tuner ()
  | Some "e2e" -> run_e2e ()
  | Some "perfcheck" -> run_perfcheck ()
  | Some "scale" -> run_scale ~quick:(has "--quick") ~check:(has "--check") ()
  | Some "chaos" -> run_chaos ()
  | Some other ->
      Printf.eprintf
        "unknown selector %S (expected \
         micro|figures|ablations|tuner|e2e|perfcheck|scale|chaos)\n"
        other;
      exit 1
  | None ->
      run_micro ();
      run_figures ();
      run_ablations ();
      run_tuner ();
      run_e2e ();
      run_perfcheck ();
      run_scale ~quick:false ~check:false ()

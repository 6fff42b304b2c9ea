(* Benchmark harness: every figure's size sweep, the ablations, the tuner
   tables and the end-to-end table, printed with the same rows/series the
   paper reports (the headline numbers land in EXPERIMENTS.md), plus the
   toolchain's own perfcheck, scale and chaos benchmarks.

   Wall times come from perfbench's clock; the scale rows are calibrated
   the way perfbench calibrates an iteration (see perfbench/calib.ml). *)

module T = Msccl_topology
module A = Msccl_algorithms
module H = Msccl_harness
module Calib = Perfbench.Calib
module J = Perfbench.Json
open Msccl_core

let sim ?(max_tiles = 4) topo ir buffer_bytes =
  (Simulator.run_buffer ~topo ~buffer_bytes ~max_tiles ~check_occupancy:false
     ir)
    .Simulator.time

let mib = 1024. *. 1024.

(* [f ()] and its wall time in seconds. *)
let timed f =
  let t0 = Perfbench.Trace.now () in
  let x = f () in
  (x, Perfbench.Trace.now () -. t0)

(* Figures are independent sweeps returning pure report values, so they
   regenerate in parallel over the domain pool; printing stays in
   definition order. *)
let run_figures () =
  let figs =
    Msccl_parallel.Pool.map (fun (_, f) -> timed f) H.Figures.all
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
  let entries, dt = timed H.Lint_sweep.run_perf in
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

(* One scale row. [sp_times] holds the layers the row ran, as
   (JSON field, calibrated seconds) in field order; after [run_row], each
   is the median over [scale_runs] runs and [sp_spread] holds its
   (max - min) / median. *)
type scale_point = {
  sp_algo : string;
  sp_ranks : int;
  sp_times : (string * float) list;
  sp_spread : (string * float) list;
  sp_events : int;
  sp_orbits : int;
  (* Static chunk-provenance mode of the quotient pass ("quotient" or
     "full-fallback"); [None] when the row runs no provenance. *)
  sp_prov_mode : string option;
  (* "replicated" for a certified symmetry-aware compile, "quotient" for
     the frontier's replicated compile plus cohort simulation, "none" for
     algorithms without a hint. *)
  sp_sym_mode : string;
}

let time p field = List.assoc field p.sp_times

let scale_file = "BENCH_scale.json"

(* Calibrated layer timing, chained the way perfbench chains its
   iterations: a layer's time is scaled by the calibration kernel timed
   just before it and the one timed just after, which is also the next
   layer's "before". The result is in reference-host seconds. Host speed
   drifts within a multi-second row, so a kernel pair per layer tracks it
   where one pair around the whole row does not. [kernels] holds the
   row's kernel times, newest first. *)
type clock = { mutable kernels : float list }

let clock () = { kernels = [ Calib.measure () ] }

let calibrated clk f =
  let x, t = timed f in
  let k = Calib.measure () in
  let s = Calib.scale t (List.hd clk.kernels) k in
  clk.kernels <- k :: clk.kernels;
  (x, s)

(* One pipeline point: compile (no inline verify), then full
   verification (postcondition and deadlock freedom), race detection,
   the topology build and a 1 MB cluster simulation, each timed
   separately; total_s spans these five. *)
let scale_point ?sym clk sp_algo sp_ranks build =
  Printf.printf "%-6s %5d ranks: %!" sp_algo sp_ranks;
  let timed f = calibrated clk f in
  let ir, compile_s = timed build in
  let (), verify_s =
    timed (fun () ->
        match Verify.check ir with
        | Ok () -> ()
        | Error m -> failwith (sp_algo ^ ": verification failed at scale: " ^ m))
  in
  let races, races_s = timed (fun () -> Races.find ir) in
  if races <> [] then failwith (sp_algo ^ ": races found at scale");
  let topo, topology_s =
    timed (fun () -> T.Presets.ndv4 ~nodes:(sp_ranks / 8))
  in
  let r, simulate_s =
    timed (fun () ->
        Simulator.run_buffer ~topo ~buffer_bytes:mib ~check_occupancy:false ir)
  in
  (* Lint, symmetry and provenance, timed after the classic pipeline so
     total_s stays comparable across revisions. Soundness is asserted,
     not assumed: lint may report no error and the quotient provenance
     verdict must equal the full one. *)
  let lint, lint_s = timed (fun () -> Lint.run ir) in
  if Lint.has_errors lint then failwith (sp_algo ^ ": lint errors at scale");
  let inferred, infer_s =
    timed (fun () -> Msccl_analysis.Symmetry.infer ir)
  in
  let prov_full, prov_s =
    timed (fun () -> Msccl_analysis.Provenance.analyze ~lints:false ir)
  in
  let prov_q, prov_q_s =
    timed (fun () ->
        Msccl_analysis.Provenance.analyze ~symmetry:inferred ~lints:false ir)
  in
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
  let sym_times, sym_mode =
    match sym with
    | None -> ([], "none")
    | Some (coll, prog, hint) ->
        let (report, outcome), sym_compile_s =
          timed (fun () ->
              Msccl_analysis.Sym_compile.compile ~name:sp_algo
                ~proto:T.Protocol.Simple ~verify:false ~hint coll prog)
        in
        (match outcome with
        | Msccl_analysis.Sym_compile.Fell_back m ->
            failwith (sp_algo ^ ": symmetry-aware compile fell back: " ^ m)
        | Msccl_analysis.Sym_compile.Replicated _ ->
            let sym_ir = report.Compile.ir in
            if not (Ir.equal { sym_ir with Ir.name = ir.Ir.name } ir) then
              failwith
                (sp_algo
               ^ ": replicated IR differs from the classic pipeline's"));
        ([ ("sym_compile_s", sym_compile_s) ], "replicated")
  in
  {
    sp_algo;
    sp_ranks;
    sp_times =
      [
        ("compile_s", compile_s);
        ("verify_s", verify_s);
        ("races_s", races_s);
        ("topology_s", topology_s);
        ("simulate_s", simulate_s);
        ("total_s", compile_s +. verify_s +. races_s +. topology_s +. simulate_s);
        ("symmetry_infer_s", infer_s);
        ("lint_s", lint_s);
        ("provenance_s", prov_s);
        ("provenance_quotient_s", prov_q_s);
      ]
      @ sym_times;
    sp_spread = [];
    sp_events = r.Simulator.events;
    sp_orbits = Orbit.num_orbits inferred.Msccl_analysis.Symmetry.s_orbit;
    sp_prov_mode = Some prov_mode;
    sp_sym_mode = sym_mode;
  }

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
   path only, and only the layers it runs; hint certification and
   replicated-vs-full IR identity are asserted at every ≤1024-rank point
   above and in the test suite. *)
let scale_point_sym_frontier clk =
  let n = 4096 in
  Printf.printf "%-6s %5d ranks: %!" "ring" n;
  let timed f = calibrated clk f in
  let rep, compile_s =
    timed (fun () ->
        Replicate.run ~proto:T.Protocol.Simple ~name:"ring-allreduce"
          ~hint:(A.Ring_allreduce.hint ~num_ranks:n ~channels:1)
          (Collective.make Collective.Allreduce ~num_ranks:n ~chunk_factor:n
             ~inplace:true ()))
  in
  let topo, topology_s = timed (fun () -> T.Presets.ndv4 ~nodes:(n / 8)) in
  let (r, cohort), simulate_s =
    timed (fun () ->
        Simulator.run_sym ~topo
          ~chunk_bytes:(mib /. float_of_int n)
          ~check_occupancy:false rep)
  in
  (match cohort.Simulator.co_fallback with
  | None -> ()
  | Some why ->
      failwith ("ring@4096: cohort simulation fell back (" ^ why ^ ")"));
  Printf.printf "%d ranks/cohort, %!" cohort.Simulator.co_width;
  {
    sp_algo = "ring";
    sp_ranks = n;
    sp_times =
      [
        ("compile_s", compile_s);
        ("topology_s", topology_s);
        ("simulate_s", simulate_s);
        ("total_s", compile_s +. topology_s +. simulate_s);
        ("sym_compile_s", compile_s);
      ];
    sp_spread = [];
    sp_events = r.Simulator.events;
    sp_orbits = 1;
    sp_prov_mode = None;
    sp_sym_mode = "quotient";
  }

(* Runs per row. A single run of allpairs@256 varies by about 15% (its
   simulation), too close to the 25% gate; the median of three does
   not. *)
let scale_runs = 3

let print_times times =
  List.iter
    (fun (k, t) -> Printf.printf "%s %.2fs  " (Filename.chop_suffix k "_s") t)
    times

(* Runs one row [scale_runs] times, each on a fresh clock, printing each
   run's calibrated times, and returns the row with every layer's median
   and spread. *)
let run_row row =
  let runs =
    List.init scale_runs (fun _ ->
        let clk = clock () in
        let p = row clk in
        print_times p.sp_times;
        Printf.printf "calib %.1f ms\n%!"
          (1e3 *. List.fold_left ( +. ) 0. clk.kernels
          /. float_of_int (List.length clk.kernels));
        p)
  in
  let p = List.hd runs in
  let samples k = List.map (fun r -> time r k) runs in
  let med k = Perfbench.Stats.median (samples k) in
  let spread k =
    let xs = samples k in
    let m = med k in
    let hi = List.fold_left Float.max neg_infinity xs
    and lo = List.fold_left Float.min infinity xs in
    if m = 0. then 0. else (hi -. lo) /. m
  in
  let p =
    {
      p with
      sp_times = List.map (fun (k, _) -> (k, med k)) p.sp_times;
      sp_spread = List.map (fun (k, _) -> (k, spread k)) p.sp_times;
    }
  in
  Printf.printf "       median of %d: " scale_runs;
  print_times p.sp_times;
  Printf.printf
    "\n       total spread %.0f%%, %d events (%.0f/s), %d orbit(s), \
     provenance %s, sym %s\n%!"
    (100. *. List.assoc "total_s" p.sp_spread)
    p.sp_events
    (float_of_int p.sp_events /. time p "simulate_s")
    p.sp_orbits
    (Option.value ~default:"not run" p.sp_prov_mode)
    p.sp_sym_mode;
  p

(* Three decimals: milliseconds for times. *)
let round3 x = J.Num (Float.round (x *. 1e3) /. 1e3)

let int_json n = J.Num (float_of_int n)

let point_json p =
  J.Obj
    ([ ("algo", J.Str p.sp_algo); ("ranks", int_json p.sp_ranks) ]
    @ List.map (fun (k, t) -> (k, round3 t)) p.sp_times
    @ [
        ("runs", int_json scale_runs);
        ("spread", J.Obj (List.map (fun (k, x) -> (k, round3 x)) p.sp_spread));
      ]
    @ [
        ("events", int_json p.sp_events);
        ( "events_per_s",
          J.Num (Float.round (float_of_int p.sp_events /. time p "simulate_s"))
        );
        ("orbits", int_json p.sp_orbits);
      ]
    @ (match p.sp_prov_mode with
      | Some m -> [ ("provenance_mode", J.Str m) ]
      | None -> [])
    @ [ ("sym_mode", J.Str p.sp_sym_mode) ])

(* The committed baseline's median total_s per (algo, ranks). Raises
   [Sys_error] or [J.Error] when the file is missing, does not parse or
   was not measured in calibrated seconds. *)
let baseline_totals path =
  let j = J.parse (In_channel.with_open_bin path In_channel.input_all) in
  if J.member "time_basis" j <> J.Str "calibrated" then
    raise (J.Error "time_basis is not \"calibrated\"");
  List.map
    (fun p ->
      ( (J.to_str (J.member "algo" p), int_of_float (J.to_num (J.member "ranks" p))),
        J.to_num (J.member "total_s" p) ))
    (J.to_list (J.member "points" j))

(* Whole-registry quotient soundness gate: for every registered
   algorithm at its default shape, the quotient provenance verdict must
   equal the full one. Certification failures are fine (the quotient
   degenerates to the full pass); divergence is a hard failure. *)
let quotient_registry_gate () =
  let checked, dt =
    timed (fun () ->
        List.fold_left
          (fun checked spec ->
            match spec.H.Registry.build H.Registry.default_params with
            | exception _ -> checked (* shape unsupported *)
            | ir ->
                let s = Msccl_analysis.Symmetry.infer ir in
                (match
                   ( Msccl_analysis.Provenance.check ir,
                     Msccl_analysis.Provenance.check ~symmetry:s ir )
                 with
                | Ok (), Ok () -> ()
                | _ ->
                    failwith
                      (spec.H.Registry.name
                     ^ ": provenance verdicts diverge on registry output"));
                checked + 1)
          0 H.Registry.all)
  in
  Printf.printf
    "registry quotient soundness: %d algorithm(s) identical (%.2fs)\n%!"
    checked dt;
  checked

let run_scale ~quick ~check () =
  let baseline =
    if not check then []
    else
      try baseline_totals scale_file
      with Sys_error m | J.Error m ->
        Printf.printf "cannot check against %s: %s\n" scale_file m;
        exit 1
  in
  Printf.printf
    "== scale: full pipeline at cluster sizes%s (calibrated seconds) ==\n%!"
    (if quick then " (quick)" else "");
  let quotient_algos = quotient_registry_gate () in
  let classic =
    List.map
      (fun (a, n, build, sym) -> run_row (fun clk -> scale_point ?sym clk a n build))
      (scale_points ~quick)
  in
  let points = classic @ [ run_row scale_point_sym_frontier ] in
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
    snd (timed (fun () -> H.Lint_sweep.run ~jobs ()))
  in
  let reps = 7 in
  let jobs1_s = ref infinity and jobs8_s = ref infinity in
  let c0 = Calib.measure () in
  for rep = 1 to reps do
    (* Alternate which configuration goes first so heap drift over the
       repetitions cannot bias one side. *)
    let first, second = if rep land 1 = 1 then (1, 8) else (8, 1) in
    let tf = time_sweep first and ts = time_sweep second in
    let t1, t8 = if first = 1 then (tf, ts) else (ts, tf) in
    jobs1_s := Float.min !jobs1_s t1;
    jobs8_s := Float.min !jobs8_s t8
  done;
  let c1 = Calib.measure () in
  let jobs1_s = Calib.scale !jobs1_s c0 c1
  and jobs8_s = Calib.scale !jobs8_s c0 c1 in
  Printf.printf
    "registry sweep: jobs=1 %.2fs, jobs=8 %.2fs (%.2fx, min of %d reps, \
     outputs identical)\n%!"
    jobs1_s jobs8_s (jobs1_s /. jobs8_s) reps;
  Out_channel.with_open_bin scale_file (fun oc ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("benchmark", J.Str "scale");
                ("quick", J.Bool quick);
                ("time_basis", J.Str "calibrated");
                ("reference_s", J.Num Calib.reference_s);
                ("points", J.Arr (List.map point_json points));
                ( "registry_sweep",
                  J.Obj
                    [
                      ("jobs1_s", round3 jobs1_s);
                      ("jobs8_s", round3 jobs8_s);
                      ("speedup", round3 (jobs1_s /. jobs8_s));
                    ] );
                ( "quotient_gate",
                  J.Obj
                    [
                      ("algorithms", int_json quotient_algos);
                      ("identical", J.Bool true);
                    ] );
              ]));
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" scale_file;
  if check then begin
    let tolerance = 1.25 in
    (* Quotient provenance must never be slower than the full pass (the
       orbit-count cost gate exists precisely to guarantee this); 50 ms of
       absolute slack keeps sub-centisecond points from flaking. *)
    List.iter
      (fun p ->
        match
          ( List.assoc_opt "provenance_s" p.sp_times,
            List.assoc_opt "provenance_quotient_s" p.sp_times )
        with
        | Some full, Some quotient when quotient > (full *. tolerance) +. 0.05
          ->
            Printf.printf
              "REGRESSION %s@%d: quotient provenance %.3fs slower than full \
               %.3fs\n"
              p.sp_algo p.sp_ranks quotient full;
            exit 1
        | _ -> ())
      points;
    (* Headline gates: the frontier row must land inside the 1024-rank
       seed's end-to-end budget, and (full runs) symmetry-aware compile
       at 1024 ranks must be at least 5x the classic compile. *)
    let row algo ranks =
      List.find_opt (fun p -> p.sp_ranks = ranks && p.sp_algo = algo) points
    in
    (match row "ring" 4096 with
    | Some p when time p "total_s" > 36.1 ->
        Printf.printf
          "REGRESSION ring@4096: %.2fs exceeds the 36.1s ring@1024 seed \
           budget\n"
          (time p "total_s");
        exit 1
    | _ -> ());
    (match row "ring" 1024 with
    | Some p when not quick ->
        let speedup = time p "compile_s" /. Float.max (time p "sym_compile_s") 1e-9 in
        if speedup < 5. then begin
          Printf.printf
            "REGRESSION ring@1024: sym compile %.2fs is only %.1fx the \
             classic %.2fs (need >=5x)\n"
            (time p "sym_compile_s") speedup (time p "compile_s");
          exit 1
        end
    | _ -> ());
    (* Every measured row needs a committed row to compare against. *)
    let failures =
      List.filter_map
        (fun p ->
          let total = time p "total_s" in
          match List.assoc_opt (p.sp_algo, p.sp_ranks) baseline with
          | None ->
              Some
                (Printf.sprintf "REGRESSION %s@%d: no baseline row in %s"
                   p.sp_algo p.sp_ranks scale_file)
          | Some base when total > base *. tolerance ->
              Some
                (Printf.sprintf
                   "REGRESSION %s@%d: %.2fs vs baseline %.2fs (>%.0f%%)"
                   p.sp_algo p.sp_ranks total base
                   ((tolerance -. 1.) *. 100.))
          | Some _ -> None)
        points
    in
    List.iter print_endline failures;
    if failures <> [] then exit 1;
    Printf.printf "within %.0f%% of baseline\n%!" ((tolerance -. 1.) *. 100.)
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
         figures|ablations|tuner|e2e|perfcheck|scale|chaos)\n"
        other;
      exit 1
  | None ->
      run_figures ();
      run_ablations ();
      run_tuner ();
      run_e2e ();
      run_perfcheck ();
      run_scale ~quick:false ~check:false ()

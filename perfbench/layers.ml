(* The toolchain layers, timed from outside: each function wraps one public
   library call in a layer span and records the layer's counters. Spans
   inside the library are a separate, later piece of work; until then
   Tuner.tune is one opaque layer (its simulations are not split out). *)

open Msccl_core
module T = Msccl_topology
module S = Msccl_analysis
module I = Msccl_interop.Ingest

(* Every layer span name and counter below; BENCHMARK.json's per-layer
   metrics are drawn from these. *)
let names =
  [ "trace"; "lower"; "fuse"; "schedule"; "instances"; "emit"; "parse";
    "ingest"; "verify"; "lint"; "symmetry"; "provenance"; "perfcheck";
    "topology"; "replicate"; "simulate"; "candidates"; "tune" ]

let counters =
  [ "trace.chunk_ops"; "lower.instrs"; "fuse.rewrites"; "fuse.instrs_after";
    "schedule.steps"; "schedule.tbs"; "emit.mb"; "parse.bytes";
    "ingest.accepted"; "ingest.rejected"; "ingest.diags"; "lint.findings";
    "symmetry.orbits"; "provenance.quotient_ops"; "provenance.steps";
    "replicate.fallbacks"; "simulate.events"; "simulate.messages";
    "simulate.cohort_width"; "simulate.fallbacks"; "tune.points" ]

let layer = Trace.layer

let count name v = Trace.count name v

let counti name n = count name (float_of_int n)

let mib = 1024. *. 1024.

let trace ~name coll prog =
  let dag = layer "trace" (fun () -> Program.trace ~name coll prog) in
  counti "trace.chunk_ops" (Chunk_dag.num_nodes dag);
  dag

let lower dag =
  let idag = layer "lower" (fun () -> Instr_dag.of_chunk_dag dag) in
  counti "lower.instrs" (Instr_dag.num_live idag);
  idag

let fuse idag =
  let st = layer "fuse" (fun () -> Fusion.fuse idag) in
  counti "fuse.rewrites" (Fusion.total st);
  counti "fuse.instrs_after" (Instr_dag.num_live idag)

let schedule ~proto idag =
  let ir = layer "schedule" (fun () -> Schedule.run ~proto idag) in
  counti "schedule.steps" (Ir.num_steps ir);
  counti "schedule.tbs" (Ir.num_thread_blocks ir);
  ir

let instances ir ~instances =
  layer "instances" (fun () -> Instances.blocked ir ~instances)

(* Untraced: the library entry point the CLI uses ([untraced], e.g.
   [A.Ring_allreduce.ir ~verify:false], which runs Compile.compile).
   Traced: the same stages Compile.compile_dag sequences, in its order,
   each in its own span. The emitted-XML digest of every iteration is
   compared with the first (untraced) one, so a divergence between the
   two paths fails the op. *)
let compile ~untraced ~name ~proto coll prog =
  if not !Trace.enabled then untraced ()
  else begin
    let dag = trace ~name coll prog in
    let idag = lower dag in
    fuse idag;
    instances (schedule ~proto idag) ~instances:1
  end

let emit ir =
  let s = layer "emit" (fun () -> Xml.to_string ir) in
  count "emit.mb" (float_of_int (String.length s) /. mib);
  s

(* Untraced: Ingest.of_string, as [msccl verify FILE] does. Traced: its
   two stages, Xml.parse_tree then Ingest.of_tree, with a parse error
   turned into the same single diagnostic of_string returns. *)
let ingest ~file doc =
  let result =
    if not !Trace.enabled then I.of_string ~file doc
    else begin
      count "parse.bytes" (float_of_int (String.length doc));
      match layer "parse" (fun () -> Xml.parse_tree ~file doc) with
      | tree -> layer "ingest" (fun () -> I.of_tree ~file tree)
      | exception Xml.Parse_error e ->
          Error
            [
              {
                I.d_severity = I.Error;
                d_rule = "parse";
                d_message = e.Xml.e_message;
                d_file = e.Xml.e_file;
                d_pos = e.Xml.e_pos;
                d_context = e.Xml.e_context;
              };
            ]
    end
  in
  (match result with
  | Ok (_, warns) ->
      counti "ingest.accepted" 1;
      counti "ingest.diags" (List.length warns)
  | Error ds ->
      counti "ingest.rejected" 1;
      counti "ingest.diags" (List.length ds));
  result

let verify ir = layer "verify" (fun () -> Verify.check ir)

let lint ir =
  let ds = layer "lint" (fun () -> Lint.run ir) in
  counti "lint.findings" (List.length ds);
  ds

let symmetry ir =
  let s = layer "symmetry" (fun () -> S.Symmetry.infer ir) in
  counti "symmetry.orbits" (Orbit.num_orbits s.S.Symmetry.s_orbit);
  s

let provenance ~symmetry ir =
  let r = layer "provenance" (fun () -> S.Provenance.analyze ~symmetry ir) in
  (match r.S.Provenance.r_mode with
  | S.Provenance.Quotient _ -> counti "provenance.quotient_ops" 1
  | S.Provenance.Full -> ());
  counti "provenance.steps" r.S.Provenance.r_steps_interpreted;
  r

let perfcheck ~topo ~size_bytes ir =
  layer "perfcheck" (fun () -> Perfcheck.analyze ~topo ~size_bytes ir)

let topology ~nodes = layer "topology" (fun () -> T.Presets.ndv4 ~nodes)

let replicate ~proto ~name ~hint coll =
  match layer "replicate" (fun () -> Replicate.run ~proto ~name ~hint coll) with
  | r -> r
  | exception (Replicate.Fallback _ as e) ->
      counti "replicate.fallbacks" 1;
      raise e

let sim_counts (r : Simulator.result) =
  counti "simulate.events" r.Simulator.events;
  counti "simulate.messages" r.Simulator.messages

let simulate ~topo ~buffer_bytes ir =
  let r = layer "simulate" (fun () -> Simulator.run_buffer ~topo ~buffer_bytes ir) in
  sim_counts r;
  r

let simulate_sym ~topo ~chunk_bytes rep =
  let r, cohort =
    layer "simulate" (fun () -> Simulator.run_sym ~topo ~chunk_bytes rep)
  in
  sim_counts r;
  counti "simulate.cohort_width" cohort.Simulator.co_width;
  if cohort.Simulator.co_fallback <> None then counti "simulate.fallbacks" 1;
  (r, cohort)

let candidates f topo = layer "candidates" (fun () -> f topo)

let tune ~topo ~nccl ~candidates ~sizes =
  let table =
    layer "tune" (fun () ->
        Msccl_harness.Tuner.tune ~topo ~nccl ~candidates ~sizes ())
  in
  counti "tune.points" (List.length sizes);
  table

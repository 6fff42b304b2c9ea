(* msccl — command-line front end for the MSCCLang compiler, verifier and
   cluster simulator.

   Subcommands:
     list        show available algorithms and topologies
     compile     compile an algorithm to MSCCL-IR XML
     verify      check an MSCCL-IR XML file
     lint        static analysis: races + structural rules
     analyze     performance analysis: lower-bound certificate + perf lints
     show        pretty-print an MSCCL-IR XML file
     simulate    run an algorithm or XML file on a simulated cluster
     fuzz        differential fuzzing against the oracle stack
     chaos       fault-sweep campaigns: degradation curves + hang verdicts
     figures     regenerate the paper's figures *)

open Cmdliner
module T = Msccl_topology
module H = Msccl_harness
module I = Msccl_interop.Ingest
open Msccl_core

(* ------------------------------------------------------------------ *)
(* Exit codes and the input layer                                      *)
(* ------------------------------------------------------------------ *)

(* One exit-code scheme for every subcommand: 0 ok; 1 findings (the IR
   is wrong, a simulation failed, a fuzz oracle or a benign chaos plan
   failed); 2 unusable input (a rejected file, an unknown algorithm or
   topology, no input at all). Cmdliner itself exits 124 on usage
   errors. *)
let ok = 0

let findings = 1

let unusable = 2

(* Raised by the input layer with the message to print on stderr (empty
   when the problem is already reported); the command then exits 2. *)
exception Unusable of string

let unusable_input fmt = Printf.ksprintf (fun m -> raise (Unusable m)) fmt

(* Every subcommand's term yields a thunk, run under the exit-code
   scheme. *)
let command name ~doc term =
  Cmd.v (Cmd.info name ~doc)
    (Term.map
       (fun run ->
         try run ()
         with Unusable m ->
           if m <> "" then prerr_endline m;
           unusable)
       term)

(* Where a program comes from: an XML file in any dialect Ingest
   accepts, or a registry build. *)
type source = File of string | Algo of string * H.Registry.params

(* Registry builds. With [~sym], trace only the representative slice,
   replicate by index arithmetic and certify the hint's permutation post
   hoc: the IR is the same (a failed certification falls back to the
   full pipeline), only compile cost changes. *)
let build ?(sym = false) name params =
  let spec =
    match H.Registry.find name with
    | Some spec -> spec
    | None ->
        unusable_input "unknown algorithm %S; try: %s" name
          (String.concat ", " (H.Registry.names ()))
  in
  let replicated (c : H.Registry.sym_case) =
    let module S = Msccl_analysis.Sym_compile in
    let report, outcome =
      S.compile ~name ~proto:params.H.Registry.proto
        ~instances:params.H.Registry.instances
        ~verify:params.H.Registry.verify ~hint:c.H.Registry.sym_hint
        c.H.Registry.sym_coll c.H.Registry.sym_program
    in
    (match outcome with
    | S.Replicated s ->
        Printf.eprintf
          "symmetry-aware compile: replicated (certified %s, %d orbit(s))\n"
          (match s.Msccl_analysis.Symmetry.s_generators with
          | g :: _ -> g.Msccl_analysis.Symmetry.g_name
          | [] -> "?")
          (Orbit.num_orbits s.Msccl_analysis.Symmetry.s_orbit)
    | S.Fell_back m -> Printf.eprintf "symmetry-aware compile fell back: %s\n" m);
    report.Compile.ir
  in
  try
    match spec.H.Registry.sym with
    | Some case when sym -> replicated (case params)
    | None when sym ->
        Printf.eprintf
          "%s declares no symmetry hint; using the full pipeline\n" name;
        spec.H.Registry.build params
    | _ -> spec.H.Registry.build params
  with
  | Program.Trace_error m -> unusable_input "trace error: %s" m
  | Schedule.Scheduling_error m -> unusable_input "scheduling error: %s" m
  | Failure m | Invalid_argument m -> raise (Unusable m)

(* The one loader. Files enter through the tolerant Ingest boundary:
   warnings go to stderr, and a rejection prints every positioned
   diagnostic (the JSON array on [~json]) so a third-party file is
   debuggable from one run. *)
let load ?(json = false) = function
  | Algo (name, params) -> build name params
  | File f -> (
      match I.load f with
      | Ok (ir, warns) ->
          List.iter (fun d -> prerr_endline (I.diag_to_string d)) warns;
          ir
      | Error ds ->
          if json then print_endline (I.diags_json ds)
          else prerr_endline (I.diags_to_string ds);
          raise (Unusable ""))

let topology s =
  match H.Registry.parse_topology s with
  | Ok t -> t
  | Error m -> raise (Unusable m)

(* ------------------------------------------------------------------ *)
(* Shared argument definitions                                         *)
(* ------------------------------------------------------------------ *)

let algo_arg =
  let doc = "Algorithm name (see $(b,msccl list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ALGO" ~doc)

let nodes_arg =
  let doc = "Number of nodes." in
  Arg.(value & opt int 1 & info [ "nodes"; "n" ] ~docv:"N" ~doc)

let gpus_arg =
  let doc = "GPUs per node." in
  Arg.(value & opt int 8 & info [ "gpus"; "g" ] ~docv:"G" ~doc)

let channels_arg =
  let doc = "Channels to distribute logical rings over." in
  Arg.(value & opt int 1 & info [ "channels"; "c" ] ~docv:"CH" ~doc)

let instances_arg =
  let doc = "Whole-program parallelization factor (the figures' r)." in
  Arg.(value & opt int 1 & info [ "instances"; "r" ] ~docv:"R" ~doc)

let chunk_factor_arg =
  let doc = "Chunk granularity where the algorithm supports it." in
  Arg.(value & opt int 1 & info [ "chunk-factor" ] ~docv:"C" ~doc)

let proto_conv =
  let parse s =
    match T.Protocol.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  Arg.conv (parse, T.Protocol.pp)

let proto_arg =
  let doc = "Protocol: Simple, LL, LL128 or SCCL." in
  Arg.(value & opt proto_conv T.Protocol.Simple
       & info [ "proto"; "p" ] ~docv:"PROTO" ~doc)

let no_verify_arg =
  let doc = "Skip postcondition verification (faster for large systems)." in
  Arg.(value & flag & info [ "no-verify" ] ~doc)

let topo_arg =
  let doc = "Topology: ndv4:<nodes>, dgx2:<nodes>, dgx1, custom:<n>:<g>." in
  Arg.(value & opt string "ndv4:1" & info [ "topology"; "t" ] ~docv:"TOPO" ~doc)

let size_conv =
  let parse s =
    let num, unit_ =
      let n = String.length s in
      let split =
        let rec go i =
          if i < n && (s.[i] = '.' || (s.[i] >= '0' && s.[i] <= '9')) then
            go (i + 1)
          else i
        in
        go 0
      in
      (String.sub s 0 split, String.sub s split (n - split))
    in
    match
      ( float_of_string_opt num,
        String.uppercase_ascii (String.trim unit_) )
    with
    | Some v, ("" | "B") -> Ok v
    | Some v, ("K" | "KB") -> Ok (v *. 1024.)
    | Some v, ("M" | "MB") -> Ok (v *. 1024. *. 1024.)
    | Some v, ("G" | "GB") -> Ok (v *. 1024. *. 1024. *. 1024.)
    | _ -> Error (`Msg (Printf.sprintf "cannot parse size %S" s))
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (H.Sweep.pretty v))

let size_arg =
  let doc = "Buffer size, e.g. 32MB." in
  Arg.(value & opt size_conv (1024. *. 1024.) & info [ "size"; "s" ] ~docv:"SIZE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel sweeps (registry sweeps, fuzz batches). \
     Defaults to $(b,MSCCL_JOBS) when set, else the runtime's recommended \
     domain count. Output is identical for any value; 1 disables \
     parallelism."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let build_params nodes gpus channels instances proto chunk_factor no_verify =
  {
    H.Registry.nodes;
    gpus_per_node = gpus;
    channels;
    instances;
    proto;
    chunk_factor;
    verify = not no_verify;
  }

(* Registry parameters shaped by a topology (nodes x GPUs per node). *)
let params_on topology channels instances proto chunk_factor =
  build_params (T.Topology.num_nodes topology)
    (T.Topology.gpus_per_node topology)
    channels instances proto chunk_factor true

(* The FILE / --algo / --all / --json input selection of verify, lint
   and analyze. *)
type selection = {
  file : string option;
  algo : string option;
  all : bool;
  json : bool;
}

let selection_term ~verb ~all_doc
    ?(json_doc = "Emit machine-readable JSON instead of text.") () =
  let file =
    let doc = Printf.sprintf "MSCCL-IR XML file to %s." verb in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let algo =
    let doc =
      Printf.sprintf
        "%s a registered algorithm (compiled in-process) instead of a file."
        (String.capitalize_ascii verb)
    in
    Arg.(value & opt (some string) None & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:all_doc) in
  let json = Arg.(value & flag & info [ "json" ] ~doc:json_doc) in
  Term.(
    const (fun file algo all json -> { file; algo; all; json })
    $ file $ algo $ all $ json)

(* The program a FILE/--algo selection names; [params] shape a registry
   build. *)
let source_of sel params =
  match (sel.file, sel.algo) with
  | Some f, _ -> File f
  | None, Some a -> Algo (a, params ())
  | None, None -> unusable_input "need an XML file, --algo NAME, or --all"

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "Algorithms:";
    List.iter
      (fun s ->
        Printf.printf "  %-24s %s\n" s.H.Registry.name s.H.Registry.doc)
      H.Registry.all;
    print_endline "";
    print_endline "Topologies: ndv4:<nodes>  dgx2:<nodes>  dgx1  custom:<nodes>:<gpus>";
    print_endline "Protocols:  Simple  LL  LL128  SCCL";
    ok
  in
  command "list" ~doc:"List algorithms, topologies and protocols"
    Term.(const run)

let compile_cmd =
  let output_arg =
    let doc = "Write MSCCL-IR XML here (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let lint_arg =
    let doc = "Run the static analysis suite on the compiled IR; error \
               findings fail the compile." in
    Arg.(value & flag & info [ "lint" ] ~doc)
  in
  let sym_arg =
    let doc =
      "Symmetry-aware compilation: trace one representative rank, \
       replicate the schedule to all ranks by index arithmetic, and \
       certify the algorithm's declared rank symmetry on the result. \
       Same IR as the full pipeline (falls back automatically if the \
       hint fails certification), compiled in O(instructions/ranks)."
    in
    Arg.(value & flag & info [ "sym-compile" ] ~doc)
  in
  let run algo nodes gpus channels instances proto chunk_factor no_verify
      lint sym output () =
    let ir =
      build ~sym algo
        (build_params nodes gpus channels instances proto chunk_factor
           no_verify)
    in
    let diagnostics = if lint then Lint.run ir else [] in
    if diagnostics <> [] then Format.eprintf "%a" Lint.pp diagnostics;
    if Lint.has_errors diagnostics then findings
    else begin
      Printf.eprintf "%s\n" (Ir.summary ir);
      (match output with
      | None -> print_string (Xml.to_string ir)
      | Some path ->
          Xml.save ir path;
          Printf.eprintf "wrote %s\n" path);
      ok
    end
  in
  command "compile" ~doc:"Compile an algorithm to MSCCL-IR XML"
    Term.(
      const run $ algo_arg $ nodes_arg $ gpus_arg $ channels_arg
      $ instances_arg $ proto_arg $ chunk_factor_arg $ no_verify_arg
      $ lint_arg $ sym_arg $ output_arg)

let verify_cmd =
  let selection =
    selection_term ~verb:"verify"
      ~all_doc:
        "With $(b,--static): sweep every registered algorithm through the \
         provenance verifier (single-node and two-node shapes)."
      ~json_doc:
        "Emit machine-readable JSON (the same diagnostic shape as \
         $(b,msccl lint --json): an empty array on success; with \
         $(b,--static), the full provenance report)."
      ()
  in
  let static_arg =
    let doc =
      "Use the static chunk-provenance dataflow verifier instead of \
       symbolic execution: abstract interpretation classifies every wrong \
       output slot (missing / duplicated contribution, \
       overwritten-before-read, never-written...) with the instruction \
       that caused it, and runs the dataflow liveness lints. Inferred \
       rank symmetries quotient the pass to representative ranks."
    in
    Arg.(value & flag & info [ "static" ] ~doc)
  in
  let mode_string = function
    | Msccl_analysis.Provenance.Full -> "full"
    | Msccl_analysis.Provenance.Quotient { orbits; interpreted_ranks } ->
        Printf.sprintf "quotient (%d orbit(s), %d rank(s) interpreted)"
          orbits interpreted_ranks
  in
  let static_one ~json ir =
    let s = Msccl_analysis.Symmetry.infer ir in
    let r = Msccl_analysis.Provenance.analyze ~symmetry:s ir in
    let open Msccl_analysis.Provenance in
    if json then print_endline (report_json r)
    else begin
      if r.r_diags = [] then
        Printf.printf
          "%s: OK (static provenance, %s mode; %d step(s) interpreted, %d \
           output slot(s) checked)\n"
          (Ir.summary ir) (mode_string r.r_mode) r.r_steps_interpreted
          r.r_slots_checked
      else begin
        Printf.eprintf "%s: FAILED (static provenance, %s mode)\n"
          (Ir.summary ir) (mode_string r.r_mode);
        List.iter
          (fun d -> Format.eprintf "  %a@." pp_diag d)
          r.r_diags
      end;
      if r.r_lints <> [] then Format.printf "%a" Lint.pp r.r_lints
    end;
    if r.r_diags <> [] || Lint.has_errors r.r_lints then findings else ok
  in
  let static_sweep ~json =
    let shapes = [ (1, 8); (2, 4) ] in
    let entries = ref [] in
    let bad = ref false in
    List.iter
      (fun spec ->
        let name = spec.H.Registry.name in
        List.iter
          (fun (nodes, gpus) ->
            match
              spec.H.Registry.build
                { H.Registry.default_params with nodes; gpus_per_node = gpus }
            with
            | exception _ -> () (* shape unsupported by this algorithm *)
            | ir ->
                let s = Msccl_analysis.Symmetry.infer ir in
                let r = Msccl_analysis.Provenance.analyze ~symmetry:s ir in
                let open Msccl_analysis.Provenance in
                let failed =
                  r.r_diags <> [] || Lint.has_errors r.r_lints
                in
                if failed then bad := true;
                if json then
                  entries :=
                    Printf.sprintf
                      "{\"algo\":\"%s\",\"nodes\":%d,\"gpus\":%d,\"report\":%s}"
                      (Lint.json_escape name) nodes gpus (report_json r)
                    :: !entries
                else begin
                  Printf.printf "%-24s %dx%d  %-9s %s\n" name nodes gpus
                    (if failed then "FAILED" else "ok")
                    (mode_string r.r_mode);
                  if failed then
                    List.iter
                      (fun d -> Format.printf "  %a@." pp_diag d)
                      r.r_diags
                end)
          shapes)
      H.Registry.all;
    if json then
      print_endline ("[" ^ String.concat "," (List.rev !entries) ^ "]");
    if !bad then findings else ok
  in
  let symbolic_one ~json ir =
    match Verify.check ir with
    | Ok () ->
        if json then print_endline "[]"
        else
          Printf.printf "%s: OK (postcondition, deadlock-freedom, structure)\n"
            (Ir.summary ir);
        ok
    | Error msg ->
        if json then
          print_endline
            (Lint.to_json
               [
                 {
                   Lint.d_rule = "verify";
                   d_severity = Lint.Error;
                   d_at = None;
                   d_message = msg;
                 };
               ])
        else Printf.eprintf "%s: FAILED\n  %s\n" (Ir.summary ir) msg;
        findings
  in
  let run sel static () =
    let json = sel.json in
    if sel.all then
      if static then static_sweep ~json
      else unusable_input "--all requires --static"
    else
      let ir =
        load ~json (source_of sel (fun () -> H.Registry.default_params))
      in
      if static then static_one ~json ir else symbolic_one ~json ir
  in
  command "verify"
    ~doc:
      "Verify an MSCCL-IR XML file: symbolic execution against the \
       collective's postcondition by default, or ($(b,--static)) the \
       chunk-provenance dataflow verifier with root-cause diagnostics and \
       liveness lints. Exit 1 on findings, 2 on unusable input."
    Term.(const run $ selection $ static_arg)

let lint_cmd =
  let selection =
    selection_term ~verb:"lint"
      ~all_doc:
        "Sweep every registered algorithm across the NDv4/DGX-2 presets \
         and the Simple/LL/LL128 protocols."
      ()
  in
  let lint_one ~json ir =
    let ds = Lint.run ir in
    if json then print_endline (Lint.to_json ds)
    else Format.printf "%s@.%a" (Ir.summary ir) Lint.pp ds;
    if Lint.has_errors ds then findings else ok
  in
  let sweep ~json ?jobs () =
    let entries = H.Lint_sweep.run ?jobs () in
    if json then begin
      let one (e : H.Lint_sweep.entry) =
        let status, diags =
          match e.H.Lint_sweep.e_outcome with
          | H.Lint_sweep.Clean _ -> ("clean", "[]")
          | H.Lint_sweep.Findings ds -> ("errors", Lint.to_json ds)
          | H.Lint_sweep.Build_failed _ -> ("skipped", "[]")
        in
        Printf.sprintf
          "{\"algo\":\"%s\",\"topology\":\"%s\",\"proto\":\"%s\",\"status\":\"%s\",\"diagnostics\":%s}"
          e.H.Lint_sweep.e_algo e.H.Lint_sweep.e_config.H.Lint_sweep.c_label
          (T.Protocol.name e.H.Lint_sweep.e_config.H.Lint_sweep.c_proto)
          status diags
      in
      print_endline ("[" ^ String.concat "," (List.map one entries) ^ "]")
    end
    else Format.printf "%a@." H.Lint_sweep.pp entries;
    List.iter
      (fun (e : H.Lint_sweep.entry) ->
        match e.H.Lint_sweep.e_outcome with
        | H.Lint_sweep.Findings ds ->
            Format.eprintf "%s on %s (%s):@.%a"
              e.H.Lint_sweep.e_algo
              e.H.Lint_sweep.e_config.H.Lint_sweep.c_label
              (T.Protocol.name e.H.Lint_sweep.e_config.H.Lint_sweep.c_proto)
              Lint.pp (Lint.errors ds)
        | H.Lint_sweep.Clean _ | H.Lint_sweep.Build_failed _ -> ())
      entries;
    if H.Lint_sweep.clean entries then ok else findings
  in
  let run sel nodes gpus channels instances proto chunk_factor jobs () =
    if sel.all then sweep ~json:sel.json ?jobs ()
    else
      let params () =
        build_params nodes gpus channels instances proto chunk_factor true
      in
      lint_one ~json:sel.json (load ~json:sel.json (source_of sel params))
  in
  command "lint"
    ~doc:
      "Static analysis of MSCCL-IR: data races between thread blocks \
       (happens-before + footprint overlap), FIFO deadlocks, dangling \
       dependencies, out-of-bounds accesses, dead scratch, channel \
       contention. Exit 1 on error findings, 2 on unusable input."
    Term.(
      const run $ selection $ nodes_arg $ gpus_arg $ channels_arg
      $ instances_arg $ proto_arg $ chunk_factor_arg $ jobs_arg)

let analyze_cmd =
  let selection =
    selection_term ~verb:"analyze"
      ~all_doc:
        "Sweep every registered algorithm across the NDv4/DGX-2 presets \
         and the Simple/LL/LL128 protocols, printing the efficiency table."
      ()
  in
  let symmetry_arg =
    let doc =
      "Infer and certify rank-permutation symmetries and report the rank \
       orbits; race queries then run on one representative per orbit."
    in
    Arg.(value & flag & info [ "symmetry" ] ~doc)
  in
  let hb_stats_json (st : Hbgraph.stats) =
    Printf.sprintf
      "{\"nodes\":%d,\"edges\":%d,\"small_closure\":%b,\"queries\":%d,\
       \"orbit_hits\":%d,\"pos_cutoffs\":%d,\"local_hits\":%d,\
       \"local_builds\":%d,\"row_hits\":%d,\"rows_built\":%d,\"dfs\":%d}"
      st.Hbgraph.st_nodes st.Hbgraph.st_edges st.Hbgraph.st_small_closure
      st.Hbgraph.st_queries st.Hbgraph.st_orbit_hits st.Hbgraph.st_pos_cutoffs
      st.Hbgraph.st_local_hits st.Hbgraph.st_local_builds
      st.Hbgraph.st_row_hits st.Hbgraph.st_rows_built st.Hbgraph.st_dfs
  in
  let analyze_one ~json ~symmetry ~topology ~size_bytes ir =
    let report, diags =
      try Perfcheck.lint ~topo:topology ~size_bytes ir
      with Invalid_argument m -> raise (Unusable m)
    in
    let sym =
      if symmetry then Some (Msccl_analysis.Symmetry.infer ir) else None
    in
    if json then begin
      (* Drive the race pass explicitly so the happens-before stats (and,
         under --symmetry, the quotient counters) are real. *)
      let hb =
        Hbgraph.build ~fifo_slots:(T.Protocol.num_slots ir.Ir.proto) ir
      in
      let races =
        match sym with
        | Some s when Msccl_analysis.Symmetry.certified s ->
            let orbit = s.Msccl_analysis.Symmetry.s_orbit in
            Hbgraph.set_orbit hb orbit;
            Races.find_quotient ~hb ~orbit ir
        | _ -> Races.find ~hb ir
      in
      let sym_field =
        match sym with
        | None -> ""
        | Some s ->
            Printf.sprintf ",\"symmetry\":%s,\"races\":%d"
              (Msccl_analysis.Symmetry.report_json s)
              (List.length races)
      in
      let prov = Msccl_analysis.Provenance.analyze ?symmetry:sym ir in
      Printf.printf
        "{\"report\":%s,\"diagnostics\":%s,\"hbgraph_stats\":%s%s,\
         \"provenance\":%s}\n"
        (Perfcheck.report_json report)
        (Lint.to_json diags)
        (hb_stats_json (Hbgraph.stats hb))
        sym_field
        (Msccl_analysis.Provenance.report_json prov)
    end
    else begin
      Format.printf "%s on %s@.%a@.%a@." (Ir.summary ir)
        (T.Topology.name topology)
        Analysis.pp (Analysis.analyze ir) Perfcheck.pp report;
      (match sym with
      | None -> ()
      | Some s -> Format.printf "%s@." (Msccl_analysis.Symmetry.report s));
      let prov = Msccl_analysis.Provenance.analyze ?symmetry:sym ir in
      let open Msccl_analysis.Provenance in
      Format.printf
        "provenance: %s (%s mode; %d step(s), %d slot(s), %d dataflow \
         lint(s))@."
        (if prov.r_diags = [] then "clean"
         else Printf.sprintf "%d diagnostic(s)" (List.length prov.r_diags))
        (match prov.r_mode with
        | Full -> "full"
        | Quotient { orbits; interpreted_ranks } ->
            Printf.sprintf "quotient %d/%d" interpreted_ranks orbits)
        prov.r_steps_interpreted prov.r_slots_checked
        (List.length prov.r_lints);
      List.iter (fun d -> Format.printf "  %a@." pp_diag d) prov.r_diags;
      if prov.r_lints <> [] then Format.printf "%a" Lint.pp prov.r_lints;
      if diags <> [] then Format.printf "%a" Lint.pp diags
    end;
    ok
  in
  let sweep ~json ~size_bytes ?jobs () =
    let entries = H.Lint_sweep.run_perf ?jobs ~size_bytes () in
    if json then begin
      let one (e : H.Lint_sweep.perf_entry) =
        let body =
          match e.H.Lint_sweep.p_outcome with
          | H.Lint_sweep.Analyzed { report; diags } ->
              Printf.sprintf
                "\"status\":\"analyzed\",\"bw_efficiency\":%.6f,\"time_efficiency\":%.6f,\"diagnostics\":%s"
                report.Perfcheck.bw_efficiency
                report.Perfcheck.time_efficiency (Lint.to_json diags)
          | H.Lint_sweep.Perf_skipped m ->
              Printf.sprintf "\"status\":\"skipped\",\"reason\":\"%s\""
                (Lint.json_escape m)
        in
        Printf.sprintf
          "{\"algo\":\"%s\",\"topology\":\"%s\",\"proto\":\"%s\",%s}"
          e.H.Lint_sweep.p_algo e.H.Lint_sweep.p_config.H.Lint_sweep.c_label
          (T.Protocol.name e.H.Lint_sweep.p_config.H.Lint_sweep.c_proto)
          body
      in
      print_endline ("[" ^ String.concat "," (List.map one entries) ^ "]")
    end
    else Format.printf "%a@." H.Lint_sweep.pp_perf entries;
    ok
  in
  let run sel topo channels instances proto chunk_factor size symmetry jobs
      () =
    let size_bytes = int_of_float size in
    if sel.all then sweep ~json:sel.json ~size_bytes ?jobs ()
    else
      let topology = topology topo in
      let params () =
        params_on topology channels instances proto chunk_factor
      in
      analyze_one ~json:sel.json ~symmetry ~topology ~size_bytes
        (load ~json:sel.json (source_of sel params))
  in
  command "analyze"
    ~doc:
      "Cost-model-grounded performance analysis of MSCCL-IR: α–β–γ \
       lower-bound certificate and efficiency ratio, per-resource \
       congestion, thread-block imbalance, redundant sends and missed \
       fusion opportunities. Perf findings are advisory (exit 0); unusable \
       input exits 2."
    Term.(
      const run $ selection $ topo_arg $ channels_arg $ instances_arg
      $ proto_arg $ chunk_factor_arg $ size_arg $ symmetry_arg $ jobs_arg)

let show_cmd =
  let file_arg =
    let doc = "MSCCL-IR XML file." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let stats_arg =
    let doc = "Print a static analysis report instead of the full IR." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run file stats () =
    let ir = load (File file) in
    if stats then
      Format.printf "%s@.%a@." (Ir.summary ir) Analysis.pp (Analysis.analyze ir)
    else Format.printf "%a@." Ir.pp ir;
    ok
  in
  command "show" ~doc:"Pretty-print or analyze an MSCCL-IR XML file"
    Term.(const run $ file_arg $ stats_arg)

let simulate_cmd =
  let file_arg =
    let doc = "Simulate this MSCCL-IR XML file instead of a named algorithm." in
    Arg.(value & opt (some file) None & info [ "file"; "f" ] ~docv:"FILE" ~doc)
  in
  let algo_opt_arg =
    let doc = "Algorithm name (alternative to --file)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ALGO" ~doc)
  in
  let sweep_arg =
    let doc = "Sweep buffer sizes 1KB..1GB instead of a single size." in
    Arg.(value & flag & info [ "sweep" ] ~doc)
  in
  let trace_arg =
    let doc = "Write a Chrome-tracing timeline of the simulated execution \
               (open in chrome://tracing or Perfetto)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let run algo file topo channels instances proto chunk_factor size sweep
      trace () =
    let topology = topology topo in
    let source =
      match (file, algo) with
      | Some f, _ -> File f
      | None, Some a ->
          Algo (a, params_on topology channels instances proto chunk_factor)
      | None, None -> unusable_input "need an algorithm name or --file"
    in
    let ir = load source in
    let timeline = Option.map (fun _ -> Timeline.create ()) trace in
    let one buffer_bytes =
      let r = Simulator.run_buffer ~topo:topology ~buffer_bytes ?timeline ir in
      Printf.printf "%10s  %12.1f us   algbw %8.2f GB/s   (tiles=%d msgs=%d)\n"
        (H.Sweep.pretty buffer_bytes)
        (r.Simulator.time *. 1e6)
        (Simulator.algbw ~buffer_bytes r /. 1e9)
        r.Simulator.tiles r.Simulator.messages
    in
    Printf.printf "%s on %s (%s)\n" ir.Ir.name (T.Topology.name topology)
      (T.Protocol.name ir.Ir.proto);
    try
      if sweep then
        List.iter one (H.Sweep.sizes ~from:1024. ~upto:(H.Sweep.gib 1.))
      else one size;
      (match (trace, timeline) with
      | Some path, Some tl ->
          Timeline.save tl path;
          Printf.eprintf "wrote %d span(s) to %s\n" (Timeline.num_events tl)
            path
      | _ -> ());
      ok
    with Simulator.Sim_error m ->
      Printf.eprintf "simulation error: %s\n" m;
      findings
  in
  command "simulate"
    ~doc:"Simulate an algorithm or IR file on a cluster topology"
    Term.(
      const run $ algo_opt_arg $ file_arg $ topo_arg $ channels_arg
      $ instances_arg $ proto_arg $ chunk_factor_arg $ size_arg $ sweep_arg
      $ trace_arg)

let tune_cmd =
  let coll_arg =
    let doc = "Collective to tune: allreduce or alltoall." in
    Arg.(value & opt string "allreduce" & info [ "collective" ] ~docv:"COLL" ~doc)
  in
  let run topo coll () =
    let topology = topology topo in
    let candidates, nccl =
      match String.lowercase_ascii coll with
      | "allreduce" ->
          ( H.Tuner.allreduce_candidates topology,
            Msccl_baselines.Nccl_model.allreduce topology )
      | "alltoall" ->
          ( H.Tuner.alltoall_candidates topology,
            Msccl_baselines.Nccl_model.alltoall topology )
      | other -> unusable_input "cannot tune %S" other
    in
    if candidates = [] then
      unusable_input "no candidates for this collective on this topology";
    let table = H.Tuner.tune ~topo:topology ~nccl ~candidates () in
    Format.printf "%a" H.Tuner.pp_table table;
    ok
  in
  command "tune"
    ~doc:"Build the size-range algorithm selection table for a topology"
    Term.(const run $ topo_arg $ coll_arg)

let fuzz_cmd =
  let module F = Msccl_fuzz in
  let seed_arg =
    let doc = "Run seed; every case is a deterministic function of it." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let cases_arg =
    let doc = "Number of random cases to generate and check." in
    Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let oracle_arg =
    let doc =
      "Restrict checking to one oracle (repeatable): exec, equiv, static, \
       symmetry, provenance, perf, roundtrip, chaos, sym_compile or \
       ingest. Default: all ten."
    in
    Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"ORACLE" ~doc)
  in
  let json_arg =
    let doc = "Emit one JSON report object instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let out_dir_arg =
    let doc =
      "Write every failing case (original and shrunk) as replayable seed \
       files into this directory (created if missing)."
    in
    Arg.(value & opt (some string) None & info [ "out-dir" ] ~docv:"DIR" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay stored seed files through the oracles instead of generating \
       random cases (repeatable)."
    in
    Arg.(value & opt_all file [] & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let mutate_arg =
    let doc =
      "Self-test: corrupt every fused compilation with a deliberately \
       broken fusion rule and demand that the oracles catch it."
    in
    Arg.(value & flag & info [ "mutate-fusion" ] ~doc)
  in
  let corpus_arg =
    let doc =
      "Imported-corpus mode: instead of generating cases, push every \
       *.xml file under this directory through the external ingestion \
       boundary. Each file must either ingest cleanly (and survive \
       seeded corruptions, round-tripping through print) or be rejected \
       with positioned structured diagnostics; anything else — an \
       escaped exception, a position-less rejection — is a finding."
    in
    Arg.(value & opt (some dir) None & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let mangles_arg =
    let doc = "Corruptions per accepted corpus file (with --corpus)." in
    Arg.(value & opt int 8 & info [ "mangles" ] ~docv:"N" ~doc)
  in
  let run_corpus ~seed ~mangles ~json ~jobs dir =
    let r = F.Fuzz.run_corpus ?jobs ~mangles ~seed ~dir () in
    if json then print_endline (F.Fuzz.corpus_report_json r)
    else begin
      List.iter
        (fun (e : F.Fuzz.corpus_entry) ->
          match e.F.Fuzz.ce_outcome with
          | F.Fuzz.C_accepted { c_warnings } ->
              Printf.printf "%-40s accepted (%d warning(s))\n"
                e.F.Fuzz.ce_path c_warnings
          | F.Fuzz.C_rejected { c_errors; c_first } ->
              Printf.printf "%-40s rejected (%d error(s))\n  %s\n"
                e.F.Fuzz.ce_path c_errors c_first
          | F.Fuzz.C_failed m ->
              Printf.printf "%-40s FAILED\n  %s\n" e.F.Fuzz.ce_path m)
        r.F.Fuzz.cr_entries;
      Printf.printf "corpus %s: %d file(s), %s\n" dir
        (List.length r.F.Fuzz.cr_entries)
        (if F.Fuzz.corpus_ok r then "ok" else "FAILURES")
    end;
    if F.Fuzz.corpus_ok r then ok else findings
  in
  let resolve_oracles = function
    | [] -> F.Oracle.all
    | names ->
        List.map
          (fun n ->
            match F.Oracle.id_of_name (String.lowercase_ascii n) with
            | Some o -> o
            | None ->
                unusable_input
                  "unknown oracle %S (expected exec, equiv, static, \
                   symmetry, provenance, perf, roundtrip, chaos, \
                   sym_compile or ingest)"
                  n)
          names
  in
  let replay_files ~oracles files =
    let failed = ref false in
    List.iter
      (fun file ->
        match F.Case.load file with
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            failed := true
        | Ok c -> (
            match F.Fuzz.replay ~oracles c with
            | Ok () -> Printf.printf "%s: OK (%s)\n" file (F.Case.describe c)
            | Error f ->
                Format.printf "%s: FAILED %a@." file F.Oracle.pp_failure f;
                failed := true))
      files;
    if !failed then findings else ok
  in
  let save_failures dir (r : F.Fuzz.report) =
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    List.iter
      (fun (f : F.Fuzz.failure) ->
        let base =
          Filename.concat dir
            (Printf.sprintf "fail-s%d-i%d" r.F.Fuzz.r_seed
               f.F.Fuzz.f_case.F.Case.index)
        in
        F.Case.save f.F.Fuzz.f_case (base ^ "-orig.case");
        F.Case.save f.F.Fuzz.f_shrunk (base ^ ".case"))
      r.F.Fuzz.r_failures
  in
  let run seed cases oracle_names json out_dir replays mutate_fusion corpus
      mangles jobs () =
    let oracles = resolve_oracles oracle_names in
    match corpus with
    | Some dir -> run_corpus ~seed ~mangles ~json ~jobs dir
    | None when replays <> [] -> replay_files ~oracles replays
    | None ->
        let mutate =
          if mutate_fusion then Some F.Mutate.break_fusion else None
        in
        let report = F.Fuzz.run ?jobs ?mutate ~oracles ~seed ~cases () in
        Option.iter (fun dir -> save_failures dir report) out_dir;
        if json then print_endline (F.Fuzz.report_json report)
        else begin
          List.iter
            (fun (f : F.Fuzz.failure) ->
              Format.printf "case %d (%s):@.  %a@.  shrunk to: %s@."
                f.F.Fuzz.f_case.F.Case.index
                (F.Case.describe f.F.Fuzz.f_case)
                F.Oracle.pp_failure f.F.Fuzz.f_failure
                (F.Case.describe f.F.Fuzz.f_shrunk))
            report.F.Fuzz.r_failures;
          Printf.printf "fuzz seed %d: %d case(s), %d failure(s)\n" seed cases
            (List.length report.F.Fuzz.r_failures)
        end;
        if report.F.Fuzz.r_failures = [] then ok else findings
  in
  command "fuzz"
    ~doc:
      "Differential fuzzing: random DSL programs cross-checked against the \
       executor (symbolic + numeric), differential compilation (fusion \
       on/off, instances k/1), the static analyses, the chunk-provenance \
       verifier (static verdict must equal the executor's), the perfcheck \
       lower bound and XML round-tripping. Failing cases are shrunk and \
       written as replayable seed files. Exit 1 on failures, 2 on unusable \
       input."
    Term.(
      const run $ seed_arg $ cases_arg $ oracle_arg $ json_arg $ out_dir_arg
      $ replay_arg $ mutate_arg $ corpus_arg $ mangles_arg $ jobs_arg)

let chaos_cmd =
  let quick_arg =
    let doc =
      "CI smoke campaign: ring and allpairs allreduce at 8 ranks under a \
       one-link-degraded (severity 0.5) plan. Benign by construction, so \
       any hang fails the run."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let json_arg =
    let doc = "Emit the JSON report on stdout instead of the table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let seed_arg =
    let doc = "Campaign seed: selects which link each plan degrades." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let severities_arg =
    let doc =
      "Comma-separated degradation severities in [0, 1]; 1 kills the \
       link (hangs become expected verdicts, not failures)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "severities" ] ~docv:"S1,S2,..." ~doc)
  in
  let algos_arg =
    let doc = "Restrict the campaign to one algorithm (repeatable)." in
    Arg.(value & opt_all string [] & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)
  in
  let topology_arg =
    let doc = "Topology label, e.g. ndv4:1 or dgx2:1." in
    Arg.(value & opt string "ndv4:1" & info [ "topology"; "t" ] ~docv:"TOPO" ~doc)
  in
  let out_arg =
    let doc = "Also write the JSON report to this file." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let severity s =
    match float_of_string_opt (String.trim s) with
    | Some v when v >= 0. && v <= 1. -> v
    | _ -> unusable_input "bad severity %S (want 0..1)" s
  in
  let run quick json seed severities algos topology out size jobs () =
    let campaign =
      if quick then H.Chaos.quick ?jobs ()
      else
        H.Chaos.run ?jobs
          ?algos:(if algos = [] then None else Some algos)
          ?severities:
            (Option.map
               (fun s -> List.map severity (String.split_on_char ',' s))
               severities)
          ~seed ~size_bytes:size ~topology ()
    in
    let entries =
      match campaign with Ok e -> e | Error m -> raise (Unusable m)
    in
    let report = H.Chaos.to_json ~seed entries in
    Option.iter
      (fun file ->
        let oc = open_out file in
        output_string oc report;
        output_char oc '\n';
        close_out oc)
      out;
    if json then print_endline report
    else Format.printf "%a" H.Chaos.pp entries;
    match H.Chaos.unexpected_hangs entries with
    | [] -> ok
    | bad ->
        List.iter
          (fun (e : H.Chaos.entry) ->
            Printf.eprintf "unexpected hang: %s at severity %g (benign plan)\n"
              e.H.Chaos.x_algo e.H.Chaos.x_severity)
          bad;
        findings
  in
  command "chaos"
    ~doc:
      "Fault-sweep campaigns over the registry: each algorithm is simulated \
       under deterministic link-degradation plans of increasing severity \
       and reports its completion-time degradation or the watchdog's hang \
       diagnosis. Output is byte-identical for any $(b,--jobs). Exit 1 \
       when a benign (severity < 1) plan hangs, 2 on unusable input."
    Term.(
      const run $ quick_arg $ json_arg $ seed_arg $ severities_arg
      $ algos_arg $ topology_arg $ out_arg $ size_arg $ jobs_arg)

let figures_cmd =
  let which_arg =
    let doc = "Figure ids to regenerate (default: all)." in
    Arg.(value & pos_all string [] & info [] ~docv:"FIG" ~doc)
  in
  let run which () =
    let known = H.Figures.all @ H.Ablations.all in
    let selected =
      match which with
      | [] -> H.Figures.all
      | ids -> List.filter (fun (id, _) -> List.mem id ids) known
    in
    if selected = [] then
      unusable_input "no matching figures; known: %s"
        (String.concat " " (List.map fst known));
    List.iter
      (fun (_, f) ->
        let fig = f () in
        H.Report.print Format.std_formatter fig;
        print_string (H.Report.summarize fig))
      selected;
    ok
  in
  command "figures" ~doc:"Regenerate the paper's evaluation figures"
    Term.(const run $ which_arg)

let main =
  let doc = "MSCCLang: compile, verify and simulate GPU collectives" in
  Cmd.group (Cmd.info "msccl" ~doc)
    [
      list_cmd; compile_cmd; verify_cmd; lint_cmd; analyze_cmd; show_cmd;
      simulate_cmd; tune_cmd; fuzz_cmd; chaos_cmd; figures_cmd;
    ]

let () = exit (Cmd.eval' main)

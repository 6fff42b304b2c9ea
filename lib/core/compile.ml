type report = {
  chunk_ops : int;
  instrs_before_fusion : int;
  fusion : Fusion.stats;
  instrs_after_fusion : int;
  lint : Lint.diagnostic list;
  ir : Ir.t;
}

exception Lint_error of Lint.diagnostic list

let () =
  Printexc.register_printer (function
    | Lint_error ds ->
        Some (Format.asprintf "Compile.Lint_error:@.%a" Lint.pp ds)
    | _ -> None)

let finish ?(instances = 1) ?(verify = true) ?(lint = false) report =
  let ir = Instances.blocked report.ir ~instances in
  if verify then Verify.check_exn ir;
  let diagnostics = if lint then Lint.run ir else [] in
  if Lint.has_errors diagnostics then raise (Lint_error (Lint.errors diagnostics));
  { report with lint = diagnostics; ir }

let compile_dag ?(fuse = true) ?proto ?instances ?verify ?lint dag =
  (* Counted first: the Chunk DAG is garbage once lowered. *)
  let chunk_ops = Chunk_dag.num_nodes dag in
  let idag = Instr_dag.of_chunk_dag dag in
  let before = Instr_dag.num_live idag in
  let fusion =
    if fuse then Fusion.fuse idag else { Fusion.rcs = 0; rrcs = 0; rrs = 0 }
  in
  let after = Instr_dag.num_live idag in
  let ir = Schedule.run ?proto idag in
  finish ?instances ?verify ?lint
    {
      chunk_ops;
      instrs_before_fusion = before;
      fusion;
      instrs_after_fusion = after;
      lint = [];
      ir;
    }

let compile ?name ?fuse ?proto ?instances ?verify ?lint coll f =
  let dag = Program.trace ?name coll f in
  compile_dag ?fuse ?proto ?instances ?verify ?lint dag

let ir ?name ?fuse ?proto ?instances ?verify ?lint coll f =
  (compile ?name ?fuse ?proto ?instances ?verify ?lint coll f).ir

let pp_report fmt r =
  Format.fprintf fmt
    "%s@ chunk ops: %d, instrs: %d -> %d after fusion (%a)" (Ir.summary r.ir)
    r.chunk_ops r.instrs_before_fusion r.instrs_after_fusion Fusion.pp_stats
    r.fusion;
  if r.lint <> [] then Format.fprintf fmt "@ lint:@ %a" Lint.pp r.lint

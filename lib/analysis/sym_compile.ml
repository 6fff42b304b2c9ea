(* Symmetry-aware compilation, certified.

   Replicate builds the IR from one representative slice; the hint's
   permutation is then certified as a true DAG automorphism
   (Symmetry.verify_candidate) before the result is accepted. A failed
   certification — like any construction failure — silently falls back
   to the full pipeline, so hints change compile cost but never
   output. Both paths end in the same post-schedule tail
   (Compile.finish). *)

open Msccl_core

type outcome =
  | Replicated of Symmetry.t
  | Fell_back of string

exception Sym_mismatch of string

let () =
  Printexc.register_printer (function
    | Sym_mismatch m -> Some ("Sym_compile.Sym_mismatch: " ^ m)
    | _ -> None)

let certificate ir (hint : Sym_hint.t) =
  let p = Array.length ir.Ir.gpus in
  let name = Sym_hint.name hint ~num_ranks:p in
  match
    Symmetry.verify_candidate ir ~name (Sym_hint.perm hint ~num_ranks:p)
  with
  | Ok gen -> Ok (Symmetry.of_generator ir gen)
  | Error v -> Error (Symmetry.violation_message v)

let compile ?name ?fuse ?proto ?instances ?verify ?lint
    ?(differential = false) ~hint coll f =
  let attempt =
    try
      let r = Replicate.run ?proto ?name ~hint ?fuse coll in
      let ir = Lazy.force r.Replicate.r_ir in
      match certificate ir hint with
      | Ok sym -> Ok (r, ir, sym)
      | Error msg -> Error ("certification failed: " ^ msg)
    with Replicate.Fallback msg -> Error msg
  in
  match attempt with
  | Error msg ->
      ( Compile.compile ?name ?fuse ?proto ?instances ?verify ?lint coll f,
        Fell_back msg )
  | Ok (r, ir, sym) ->
      if differential then begin
        let reference = Compile.ir ?name ?fuse ?proto ~verify:false coll f in
        if not (Ir.equal ir reference) then
          raise
            (Sym_mismatch
               (Printf.sprintf
                  "replicated IR differs from the full-trace IR (%s)"
                  ir.Ir.name))
      end;
      ( Compile.finish ?instances ?verify ?lint
          {
            Compile.chunk_ops = r.Replicate.r_chunk_ops;
            instrs_before_fusion = r.Replicate.r_instrs_before_fusion;
            fusion = r.Replicate.r_fusion;
            instrs_after_fusion = r.Replicate.r_instrs_after_fusion;
            lint = [];
            ir;
          },
        Replicated sym )

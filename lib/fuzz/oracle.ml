open Msccl_core

type id =
  | Exec
  | Equiv
  | Static
  | Symmetry
  | Provenance
  | Perf
  | Roundtrip
  | Chaos
  | Sym_compile
  | Ingest

let all =
  [
    Exec;
    Equiv;
    Static;
    Symmetry;
    Provenance;
    Perf;
    Roundtrip;
    Chaos;
    Sym_compile;
    Ingest;
  ]

let id_name = function
  | Exec -> "exec"
  | Equiv -> "equiv"
  | Static -> "static"
  | Symmetry -> "symmetry"
  | Provenance -> "provenance"
  | Perf -> "perf"
  | Roundtrip -> "roundtrip"
  | Chaos -> "chaos"
  | Sym_compile -> "sym_compile"
  | Ingest -> "ingest"

let id_of_name = function
  | "exec" -> Some Exec
  | "equiv" -> Some Equiv
  | "static" -> Some Static
  | "symmetry" -> Some Symmetry
  | "provenance" -> Some Provenance
  | "perf" -> Some Perf
  | "roundtrip" -> Some Roundtrip
  | "chaos" -> Some Chaos
  | "sym_compile" -> Some Sym_compile
  | "ingest" -> Some Ingest
  | _ -> None

type failure = {
  oracle : id;
  detail : string;
}

let pp_failure fmt f =
  Format.fprintf fmt "[%s] %s" (id_name f.oracle) f.detail

let fail oracle fmt =
  Format.kasprintf (fun detail -> Error { oracle; detail }) fmt

(* ------------------------------------------------------------------ *)
(* Exec: postcondition + numeric differential                          *)
(* ------------------------------------------------------------------ *)

let elems_per_chunk = 4

let data_seed = 1234

let float_close a b =
  Float.abs (a -. b) <= 1e-6 *. (1. +. Float.abs a)

let check_exec (ir : Ir.t) =
  match Verify.check_postcondition ir with
  | Error (m :: _) ->
      fail Exec "postcondition: %a" Verify.pp_mismatch m
  | Error [] -> assert false
  | Ok () ->
      let st =
        Executor.Data.run_random ~elems_per_chunk ~seed:data_seed ir
      in
      let num_ranks = Ir.num_ranks ir in
      let bad = ref None in
      for rank = 0 to num_ranks - 1 do
        let out = Executor.Data.output st ~rank in
        Array.iteri
          (fun index actual ->
            if !bad = None then
              match
                Executor.Data.reference ~elems_per_chunk ~seed:data_seed ir
                  ~rank ~index
              with
              | None -> ()
              | Some expected -> (
                  match actual with
                  | None -> bad := Some (rank, index, "never written")
                  | Some actual ->
                      if not (Array.for_all2 (fun a b -> float_close a b)
                                expected actual)
                      then
                        bad :=
                          Some
                            ( rank,
                              index,
                              Printf.sprintf "got %g, expected %g" actual.(0)
                                expected.(0) )))
          out
      done;
      (match !bad with
      | None -> Ok ()
      | Some (rank, index, what) ->
          fail Exec "numeric result at rank %d out[%d]: %s" rank index what)

(* ------------------------------------------------------------------ *)
(* Equiv: fuse on/off and instances k/1                                *)
(* ------------------------------------------------------------------ *)

let outputs_equal label ir_a ir_b =
  let st_a = Executor.Symbolic.run_collective ir_a in
  let st_b = Executor.Symbolic.run_collective ir_b in
  let bad = ref None in
  for rank = 0 to Ir.num_ranks ir_a - 1 do
    let a = Executor.Symbolic.output st_a ~rank in
    let b = Executor.Symbolic.output st_b ~rank in
    if Array.length a <> Array.length b then
      bad := Some (rank, -1, "output buffer sizes differ")
    else
      Array.iteri
        (fun index va ->
          if !bad = None && not (Option.equal Chunk.equal va b.(index)) then
            bad :=
              Some
                ( rank,
                  index,
                  Format.asprintf "%a vs %a"
                    (Format.pp_print_option Chunk.pp
                       ~none:(fun fmt () ->
                         Format.pp_print_string fmt "uninit"))
                    va
                    (Format.pp_print_option Chunk.pp
                       ~none:(fun fmt () ->
                         Format.pp_print_string fmt "uninit"))
                    b.(index) ))
        a
  done;
  match !bad with
  | None -> Ok ()
  | Some (rank, index, what) ->
      fail Equiv "%s differ at rank %d out[%d]: %s" label rank index what

(* Instance k of the blocked layout sees the logical input chunk (q, i) as
   (q, i + k * in_chunks) and writes its results to output slice k — the
   contract {!Msccl_core.Instances.blocked} establishes. *)
let check_instances base repl ~instances =
  let coll = base.Ir.collective in
  let in_chunks = Collective.input_chunks coll in
  let out_size = Collective.output_buffer_size coll in
  let shift k c =
    match Chunk.inputs c with
    | None -> c
    | Some ids ->
        Chunk.reduce_many
          (List.map
             (fun (q, i) -> Chunk.input ~rank:q ~index:(i + (k * in_chunks)))
             ids)
  in
  let st_b = Executor.Symbolic.run_collective base in
  let st_r = Executor.Symbolic.run_collective repl in
  let bad = ref None in
  for rank = 0 to Ir.num_ranks base - 1 do
    let out_b = Executor.Symbolic.output st_b ~rank in
    let out_r = Executor.Symbolic.output st_r ~rank in
    for k = 0 to instances - 1 do
      for i = 0 to out_size - 1 do
        if !bad = None then begin
          let expected = Option.map (shift k) out_b.(i) in
          let actual = out_r.((k * out_size) + i) in
          if not (Option.equal Chunk.equal expected actual) then
            bad := Some (rank, k, i)
        end
      done
    done
  done;
  match !bad with
  | None -> Ok ()
  | Some (rank, k, i) ->
      fail Equiv
        "instance %d of %d disagrees with the base compilation at rank %d \
         out[%d]"
        k instances rank i

let check_equiv ~compile (c : Case.t) =
  let ( let* ) = Result.bind in
  let* () =
    outputs_equal "fused and unfused outputs"
      (compile ~fuse:true ~instances:c.Case.instances)
      (compile ~fuse:false ~instances:c.Case.instances)
  in
  if c.Case.instances = 1 then Ok ()
  else
    check_instances
      (compile ~fuse:c.Case.fuse ~instances:1)
      (compile ~fuse:c.Case.fuse ~instances:c.Case.instances)
      ~instances:c.Case.instances

(* ------------------------------------------------------------------ *)
(* Static: verify + races + lint                                       *)
(* ------------------------------------------------------------------ *)

let check_static (ir : Ir.t) =
  match Verify.check ir with
  | Error msg -> fail Static "verify: %s" msg
  | Ok () -> (
      match Races.find ir with
      | race :: _ -> fail Static "race: %a" Races.pp_race race
      | [] -> (
          match Lint.errors (Lint.run ir) with
          | d :: _ -> fail Static "lint: %a" Lint.pp_diagnostic d
          | [] -> Ok ()))

(* ------------------------------------------------------------------ *)
(* Symmetry: certification must notice a broken symmetry               *)
(* ------------------------------------------------------------------ *)

(* Soundness of certification: break one rank's program
   ({!Mutate.break_symmetry}) and demand that the inferred orbits are no
   longer certified. A stale or wrongly-certified orbit is exactly the
   bug class that would make the orbit-quotient consumers (provenance,
   replication, cohort simulation) silently under-report. *)
let check_symmetry (ir : Ir.t) =
  let broken = Mutate.break_symmetry ir in
  if broken == ir then Ok () (* nothing to perturb (all-Nop program) *)
  else
    let s = Msccl_analysis.Symmetry.infer broken in
    if Msccl_analysis.Symmetry.certified s then
      fail Symmetry
        "certification survived a broken-symmetry mutant (generators: %s)"
        (String.concat ", "
           (List.map
              (fun g -> g.Msccl_analysis.Symmetry.g_name)
              s.Msccl_analysis.Symmetry.s_generators))
    else Ok ()

(* ------------------------------------------------------------------ *)
(* Provenance: static dataflow verdict must equal the executor's       *)
(* ------------------------------------------------------------------ *)

(* The chunk-provenance abstract interpretation claims verdict parity
   with the executor by construction; this oracle holds it to that on
   every case — clean compiles and fusion-bug mutants alike. Same
   ok/error verdict, same wrong-output positions, and the
   orbit-quotiented run must agree with the full one on representative
   ranks (the only ranks it reports). *)

let slot_positions diags =
  let open Msccl_analysis.Provenance in
  List.filter_map
    (fun d ->
      match (d.dg_kind, d.dg_loc) with
      | ( ( Never_written | Missing_contribution _
          | Duplicated_contribution _ | Divergent
          | Overwritten_before_read _ ),
          Some l ) ->
          Some (d.dg_rank, l.Loc.index)
      | _ -> None)
    diags
  |> List.sort compare

let check_provenance (ir : Ir.t) =
  let dynamic =
    (* [None] = executor crashed; [Some ps] = completed with the given
       wrong (rank, index) output positions. *)
    match Verify.check_postcondition ir with
    | Ok () -> Some []
    | Error ms ->
        Some
          (List.sort compare
             (List.map (fun m -> (m.Verify.m_rank, m.Verify.m_index)) ms))
    | exception Executor.Exec_error _ -> None
  in
  let ( let* ) = Result.bind in
  let full = Msccl_analysis.Provenance.check ir in
  let* () =
    match (dynamic, full) with
    | Some [], Ok () -> Ok ()
    | Some [], Error ds ->
        fail Provenance
          "executor satisfied the postcondition but the static pass found \
           %d diagnostic(s); first: %a"
          (List.length ds) Msccl_analysis.Provenance.pp_diag (List.hd ds)
    | Some (_ :: _ as dyn), Ok () ->
        fail Provenance
          "executor found %d wrong output slot(s) but the static verdict \
           is clean"
          (List.length dyn)
    | Some (_ :: _ as dyn), Error ds ->
        let st = slot_positions ds in
        if st <> [] && st <> dyn then
          fail Provenance
            "static wrong-slot positions (%d) differ from the executor's \
             (%d)"
            (List.length st) (List.length dyn)
        else Ok ()
    | None, Error _ -> Ok ()
    | None, Ok () ->
        fail Provenance "executor crashed but the static verdict is clean"
  in
  let s = Msccl_analysis.Symmetry.infer ir in
  let quot = Msccl_analysis.Provenance.check ~symmetry:s ir in
  match (full, quot) with
  | Ok (), Ok () -> Ok ()
  | Ok (), Error ds ->
      fail Provenance
        "quotient pass found %d diagnostic(s) the full pass did not; \
         first: %a"
        (List.length ds) Msccl_analysis.Provenance.pp_diag (List.hd ds)
  | Error ds, Ok () ->
      fail Provenance
        "full pass found %d diagnostic(s) the quotient pass missed"
        (List.length ds)
  | Error fd, Error qd ->
      let reps = Orbit.reps s.Msccl_analysis.Symmetry.s_orbit in
      let fp =
        List.filter (fun (r, _) -> List.mem r reps) (slot_positions fd)
      in
      let qp = slot_positions qd in
      if qp <> [] && fp <> [] && qp <> fp then
        fail Provenance
          "quotient wrong-slot positions (%d) diverge from the full \
           pass's on representative ranks (%d)"
          (List.length qp) (List.length fp)
      else Ok ()

(* ------------------------------------------------------------------ *)
(* Perf: simulated time must respect the lower-bound certificate       *)
(* ------------------------------------------------------------------ *)

let check_perf (c : Case.t) (ir : Ir.t) =
  let topo = Case.topology c in
  let buffer_bytes = float_of_int Perfcheck.default_size_bytes in
  let sim =
    Simulator.run_buffer ~topo ~buffer_bytes ~check_occupancy:false ir
  in
  let pc = Perfcheck.analyze ~topo ir in
  let lb = Perfcheck.lb_total pc.Perfcheck.bound in
  if sim.Simulator.kernel_time < lb *. (1. -. 1e-6) then
    fail Perf
      "simulated kernel time %.3g us beats the lower bound %.3g us \
       (latency %.3g + bandwidth %.3g + compute %.3g)"
      (sim.Simulator.kernel_time *. 1e6)
      (lb *. 1e6)
      (pc.Perfcheck.bound.Perfcheck.lb_latency *. 1e6)
      (pc.Perfcheck.bound.Perfcheck.lb_bandwidth *. 1e6)
      (pc.Perfcheck.bound.Perfcheck.lb_compute *. 1e6)
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Chaos: benign fault plans only slow a run down                      *)
(* ------------------------------------------------------------------ *)

(* A benign (timing-only) plan must leave the run able to complete, must
   not speed it up (the engine shares links by flow count, so capacity
   never increases and every injected delay propagates causally forward),
   and must not touch the IR — the executor's output depends only on the
   IR, so an unchanged print is an unchanged result. *)
let check_chaos (c : Case.t) (ir : Ir.t) =
  let topo = Case.topology c in
  let buffer_bytes = float_of_int Perfcheck.default_size_bytes in
  let printed = Xml.to_string ir in
  let free =
    Simulator.run_buffer ~topo ~buffer_bytes ~check_occupancy:false ir
  in
  let faults =
    Msccl_faults.Plan.random
      ~seed:(c.Case.seed + (31 * c.Case.index))
      ~severity:0.5 ~topo
  in
  assert (Msccl_faults.Plan.is_benign faults);
  match
    Simulator.run_buffer ~topo ~buffer_bytes ~check_occupancy:false ~faults ir
  with
  | exception Simulator.Hang h ->
      fail Chaos
        "benign plan hung the simulation at %.3g us (%d of %d thread blocks \
         blocked)"
        (h.Simulator.h_time *. 1e6)
        (List.length h.Simulator.h_blocked)
        h.Simulator.h_total_tbs
  | faulted ->
      if not (String.equal (Xml.to_string ir) printed) then
        fail Chaos "simulating under faults mutated the IR"
      else if
        faulted.Simulator.time < free.Simulator.time *. (1. -. 1e-9)
      then
        fail Chaos
          "faulted run finished in %.6g us, beating the fault-free %.6g us \
           (benign plans can only delay)"
          (faulted.Simulator.time *. 1e6)
          (free.Simulator.time *. 1e6)
      else Ok ()

(* ------------------------------------------------------------------ *)
(* Sym_compile: replicated compilation and cohort simulation are       *)
(* semantically invisible                                              *)
(* ------------------------------------------------------------------ *)

(* The case's knob vector (rank count, channels, channel rotation,
   protocol, fusion) parameterizes a shift-[s] ring AllReduce sibling:
   the ring visits the ranks in arithmetic order 0, s, 2s, ... with
   gcd(s, num_ranks) = 1, the shift drawn from the case's seed. The
   sibling is compiled twice — replicated from its one-slice hint and
   certified, and through the full pipeline — and simulated twice — cohort-batched and
   scalar. Both pairs must be indistinguishable: byte-identical XML and
   identical completion time / message count / wire bytes. *)
let check_sym_compile (c : Case.t) =
  let p = Case.num_ranks c in
  let channels = max 1 c.Case.channels in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let coprimes =
    List.filter (fun s -> gcd s p = 1) (List.init (max 1 (p - 1)) (( + ) 1))
  in
  let s =
    List.nth coprimes ((c.Case.seed + c.Case.index) mod List.length coprimes)
  in
  let ranks = List.init p (fun i -> i * s mod p) in
  let ch ~hop = Some ((hop + c.Case.chan_rot) mod channels) in
  let body ?only prog =
    Msccl_algorithms.Patterns.ring_reduce_scatter prog ~ranks ~offset:0
      ~count:1 ~ch ?only ();
    Msccl_algorithms.Patterns.ring_all_gather prog ~ranks ~offset:0 ~count:1
      ~ch ~hop_base:(p - 1) ?only ()
  in
  let coll =
    Collective.make Collective.Allreduce ~num_ranks:p ~chunk_factor:p
      ~inplace:true ()
  in
  let hint =
    Sym_hint.ring_shift ~shift:s ~d_input:1 (body ~only:(Int.equal 0))
  in
  let ( let* ) = Result.bind in
  let* rep =
    match
      Msccl_analysis.Sym_compile.compile ~name:"sym-sibling" ~fuse:c.Case.fuse
        ~proto:c.Case.proto ~verify:false ~differential:true ~hint coll body
    with
    | report, Msccl_analysis.Sym_compile.Replicated _ -> Ok report
    | _, Msccl_analysis.Sym_compile.Fell_back m ->
        fail Sym_compile
          "replicated compile of the shift-%d ring sibling fell back: %s" s m
  in
  let full =
    Compile.compile ~name:"sym-sibling" ~fuse:c.Case.fuse ~proto:c.Case.proto
      ~verify:false coll body
  in
  let* () =
    if String.equal (Xml.to_string rep.ir) (Xml.to_string full.ir) then Ok ()
    else
      fail Sym_compile
        "replicated IR prints differently from the full pipeline's (shift %d, \
         %d ranks)"
        s p
  in
  let r = Replicate.run ~name:"sym-sibling" ~fuse:c.Case.fuse
      ~proto:c.Case.proto ~hint coll
  in
  let topo = Case.topology c in
  let chunk_bytes =
    float_of_int Perfcheck.default_size_bytes /. float_of_int p
  in
  let scalar =
    Simulator.run ~topo ~chunk_bytes ~check_occupancy:false
      (Lazy.force r.Replicate.r_ir)
  in
  let cohort, co =
    Simulator.run_sym ~topo ~chunk_bytes ~check_occupancy:false r
  in
  if
    Float.abs (cohort.Simulator.time -. scalar.Simulator.time)
    > 1e-12 *. Float.max 1. scalar.Simulator.time
  then
    fail Sym_compile
      "cohort completion time %.12g s differs from the scalar simulator's \
       %.12g s (stride %d, width %d)"
      cohort.Simulator.time scalar.Simulator.time co.Simulator.co_stride
      co.Simulator.co_width
  else if cohort.Simulator.messages <> scalar.Simulator.messages then
    fail Sym_compile "cohort message count %d differs from the scalar %d"
      cohort.Simulator.messages scalar.Simulator.messages
  else if
    Float.abs (cohort.Simulator.wire_bytes -. scalar.Simulator.wire_bytes)
    > 1e-6 *. Float.max 1. scalar.Simulator.wire_bytes
  then
    fail Sym_compile "cohort wire bytes %g differ from the scalar %g"
      cohort.Simulator.wire_bytes scalar.Simulator.wire_bytes
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Roundtrip: Ir -> Xml -> Ir is lossless and prints stably            *)
(* ------------------------------------------------------------------ *)

let check_roundtrip (ir : Ir.t) =
  let module I = Msccl_interop.Ingest in
  let s1 = Xml.to_string ir in
  match I.of_string ~file:"<printed>" s1 with
  | Error ds ->
      fail Roundtrip "printed IR was rejected: %s"
        (match I.errors ds with
        | d :: _ -> I.diag_to_string d
        | [] -> "(no diagnostics)")
  | Ok (_, d :: _) ->
      fail Roundtrip "printed IR drew a diagnostic: %s" (I.diag_to_string d)
  | Ok (ir2, []) ->
      if not (Ir.equal ir ir2) then
        fail Roundtrip "parsed IR differs from the printed one"
      else
        let s2 = Xml.to_string ir2 in
        if not (String.equal s1 s2) then
          fail Roundtrip "second print differs from the first"
        else Ok ()

(* ------------------------------------------------------------------ *)
(* Ingest: external-dialect ingestion is total and structured          *)
(* ------------------------------------------------------------------ *)

let ingest_mangles_per_case = 8

let check_ingest (c : Case.t) (ir : Ir.t) =
  let module I = Msccl_interop.Ingest in
  let module M = Msccl_interop.Mangle in
  let doc = Xml.to_string ir in
  let ( let* ) = Result.bind in
  let* () =
    match I.of_string ~file:"<compiled>" doc with
    | Ok (ir', []) when Ir.equal ir ir' -> Ok ()
    | Ok (_, []) -> fail Ingest "ingesting our own output changed the IR"
    | Ok (_, ws) ->
        fail Ingest "our own output drew %d ingest warning(s): %s"
          (List.length ws)
          (I.diag_to_string (List.hd ws))
    | Error ds ->
        fail Ingest "our own output was rejected: %s"
          (match I.errors ds with
          | d :: _ -> I.diag_to_string d
          | [] -> "(no diagnostics)")
    | exception e ->
        fail Ingest "ingesting our own output raised: %s"
          (Printexc.to_string e)
  in
  (* Every accepted corruption also gets a verdict from both interpreters
     of the runtime rules without an exception, and the static report is
     [Ok] iff it carries no diagnostics. A corruption declaring a buffer of
     more than 2^16 chunks is skipped: ingest accepts sizes such as
     s_chunks="4294967296", which the checkers would allocate. *)
  let verdicts tag (ir : Ir.t) =
    let huge =
      Array.exists
        (fun (g : Ir.gpu) ->
          max g.Ir.input_chunks (max g.Ir.output_chunks g.Ir.scratch_chunks)
          > 1 lsl 16)
        ir.Ir.gpus
    in
    let module P = Msccl_analysis.Provenance in
    if huge then Ok ()
    else
      match (Verify.check ir, P.analyze ir, P.check ir) with
      | exception e ->
          fail Ingest "%s: a checker raised on the accepted program: %s" tag
            (Printexc.to_string e)
      | _, r, c when Result.is_ok c <> (r.P.r_diags = []) ->
          fail Ingest
            "%s: provenance check is %s but the report has %d diagnostic(s)"
            tag
            (if Result.is_ok c then "Ok" else "Error")
            (List.length r.P.r_diags)
      | _ -> Ok ()
  in
  (* [of_string] decodes the lexer's events, [of_tree] a replay of the
     parsed tree's into the same decoder: both give an equal program and
     the same diagnostics. *)
  let same_as_replay tag doc streamed =
    match
      match Xml.parse_tree ~file:"<mangled>" doc with
      | t -> I.of_tree ~file:"<mangled>" t
      | exception Xml.Parse_error e -> Error [ I.parse_diag e ]
    with
    | exception e ->
        fail Ingest "%s: the tree replay raised: %s" tag (Printexc.to_string e)
    | replayed -> (
        match (streamed, replayed) with
        | Ok (a, da), Ok (b, db) when Ir.equal a b && da = db -> Ok ()
        | Error da, Error db when da = db -> Ok ()
        | _ -> fail Ingest "%s: of_string and the tree replay disagree" tag)
  in
  (* Hostile sweep: every corruption must either be accepted (and then
     round-trip stably and get verdicts) or rejected with positioned
     structured diagnostics. Unstructured exceptions never escape. *)
  let rec sweep i =
    if i >= ingest_mangles_per_case then Ok ()
    else
      let mangled, what =
        M.mangle ~seed:c.Case.seed
          ~index:((c.Case.index * ingest_mangles_per_case) + i)
          doc
      in
      let tag = Printf.sprintf "mangle %d (%s)" i what in
      match I.of_string ~file:"<mangled>" mangled with
      | exception e ->
          fail Ingest "%s: unstructured exception escaped ingestion: %s" tag
            (Printexc.to_string e)
      | streamed -> (
          let* () = same_as_replay tag mangled streamed in
          match streamed with
          | Error [] -> fail Ingest "%s: rejected with no diagnostics" tag
          | Error ds -> (
              match
                List.find_opt
                  (fun d -> d.I.d_severity = I.Error && d.I.d_pos.Xml.line < 1)
                  ds
              with
              | Some d ->
                  fail Ingest "%s: rejection without a position: %s" tag
                    (I.diag_to_string d)
              | None -> sweep (i + 1))
          | Ok (ir', _) -> (
              let doc2 = Xml.to_string ir' in
              match I.of_string ~file:"<reprint>" doc2 with
              | Ok (ir2, _) when Ir.equal ir' ir2 ->
                  Result.bind (verdicts tag ir') (fun () -> sweep (i + 1))
              | Ok _ -> fail Ingest "%s: accepted repair does not round-trip" tag
              | Error ds ->
                  fail Ingest "%s: accepted repair rejected on reprint: %s" tag
                    (match I.errors ds with
                    | d :: _ -> I.diag_to_string d
                    | [] -> "(no diagnostics)")
              | exception e ->
                  fail Ingest "%s: reprint ingestion raised: %s" tag
                    (Printexc.to_string e)))
  in
  sweep 0

(* ------------------------------------------------------------------ *)

let run ?(mutate = Fun.id) ?(oracles = all) (c : Case.t) =
  (* [mutate] models a fusion-pass bug: it only ever corrupts IR compiled
     with fusion enabled. *)
  let compile ~fuse ~instances =
    let ir = Case.compile ~fuse ~instances c in
    if fuse then mutate ir else ir
  in
  let primary =
    lazy (compile ~fuse:c.Case.fuse ~instances:c.Case.instances)
  in
  let guarded oracle f =
    try f () with
    | Executor.Exec_error m -> fail oracle "executor: %s" m
    | Program.Trace_error m -> fail oracle "trace: %s" m
    | Simulator.Sim_error m -> fail oracle "simulator: %s" m
    | Simulator.Hang h -> fail oracle "hang: %s" (Simulator.hang_message h)
    | Instances.Replication_error m -> fail oracle "replication: %s" m
    | Replicate.Fallback m -> fail oracle "replicate: %s" m
    | Failure m -> fail oracle "%s" m
    | Invalid_argument m -> fail oracle "invalid argument: %s" m
  in
  let check oracle =
    guarded oracle (fun () ->
        match oracle with
        | Exec -> check_exec (Lazy.force primary)
        | Equiv -> check_equiv ~compile c
        | Static -> check_static (Lazy.force primary)
        | Symmetry -> check_symmetry (Lazy.force primary)
        | Provenance -> check_provenance (Lazy.force primary)
        | Perf -> check_perf c (Lazy.force primary)
        | Roundtrip -> check_roundtrip (Lazy.force primary)
        | Chaos -> check_chaos c (Lazy.force primary)
        | Sym_compile -> check_sym_compile c
        | Ingest -> check_ingest c (Lazy.force primary))
  in
  let rec go = function
    | [] -> Ok ()
    | oracle :: rest -> (
        match check oracle with Ok () -> go rest | Error _ as e -> e)
  in
  go oracles

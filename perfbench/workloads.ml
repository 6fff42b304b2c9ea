(* The five workloads. Each [setup] builds the seeded inputs (the program
   under test never sees the seed) and returns the function that runs one
   iteration: one user session through the toolchain, as a sequence of
   ops. Sizes are chosen so that one iteration takes well under two
   seconds on a 2-vCPU host, which gives every run several iterations to
   take a median over. *)

open Msccl_core
module T = Msccl_topology
module A = Msccl_algorithms
module H = Msccl_harness
module S = Msccl_analysis
module I = Msccl_interop.Ingest
module L = Layers

type scale = {
  ring_ranks : int;
  allpairs_ranks : int;
  hier_ranks : int;
  mangle_ranks : int;
  mangles_accepted : int;
  mangles_rejected : int;
  frontier_ranks : int;
  tune_points : int;
  tune_tables : (string * int) list;  (** collective, ndv4 nodes *)
}

let full =
  {
    ring_ranks = 128;
    allpairs_ranks = 96;
    hier_ranks = 64;
    mangle_ranks = 16;
    mangles_accepted = 60;
    mangles_rejected = 100;
    frontier_ranks = 1024;
    tune_points = 11;
    tune_tables = [ ("allreduce", 1); ("alltoall", 2); ("alltoall", 4) ];
  }

(* 16 ranks everywhere: the harness smoke test. *)
let toy =
  {
    ring_ranks = 16;
    allpairs_ranks = 16;
    hier_ranks = 16;
    mangle_ranks = 8;
    mangles_accepted = 2;
    mangles_rejected = 2;
    frontier_ranks = 16;
    tune_points = 3;
    tune_tables = [ ("allreduce", 1); ("alltoall", 2) ];
  }

type env = {
  scale : scale;
  seed : int;
  corpus : string;  (** Directory holding xml-dialect/ and xml-bad/. *)
}

type t = {
  name : string;
  setup : env -> Ctx.t -> unit;
}

let sprintf = Printf.sprintf

let rng env name = Random.State.make [| env.seed; Hashtbl.hash name |]

(* A buffer size within 20 KiB of [base]: the seed moves modelled times
   by 2% at most, so sim_time_geomean_us stays comparable across seeds. *)
let seeded_bytes rng base = base + (4096 * (Random.State.int rng 11 - 5))

let allreduce n =
  Collective.make Collective.Allreduce ~num_ranks:n ~chunk_factor:n
    ~inplace:true ()

let md5 s = Digest.to_hex (Digest.string s)

let verify_fact = function
  | Ok () -> "verify ok"
  | Error m -> "verify failed: " ^ m

let provenance_fact (p : S.Provenance.report) =
  sprintf "provenance %s diags=%d lints=%d steps=%d"
    (match p.S.Provenance.r_mode with
    | S.Provenance.Full -> "full"
    | S.Provenance.Quotient { orbits; interpreted_ranks } ->
        sprintf "quotient(%d/%d)" interpreted_ranks orbits)
    (List.length p.S.Provenance.r_diags)
    (List.length p.S.Provenance.r_lints)
    p.S.Provenance.r_steps_interpreted

let agreement v (p : S.Provenance.report) =
  if (v = Ok ()) = (p.S.Provenance.r_diags = []) then []
  else [ "static provenance verdict differs from Verify.check's" ]

(* Runs a sub-step either as its own op (pipelines) or inside the
   enclosing op (one ingested file is one op). *)
type stepper = { step : 'a. string -> (unit -> 'a) -> 'a }

let as_ops ctx = { step = (fun name f -> Ctx.op ctx name f) }

let inline = { step = (fun _ f -> f ()) }

(* verify, lint, verify --static, analyze and simulate on a program that
   must be correct: a registry program or our own printed output. *)
let analyses ctx st ~topo ~size_bytes ir =
  let v = st.step "verify" (fun () -> L.verify ir) in
  Ctx.record ctx
    ~facts:(fun () -> [ verify_fact v ])
    ~check:(fun () ->
      match v with Ok () -> [] | Error m -> [ "Verify.check failed: " ^ m ])
    ();
  let ds = st.step "lint" (fun () -> L.lint ir) in
  Ctx.record ctx
    ~facts:(fun () ->
      [
        sprintf "lint findings=%d errors=%d" (List.length ds)
          (List.length (Lint.errors ds));
      ])
    ~check:(fun () ->
      List.map
        (fun d -> Format.asprintf "lint: %a" Lint.pp_diagnostic d)
        (Lint.errors ds))
    ();
  let sym, prov =
    st.step "verify-static" (fun () ->
        let s = L.symmetry ir in
        (s, L.provenance ~symmetry:s ir))
  in
  Ctx.record ctx
    ~facts:(fun () ->
      [
        sprintf "symmetry orbits=%d"
          (Orbit.num_orbits sym.S.Symmetry.s_orbit);
        provenance_fact prov;
      ])
    ~check:(fun () -> agreement v prov)
    ();
  let pc = st.step "analyze" (fun () -> L.perfcheck ~topo ~size_bytes ir) in
  let lb = Perfcheck.lb_total pc.Perfcheck.bound in
  Ctx.record ctx
    ~facts:(fun () ->
      [ sprintf "perfcheck lb=%h estimate=%h" lb pc.Perfcheck.estimate ])
    ();
  let r =
    st.step "simulate" (fun () ->
        L.simulate ~topo ~buffer_bytes:(float_of_int size_bytes) ir)
  in
  Ctx.record ctx
    ~facts:(fun () ->
      [
        sprintf "simulate bytes=%d time=%h events=%d messages=%d" size_bytes
          r.Simulator.time r.Simulator.events r.Simulator.messages;
      ])
    ~check:(fun () ->
      if r.Simulator.time >= lb then []
      else
        [
          sprintf "modelled time %.9g s is below the perfcheck lower bound %.9g s"
            r.Simulator.time lb;
        ])
    ~times:(fun () -> [ r.Simulator.time ])
    ()

(* One compile-to-timing session on a registry algorithm. *)
let pipeline ~name ~ranks ~prog_name ~program ~untraced =
  let setup env =
    let n = ranks env.scale in
    let size_bytes = seeded_bytes (rng env name) (1 lsl 20) in
    let topo = T.Presets.ndv4 ~nodes:(n / 8) in
    let coll = allreduce n in
    let proto = T.Protocol.Simple in
    fun ctx ->
      let ir =
        Ctx.op ctx "compile" (fun () ->
            L.compile
              ~untraced:(fun () -> untraced ~proto n)
              ~name:prog_name ~proto coll (program n))
      in
      let xml = Ctx.op ctx "emit" (fun () -> L.emit ir) in
      Ctx.record ctx
        ~facts:(fun () ->
          [
            sprintf "xml md5=%s bytes=%d steps=%d tbs=%d" (md5 xml)
              (String.length xml) (Ir.num_steps ir) (Ir.num_thread_blocks ir);
          ])
        ();
      analyses ctx (as_ops ctx) ~topo ~size_bytes ir
  in
  { name; setup }

let ring_pipeline =
  pipeline ~name:"ring-pipeline"
    ~ranks:(fun s -> s.ring_ranks)
    ~prog_name:"ring-allreduce-ch1"
    ~program:(fun n -> A.Ring_allreduce.program ~num_ranks:n ~channels:1)
    ~untraced:(fun ~proto n ->
      A.Ring_allreduce.ir ~proto ~verify:false ~num_ranks:n ())

let allpairs_pipeline =
  pipeline ~name:"allpairs-pipeline"
    ~ranks:(fun s -> s.allpairs_ranks)
    ~prog_name:"allpairs-allreduce"
    ~program:(fun n -> A.Allpairs_allreduce.program ~num_ranks:n)
    ~untraced:(fun ~proto n ->
      A.Allpairs_allreduce.ir ~proto ~verify:false ~num_ranks:n ())

(* ------------------------------------------------------------------ *)

let read_dir dir ext =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ext)
  |> List.sort compare

let rejection_fact ds =
  sprintf "reject errors=%d diags=%d transcript=%s"
    (List.length (I.errors ds))
    (List.length ds)
    (md5 (I.diags_to_string ds))

let xml_ingest =
  let setup env =
    let sc = env.scale in
    let corpus sub = Filename.concat env.corpus sub in
    (* Labels match the committed transcripts ("corpus/xml-bad/..."). *)
    let load sub f =
      (sprintf "corpus/%s/%s" sub f, Spec.read_file (Filename.concat (corpus sub) f))
    in
    let dialect =
      List.map (load "xml-dialect") (read_dir (corpus "xml-dialect") ".xml")
    in
    let bad =
      List.map
        (fun f ->
          let label, doc = load "xml-bad" f in
          let _, expected =
            load "xml-bad" (Filename.remove_extension f ^ ".expected")
          in
          (label, doc, expected))
        (read_dir (corpus "xml-bad") ".xml")
    in
    let hier_nodes = sc.hier_ranks / 8 in
    let hier_ir =
      A.Hierarchical_allreduce.ir ~verify:false ~nodes:hier_nodes
        ~gpus_per_node:8 ()
    in
    let hier_label = sprintf "hierarchical-allreduce-%d.xml" sc.hier_ranks in
    let hier_doc = Xml.to_string hier_ir in
    let hier_topo = T.Presets.ndv4 ~nodes:hier_nodes in
    let size_bytes = seeded_bytes (rng env "xml-ingest") (1 lsl 20) in
    let ring_doc =
      Xml.to_string
        (A.Ring_allreduce.ir ~verify:false ~num_ranks:sc.mangle_ranks ())
    in
    (* The first [mangles_accepted] mangles that ingest accepts and the
       first [mangles_rejected] that it rejects, in index order. An
       accepted mangle costs a lint, a rejected one often only part of a
       parse, so fixing the mix keeps the seed from moving wall_s. A mangle
       whose accepted program declares a buffer of more than 2^16 chunks
       is skipped: ingest accepts sizes such as s_chunks="4294967296"
       (about 1 mangle in 13000) and Lint.run then allocates the whole
       buffer and runs out of memory. *)
    let accepted doc =
      match I.of_string doc with
      | Ok (ir, _) ->
          Some
            (Array.for_all
               (fun g ->
                 max g.Ir.input_chunks (max g.Ir.output_chunks g.Ir.scratch_chunks)
                 <= 1 lsl 16)
               ir.Ir.gpus)
      | Error _ -> None
    in
    let rec pick index ~acc ~rej picked =
      if acc = 0 && rej = 0 then List.rev picked
      else
        let ((doc, _) as m) =
          Msccl_interop.Mangle.mangle ~seed:env.seed ~index ring_doc
        in
        match accepted doc with
        | Some true when acc > 0 -> pick (index + 1) ~acc:(acc - 1) ~rej (m :: picked)
        | None when rej > 0 -> pick (index + 1) ~acc ~rej:(rej - 1) (m :: picked)
        | _ -> pick (index + 1) ~acc ~rej picked
    in
    let mangles = pick 0 ~acc:sc.mangles_accepted ~rej:sc.mangles_rejected [] in
    fun ctx ->
      Ctx.op ctx ("file:" ^ hier_label) (fun () ->
          match L.ingest ~file:hier_label hier_doc with
          | Error ds ->
              Ctx.record ctx
                ~facts:(fun () -> [ rejection_fact ds ])
                ~check:(fun () -> [ "our own printed program was rejected" ])
                ()
          | Ok (ir, warns) ->
              Ctx.record ctx
                ~facts:(fun () ->
                  [ sprintf "accept warnings=%d" (List.length warns) ])
                ~check:(fun () ->
                  (if Ir.equal ir hier_ir then []
                   else [ "ingested program differs from the printed one" ])
                  @ if warns = [] then [] else [ "own output drew warnings" ])
                ();
              analyses ctx inline ~topo:hier_topo ~size_bytes ir);
      List.iter
        (fun (label, doc) ->
          Ctx.op ctx ("file:" ^ label) (fun () ->
              match L.ingest ~file:label doc with
              | Error ds ->
                  Ctx.record ctx
                    ~facts:(fun () -> [ rejection_fact ds ])
                    ~check:(fun () -> [ "dialect file rejected" ])
                    ()
              | Ok (ir, warns) ->
                  let v = L.verify ir in
                  let s = L.symmetry ir in
                  let p = L.provenance ~symmetry:s ir in
                  Ctx.record ctx
                    ~facts:(fun () ->
                      [
                        sprintf "accept warnings=%d" (List.length warns);
                        verify_fact v;
                        provenance_fact p;
                      ])
                    ~check:(fun () ->
                      (match v with
                      | Ok () -> []
                      | Error m -> [ "dialect file failed Verify.check: " ^ m ])
                      @ agreement v p)
                    ()))
        dialect;
      List.iter
        (fun (label, doc, expected) ->
          Ctx.op ctx ("file:" ^ label) (fun () ->
              let result = L.ingest ~file:label doc in
              Ctx.record ctx
                ~facts:(fun () ->
                  match result with
                  | Ok _ -> [ "accept" ]
                  | Error ds -> [ rejection_fact ds ])
                ~check:(fun () ->
                  match result with
                  | Ok _ -> [ "hostile file accepted" ]
                  | Error ds ->
                      if I.diags_to_string ds ^ "\n" = expected then []
                      else [ "diagnostics differ from the .expected transcript" ])
                ()))
        bad;
      List.iteri
        (fun i (doc, what) ->
          Ctx.op ctx (sprintf "mangle:%d" i) (fun () ->
              match L.ingest ~file:"<mangled>" doc with
              | Error ds ->
                  Ctx.record ctx
                    ~facts:(fun () -> [ what; rejection_fact ds ])
                    ~check:(fun () ->
                      if ds = [] then [ "rejected with no diagnostics" ]
                      else
                        List.filter_map
                          (fun d ->
                            if d.I.d_severity = I.Error && d.I.d_pos.Xml.line < 1
                            then
                              Some ("unpositioned rejection: " ^ I.diag_to_string d)
                            else None)
                          ds)
                    ()
              | Ok (ir, warns) ->
                  (* [msccl lint FILE], not Verify.check: on about 5% of
                     accepted mangles Verify.check and Provenance.analyze
                     raise Invalid_argument from the executor (e.g. mangle
                     seed 1, index 24 of ring@32), while Lint.run never
                     raises. *)
                  let ds = L.lint ir in
                  Ctx.record ctx
                    ~facts:(fun () ->
                      [
                        what;
                        sprintf "accept warnings=%d" (List.length warns);
                        sprintf "lint findings=%d errors=%d" (List.length ds)
                          (List.length (Lint.errors ds));
                      ])
                    ~check:(fun () ->
                      match I.of_string ~file:"<reprint>" (Xml.to_string ir) with
                      | Ok (ir2, _) when Ir.equal ir ir2 -> []
                      | Ok _ -> [ "accepted mangle does not round-trip" ]
                      | Error _ -> [ "accepted mangle rejected on reprint" ])
                    ()))
        mangles
  in
  { name = "xml-ingest"; setup }

(* ------------------------------------------------------------------ *)

let tune_sweep =
  let setup env =
    let r = rng env "tune-sweep" in
    let tables =
      List.map
        (fun (coll, nodes) ->
          let sizes =
            List.init env.scale.tune_points (fun i ->
                1024.
                *. (4. ** float_of_int i)
                *. (1. +. (0.01 *. ((2. *. Random.State.float r 1.) -. 1.))))
          in
          (coll, nodes, T.Presets.ndv4 ~nodes, sizes))
        env.scale.tune_tables
    in
    fun ctx ->
      List.iter
        (fun (coll, nodes, topo, sizes) ->
          Ctx.op ctx (sprintf "tune:%s@ndv4:%d" coll nodes) (fun () ->
              let candidates, nccl =
                if coll = "allreduce" then
                  ( L.candidates H.Tuner.allreduce_candidates topo,
                    Msccl_baselines.Nccl_model.allreduce topo )
                else
                  ( L.candidates H.Tuner.alltoall_candidates topo,
                    Msccl_baselines.Nccl_model.alltoall topo )
              in
              let table = L.tune ~topo ~nccl ~candidates ~sizes in
              let winners =
                List.map
                  (fun s -> (s, H.Tuner.select table ~buffer_bytes:s))
                  sizes
              in
              Ctx.record ctx
                ~facts:(fun () ->
                  List.map (fun (s, w) -> sprintf "winner %h %s" s w) winners)
                ~check:(fun () ->
                  let entries = table.H.Tuner.t_entries in
                  let names =
                    "NCCL" :: List.map (fun c -> c.H.Tuner.cand_name) candidates
                  in
                  (match entries with
                  | first :: _ ->
                      if
                        first.H.Tuner.lo = List.hd sizes
                        && (List.nth entries (List.length entries - 1)).H.Tuner.hi
                           = List.nth sizes (List.length sizes - 1)
                      then []
                      else [ "selection table does not cover the size grid" ]
                  | [] -> [ "empty selection table" ])
                  @ List.filter_map
                      (fun (_, w) ->
                        if List.mem w names then None
                        else Some ("unknown winner " ^ w))
                      winners)
                ~times:(fun () ->
                  (* What the installed table achieves: the winner's
                     modelled time at every grid point. *)
                  List.map
                    (fun (s, w) ->
                      match
                        List.find_opt (fun c -> c.H.Tuner.cand_name = w) candidates
                      with
                      | None -> nccl ~buffer_bytes:s
                      | Some c ->
                          (Simulator.run_buffer ~topo ~buffer_bytes:s
                             ~max_tiles:c.H.Tuner.cand_max_tiles
                             ~check_occupancy:false c.H.Tuner.cand_ir)
                            .Simulator.time)
                    winners)
                ()))
        tables
  in
  { name = "tune-sweep"; setup }

(* ------------------------------------------------------------------ *)

let sym_frontier =
  let setup env =
    let n = env.scale.frontier_ranks in
    let size_bytes = seeded_bytes (rng env "sym-frontier") (1 lsl 20) in
    let coll = allreduce n in
    let hint = A.Ring_allreduce.hint ~num_ranks:n ~channels:1 in
    fun ctx ->
      let rep =
        Ctx.op ctx "compile" (fun () ->
            L.replicate ~proto:T.Protocol.Simple ~name:"ring-allreduce" ~hint
              coll)
      in
      Ctx.record ctx
        ~facts:(fun () ->
          [
            sprintf "replicate chunk_ops=%d instrs=%d->%d rep_tbs=%d"
              rep.Replicate.r_chunk_ops rep.Replicate.r_instrs_before_fusion
              rep.Replicate.r_instrs_after_fusion
              (Array.length rep.Replicate.r_rep.Ir.tbs);
          ])
        ();
      let r, cohort =
        Ctx.op ctx "simulate" (fun () ->
            let topo = L.topology ~nodes:(n / 8) in
            L.simulate_sym ~topo
              ~chunk_bytes:(float_of_int size_bytes /. float_of_int n)
              rep)
      in
      Ctx.record ctx
        ~facts:(fun () ->
          [
            sprintf "simulate bytes=%d time=%h events=%d messages=%d width=%d"
              size_bytes r.Simulator.time r.Simulator.events
              r.Simulator.messages cohort.Simulator.co_width;
          ])
        ~check:(fun () ->
          match cohort.Simulator.co_fallback with
          | None -> []
          | Some why -> [ "cohort simulation fell back: " ^ why ])
        ~times:(fun () -> [ r.Simulator.time ])
        ()
  in
  { name = "sym-frontier"; setup }

let all = [ ring_pipeline; allpairs_pipeline; xml_ingest; tune_sweep; sym_frontier ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Symmetry inference and certification.

   The load-bearing properties: a symmetry-preserving corruption (one
   dependency dropped at the same orbit-mapped coordinate on every rank)
   stays certified, a mutant that breaks the symmetry of a single rank
   never is, and race findings are orbit-invariant: every member of an
   orbit gets as many as its representative. *)

module A = Msccl_analysis
module H = Msccl_harness
module F = Msccl_fuzz
module Q = QCheck
open Msccl_core

let build ?(nodes = 1) ?(gpus = 8) name =
  let spec = Option.get (H.Registry.find name) in
  spec.H.Registry.build
    { H.Registry.default_params with nodes; gpus_per_node = gpus }

(* ------------------------------------------------------------------ *)
(* Inference on the registry                                           *)
(* ------------------------------------------------------------------ *)

let test_registry_inference () =
  (* algo, nodes, gpus, expected certified, expected orbit count *)
  let expect =
    [
      ("ring-allreduce", 1, 8, true, 1);
      ("allpairs-allreduce", 1, 8, true, 1);
      ("ring-allgather", 1, 8, true, 1);
      ("ring-reducescatter", 1, 8, true, 1);
      ("hierarchical-allreduce", 2, 4, true, 2);
      ("halving-doubling", 1, 8, true, 4);
      ("naive-alltoall", 1, 8, false, 8);
      ("tree-allreduce", 1, 8, false, 8);
      ("double-binary-tree", 1, 8, false, 8);
    ]
  in
  List.iter
    (fun (name, nodes, gpus, certified, orbits) ->
      let s = A.Symmetry.infer (build ~nodes ~gpus name) in
      Alcotest.(check bool)
        (name ^ " certified") certified
        (A.Symmetry.certified s);
      let o = s.A.Symmetry.s_orbit in
      Alcotest.(check int) (name ^ " orbits") orbits (Orbit.num_orbits o);
      (* [rep] sends every rank to its orbit's minimum, and [members] and
         [orbit_size] describe the same classes *)
      Alcotest.(check int)
        (name ^ " rep covers the ranks") (nodes * gpus)
        (Array.length o.Orbit.rep);
      Array.iteri
        (fun r v ->
          let ms = Orbit.members o v in
          Alcotest.(check bool)
            (Printf.sprintf "%s: rank %d in the orbit of %d" name r v)
            true (List.mem r ms);
          Alcotest.(check int)
            (Printf.sprintf "%s: rank %d maps to its orbit's minimum" name r)
            (List.hd ms) v;
          Alcotest.(check int)
            (Printf.sprintf "%s: orbit size of rank %d" name r)
            (List.length ms) (Orbit.orbit_size o r))
        o.Orbit.rep)
    expect

let test_asymmetric_has_witness () =
  let s = A.Symmetry.infer (build "naive-alltoall") in
  Alcotest.(check bool)
    "not certified" false (A.Symmetry.certified s);
  match s.A.Symmetry.s_rejected with
  | [] -> Alcotest.fail "expected a rejection witness"
  | v :: _ ->
      Alcotest.(check bool)
        "witness names a rank" true
        (v.A.Symmetry.v_rank >= 0);
      Alcotest.(check bool)
        "message nonempty" true
        (String.length (A.Symmetry.violation_message v) > 0)

let test_verify_candidate_direct () =
  let ir = build ~gpus:4 "ring-allreduce" in
  let identity = Array.init 4 Fun.id in
  (match A.Symmetry.verify_candidate ir ~name:"id" identity with
  | Ok g -> Alcotest.(check string) "name kept" "id" g.A.Symmetry.g_name
  | Error v ->
      Alcotest.failf "identity rejected: %s" (A.Symmetry.violation_message v));
  (* Swapping two ranks of a directed ring reverses one edge: not an
     automorphism. *)
  match A.Symmetry.verify_candidate ir ~name:"swap" [| 1; 0; 2; 3 |] with
  | Ok _ -> Alcotest.fail "rank swap certified on a directed ring"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Golden orbit reports                                                *)
(* ------------------------------------------------------------------ *)

let test_golden_ring_64 () =
  let s = A.Symmetry.infer (build ~nodes:8 ~gpus:8 "ring-allreduce") in
  let lines =
    [
      "symmetry: 64 ranks, fingerprint period 1";
      "certified generators: shift+1";
      "orbits: 1 (of 64 ranks)";
      "  rank 0 x64: 0,1,2,3,4,5,6,7,...";
    ]
  in
  let report = A.Symmetry.report s in
  List.iteri
    (fun i want ->
      let got = List.nth (String.split_on_char '\n' report) i in
      Alcotest.(check string) (Printf.sprintf "line %d" i) want got)
    lines

let test_golden_hierarchical_64 () =
  let s =
    A.Symmetry.infer (build ~nodes:8 ~gpus:8 "hierarchical-allreduce")
  in
  let report = A.Symmetry.report s in
  let lines = String.split_on_char '\n' report in
  Alcotest.(check string)
    "header" "symmetry: 64 ranks, fingerprint period 64" (List.nth lines 0);
  Alcotest.(check string)
    "generators" "certified generators: intra+1/8" (List.nth lines 1);
  Alcotest.(check string)
    "orbit count" "orbits: 8 (of 64 ranks)" (List.nth lines 2);
  Alcotest.(check string)
    "first orbit" "  rank 0 x8: 0,1,2,3,4,5,6,7" (List.nth lines 3);
  Alcotest.(check string)
    "last orbit" "  rank 56 x8: 56,57,58,59,60,61,62,63" (List.nth lines 10)

let test_report_json_parses () =
  let s = A.Symmetry.infer (build ~nodes:2 ~gpus:4 "hierarchical-allreduce") in
  let json = A.Symmetry.report_json s in
  (* Structural smoke checks; full JSON parsing lives in CI tooling. *)
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %s" needle)
        true
        (let n = String.length needle and m = String.length json in
         let rec go i =
           i + n <= m && (String.sub json i n = needle || go (i + 1))
         in
         go 0))
    [
      "\"ranks\":8"; "\"certified\":true"; "\"orbits\":"; "\"rep\":0";
      "\"size\":4"; "\"generators\":"; "intra+1/4";
    ]

(* ------------------------------------------------------------------ *)
(* Symmetric and broken mutants                                        *)
(* ------------------------------------------------------------------ *)

(* Clear the [depends] list at one orbit-mapped coordinate on every rank:
   a symmetry-preserving corruption, so certification still succeeds. *)
let drop_dep_along_orbit ir sym ~tb ~step =
  Testutil.rewrite_along_orbit ir sym ~tb ~step (fun st ->
      { st with Ir.depends = [] })

(* First (tb, step) of rank 0 carrying a cross-thread-block dependency. *)
let first_dep_site (ir : Ir.t) =
  let found = ref None in
  Array.iter
    (fun (t : Ir.tb) ->
      Array.iter
        (fun (st : Ir.step) ->
          if !found = None && st.Ir.depends <> [] then
            found := Some (t.Ir.tb_id, st.Ir.s))
        t.Ir.steps)
    ir.Ir.gpus.(0).Ir.tbs;
  !found

let test_quotient_with_races () =
  let ir = build "allpairs-allreduce" in
  let s0 = A.Symmetry.infer ir in
  Alcotest.(check bool) "base certified" true (A.Symmetry.certified s0);
  match first_dep_site ir with
  | None -> Alcotest.fail "allpairs has no dependency to drop"
  | Some (tb, step) ->
      let racy = drop_dep_along_orbit ir s0 ~tb ~step in
      let s = A.Symmetry.infer racy in
      Alcotest.(check bool)
        "still certified" true (A.Symmetry.certified s);
      Alcotest.(check bool)
        "races found" true
        (Races.find racy <> [])

(* ------------------------------------------------------------------ *)
(* Property: broken mutants never certify                              *)
(* ------------------------------------------------------------------ *)

let sym_algos =
  [|
    ("ring-allreduce", 1, 8); ("allpairs-allreduce", 1, 8);
    ("ring-allgather", 1, 6); ("hierarchical-allreduce", 2, 4);
    ("halving-doubling", 1, 8); ("ring-reducescatter", 1, 4);
  |]

let qcheck_broken_mutants =
  let gen =
    Q.Gen.(
      pair (int_bound (Array.length sym_algos - 1)) (pair (int_bound 40) bool))
  in
  let arb = Q.make ~print:Q.Print.(pair int (pair int bool)) gen in
  Q.Test.make ~name:"broken mutants never certify"
    ~count:25 arb (fun (ai, (site, break_rank)) ->
      let name, nodes, gpus = sym_algos.(ai) in
      let ir = build ~nodes ~gpus name in
      let s0 = A.Symmetry.infer ir in
      (* Symmetric corruption at a pseudo-random dependency site. *)
      let dep_sites =
        let acc = ref [] in
        Array.iter
          (fun (t : Ir.tb) ->
            Array.iter
              (fun (st : Ir.step) ->
                if st.Ir.depends <> [] then acc := (t.Ir.tb_id, st.Ir.s) :: !acc)
              t.Ir.steps)
          ir.Ir.gpus.(0).Ir.tbs;
        Array.of_list (List.rev !acc)
      in
      let ir =
        if Array.length dep_sites = 0 || not (A.Symmetry.certified s0) then ir
        else
          let tb, step = dep_sites.(site mod Array.length dep_sites) in
          drop_dep_along_orbit ir s0 ~tb ~step
      in
      let ir = if break_rank then F.Mutate.break_symmetry ir else ir in
      let s = A.Symmetry.infer ir in
      (* Detection: a single perturbed rank can never stay certified. *)
      if break_rank && A.Symmetry.certified s then
        Q.Test.fail_reportf "%s: certification survived a one-rank mutation"
          name;
      true)

(* ------------------------------------------------------------------ *)
(* Race findings are orbit-invariant                                   *)
(* ------------------------------------------------------------------ *)

(* On the certified, racy allpairs mutant, every member of an orbit gets
   as many race diagnostics from the full lint pass as its
   representative: the automorphism maps races to races. *)
let test_lint_races_orbit_invariant () =
  let ir = build "allpairs-allreduce" in
  let s0 = A.Symmetry.infer ir in
  let tb, step = Option.get (first_dep_site ir) in
  let racy = drop_dep_along_orbit ir s0 ~tb ~step in
  let s = A.Symmetry.infer racy in
  Alcotest.(check bool) "certified" true (A.Symmetry.certified s);
  let per_rank = Array.make (Ir.num_ranks racy) 0 in
  List.iter
    (fun d ->
      match d.Lint.d_at with
      | Some at when d.Lint.d_rule = "race" ->
          per_rank.(at.Lint.at_gpu) <- per_rank.(at.Lint.at_gpu) + 1
      | _ -> ())
    (Lint.run racy);
  let orbit = s.A.Symmetry.s_orbit in
  Alcotest.(check bool) "lint sees races" true (per_rank.(0) > 0);
  Array.iteri
    (fun m rep ->
      Alcotest.(check int)
        (Printf.sprintf "rank %d races = rep %d races" m rep)
        per_rank.(rep) per_rank.(m))
    orbit.Orbit.rep

(* ------------------------------------------------------------------ *)
(* Hbgraph stats plumbing                                              *)
(* ------------------------------------------------------------------ *)

let test_hbgraph_stats () =
  let ir = build ~gpus:4 "allpairs-allreduce" in
  let hb =
    Hbgraph.build
      ~fifo_slots:(Msccl_topology.Protocol.num_slots ir.Ir.proto)
      ir
  in
  let before = Hbgraph.stats hb in
  Alcotest.(check int) "no queries yet" 0 before.Hbgraph.st_queries;
  Alcotest.(check bool) "nodes counted" true (before.Hbgraph.st_nodes > 0);
  Alcotest.(check bool) "edges counted" true (before.Hbgraph.st_edges > 0);
  ignore (Races.find ~hb ir);
  let after = Hbgraph.stats hb in
  Alcotest.(check bool) "queries counted" true (after.Hbgraph.st_queries > 0)

(* ------------------------------------------------------------------ *)
(* Differential: inference against the string-fingerprint reference   *)
(* ------------------------------------------------------------------ *)

(* [Symmetry.infer] (int fingerprints, the chunk bijection in stamped
   arrays over the footprint table) must equal [Static_ref.infer]
   (string fingerprints, hashtable bijection over list footprints) in
   every field: period, generators with [g_perm] and [g_psi], rejections
   with their positions, orbit. *)
(* [ir] with [has_dep] of rank 0's first step flipped: only the
   fingerprint's own [has_dep] field tells that rank apart. *)
let flip_has_dep (ir : Ir.t) =
  let gpus = Array.copy ir.Ir.gpus in
  (match gpus with
  | [||] -> ()
  | _ -> (
      let g = gpus.(0) in
      match g.Ir.tbs with
      | [||] -> ()
      | tbs when Array.length tbs.(0).Ir.steps > 0 ->
          let tbs = Array.copy tbs in
          let steps = Array.copy tbs.(0).Ir.steps in
          steps.(0) <- { (steps.(0)) with Ir.has_dep = not steps.(0).Ir.has_dep };
          tbs.(0) <- { (tbs.(0)) with Ir.steps };
          gpus.(0) <- { g with Ir.tbs }
      | _ -> ()));
  { ir with Ir.gpus }

let infer_agrees label ir =
  List.iter
    (fun (what, ir) ->
      if A.Symmetry.infer ir <> Static_ref.infer ir then
        Alcotest.failf "%s%s: Symmetry.infer differs from the reference" label
          what)
    [
      ("", ir);
      (" (broken)", F.Mutate.break_symmetry ir);
      (" (has_dep flipped)", flip_has_dep ir);
    ]

let test_reference_registry () =
  List.iter
    (fun (label, ir) -> infer_agrees label (Lazy.force ir))
    (Testutil.static_digest_subjects ())

(* Random IRs: multi-GPU with random footprints, half in place, and
   fuzz-generated compiles, each with its broken-symmetry mutant. *)
let qcheck_reference_random =
  Testutil.qtest ~count:300 "300 random IRs equal the reference"
    Q.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let ir =
        if seed mod 2 = 0 then
          Testutil.gen_ir ~multi:true ~footprints:true (F.Rng.create seed)
        else F.Case.compile (F.Fuzz.generate ~seed:11 ~index:(seed mod 997))
      in
      infer_agrees (string_of_int seed) ir;
      true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "symmetry"
    [
      ( "inference",
        [
          Testutil.tc "registry inference" test_registry_inference;
          Testutil.tc "asymmetric witness" test_asymmetric_has_witness;
          Testutil.tc "verify_candidate direct" test_verify_candidate_direct;
        ] );
      ( "reports",
        [
          Testutil.tc "golden ring@64" test_golden_ring_64;
          Testutil.tc "golden hierarchical@64" test_golden_hierarchical_64;
          Testutil.tc "json report" test_report_json_parses;
        ] );
      ( "quotient",
        [
          Testutil.tc "with races" test_quotient_with_races;
          QCheck_alcotest.to_alcotest qcheck_broken_mutants;
        ] );
      ( "reference",
        [
          Testutil.tc "registry and fuzz corpus" test_reference_registry;
          qcheck_reference_random;
        ] );
      ( "integration",
        [
          Testutil.tc "lint races orbit-invariant"
            test_lint_races_orbit_invariant;
          Testutil.tc "hbgraph stats" test_hbgraph_stats;
        ] );
    ]

(* Symmetry-aware compilation and cohort simulation.

   The load-bearing properties:
   - replicated compilation produces the byte-identical IR (same XML
     print) as the full pipeline, across the hinted registry algorithms
     and fuzzed symmetric ring programs;
   - a broken hint never changes the output: it falls back silently to
     the full pipeline;
   - cohort simulation reports exactly the scalar simulator's completion
     time, message count and wire bytes — including when a fault plan
     forces the cohorts to split to the exact scalar path. *)

module T = Msccl_topology
module A = Msccl_algorithms
module An = Msccl_analysis
module H = Msccl_harness
module Q = QCheck
open Msccl_core

let xml = Xml.to_string

(* ------------------------------------------------------------------ *)
(* Registry differential: replicated = full, byte for byte             *)
(* ------------------------------------------------------------------ *)

let sym_specs () =
  List.filter_map
    (fun s ->
      match s.H.Registry.sym with
      | Some f -> Some (s.H.Registry.name, f, s.H.Registry.build)
      | None -> None)
    H.Registry.all

let test_registry_differential () =
  let variants =
    [
      H.Registry.default_params;
      { H.Registry.default_params with channels = 2; chunk_factor = 2 };
      { H.Registry.default_params with gpus_per_node = 12; channels = 3 };
      { H.Registry.default_params with instances = 2 };
    ]
  in
  let specs = sym_specs () in
  Alcotest.(check bool) "some algorithms declare hints" true (specs <> []);
  List.iter
    (fun (name, case_of, _build) ->
      List.iter
        (fun p ->
          let c = case_of p in
          let report, outcome =
            An.Sym_compile.compile ~name ~proto:p.H.Registry.proto
              ~instances:p.H.Registry.instances ~differential:true
              ~hint:c.H.Registry.sym_hint c.H.Registry.sym_coll
              c.H.Registry.sym_program
          in
          (match outcome with
          | An.Sym_compile.Replicated _ -> ()
          | An.Sym_compile.Fell_back m ->
              Alcotest.failf "%s: replicated path fell back: %s" name m);
          let full =
            Compile.compile ~name ~proto:p.H.Registry.proto
              ~instances:p.H.Registry.instances c.H.Registry.sym_coll
              c.H.Registry.sym_program
          in
          Alcotest.(check bool)
            (name ^ ": replicated XML = full XML")
            true
            (String.equal (xml report.Compile.ir) (xml full.Compile.ir)))
        variants)
    specs

(* ------------------------------------------------------------------ *)
(* Certified wrapper engages on the registry cases                     *)
(* ------------------------------------------------------------------ *)

let test_certified_replication () =
  List.iter
    (fun (name, case_of, _build) ->
      let c = case_of H.Registry.default_params in
      let _report, outcome =
        An.Sym_compile.compile ~name ~hint:c.H.Registry.sym_hint
          c.H.Registry.sym_coll c.H.Registry.sym_program
      in
      match outcome with
      | An.Sym_compile.Replicated s ->
          Alcotest.(check bool)
            (name ^ ": certificate is certified")
            true
            (An.Symmetry.certified s)
      | An.Sym_compile.Fell_back m ->
          Alcotest.failf "%s: certified replication fell back: %s" name m)
    (sym_specs ())

(* ------------------------------------------------------------------ *)
(* Fuzzed symmetric rings: random shift-s ring AllReduce               *)
(* ------------------------------------------------------------------ *)

(* A ring visiting the ranks in arithmetic order 0, s, 2s, ... (mod p)
   with gcd(s, p) = 1: slot r runs slot 0's chains shifted by r*s ranks
   with its chunk index shifted by r, so the program is symmetric under
   pi(r) = r + s with input delta 1 — the same shape as the registry's
   ring hints but over a fuzzed generator of Z/p. *)
let shifted_ring_case ~p ~s ~channels ~rot =
  let ranks = List.init p (fun i -> i * s mod p) in
  let ch ~hop = Some ((hop + rot) mod channels) in
  let body ?only prog =
    A.Patterns.ring_reduce_scatter prog ~ranks ~offset:0 ~count:1 ~ch ?only
      ();
    A.Patterns.ring_all_gather prog ~ranks ~offset:0 ~count:1 ~ch
      ~hop_base:(p - 1) ?only ()
  in
  let coll =
    Collective.make Collective.Allreduce ~num_ranks:p ~chunk_factor:p
      ~inplace:true ()
  in
  let hint =
    Sym_hint.ring_shift ~shift:s ~d_input:1 (body ~only:(Int.equal 0))
  in
  (coll, (fun prog -> body prog), hint)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let gen_sym_ring =
  Q.Gen.(
    int_range 4 12 >>= fun p ->
    let coprimes =
      List.filter (fun s -> gcd s p = 1) (List.init (p - 1) (fun i -> i + 1))
    in
    oneofl coprimes >>= fun s ->
    int_range 1 3 >>= fun channels ->
    int_range 0 (channels - 1) >>= fun rot -> return (p, s, channels, rot))

let arb_sym_ring =
  Q.make
    ~print:(fun (p, s, ch, rot) ->
      Printf.sprintf "p=%d shift=%d channels=%d rot=%d" p s ch rot)
    gen_sym_ring

(* Each case also runs with the shift declared as [s - p], the same
   rotation outside [0, p): the fast path must reduce it, not fall back. *)
let qcheck_fuzzed_differential =
  Q.Test.make ~count:60
    ~name:"replicated = full on fuzzed shift-s rings (Ir.equal + XML)"
    arb_sym_ring
    (fun (p, s, channels, rot) ->
      let coll, body, hint = shifted_ring_case ~p ~s ~channels ~rot in
      let full = Compile.compile ~name:"fuzz-sym-ring" coll body in
      List.iter
        (fun hint ->
          let shift = hint.Sym_hint.shift in
          let report, outcome =
            An.Sym_compile.compile ~name:"fuzz-sym-ring" ~differential:true
              ~hint coll body
          in
          (match outcome with
          | An.Sym_compile.Replicated _ -> ()
          | An.Sym_compile.Fell_back m ->
              Q.Test.fail_reportf "p=%d shift=%d: fell back: %s" p shift m);
          if not (String.equal (xml report.Compile.ir) (xml full.Compile.ir))
          then Q.Test.fail_reportf "p=%d shift=%d: XML prints differ" p shift)
        [ hint; { hint with Sym_hint.shift = s - p } ];
      true)

(* ------------------------------------------------------------------ *)
(* Broken hints fall back silently                                     *)
(* ------------------------------------------------------------------ *)

let test_broken_hint_fallback () =
  let p = 8 in
  let coll =
    Collective.make Collective.Allreduce ~num_ranks:p ~chunk_factor:p
      ~inplace:true ()
  in
  let body = A.Ring_allreduce.program ~num_ranks:p ~channels:1 in
  let full = (Compile.compile ~name:"broken" coll body).Compile.ir in
  let check what hint =
    let report, outcome =
      An.Sym_compile.compile ~name:"broken" ~hint coll body
    in
    (match outcome with
    | An.Sym_compile.Fell_back _ -> ()
    | An.Sym_compile.Replicated _ ->
        Alcotest.failf "%s: broken hint was accepted" what);
    Alcotest.(check bool)
      (what ^ ": fallback output = full pipeline")
      true
      (String.equal (xml report.Compile.ir) (xml full))
  in
  (* shift not coprime with the rank count: rejected before tracing *)
  check "non-coprime shift"
    (Sym_hint.ring_shift ~shift:2 ~d_input:1 (fun prog ->
         let ranks = List.init p Fun.id in
         let ch ~hop:_ = Some 0 in
         A.Patterns.ring_reduce_scatter prog ~ranks ~offset:0 ~count:1 ~ch
           ~only:(Int.equal 0) ()));
  (* representative slice that violates the DSL rules: falls back on the
     trace error *)
  check "rep slice trace error"
    (Sym_hint.ring_shift ~shift:1 ~d_input:1 (fun prog ->
         ignore (Program.chunk prog ~rank:0 Buffer_id.Input ~index:(2 * p) ())))

(* What Replicate.run raises on slices it cannot replicate: a fault of
   the slice itself raises as the full scheduler would, while an empty
   slice or a placement failure of the quotient is a [Fallback]. *)
let test_replicate_errors () =
  let p = 4 in
  let coll =
    Collective.make Collective.Allreduce ~num_ranks:p ~chunk_factor:p
      ~inplace:true ()
  in
  let outcome slice =
    let hint =
      Sym_hint.ring_shift ~shift:1 ~d_input:1 ~d_scratch:1 ~scratch_chunks:p
        slice
    in
    match Replicate.run ~name:"errors" ~hint coll with
    | _ -> "replicated"
    | exception Replicate.Fallback m -> "Fallback: " ^ m
    | exception Schedule.Scheduling_error m -> "Scheduling_error: " ^ m
  in
  (* Rank 1 forwards what it received on channel 0, rank 2 forwards
     onto channel 1: fusion makes one communication chain of the three
     hops, with two directives. *)
  let hop ?ch c rank = Program.copy c ~rank Buffer_id.Scratch ~index:0 ?ch () in
  Alcotest.(check string)
    "conflicting directives"
    "Scheduling_error: conflicting channel directives 0 (instr 0) and 1 \
     (instr 2) on one fused/communication chain"
    (outcome (fun prog ->
         let c = Program.chunk prog ~rank:0 Buffer_id.Input ~index:0 () in
         ignore (hop ~ch:1 (hop (hop ~ch:0 c 1) 2) 3)));
  Alcotest.(check string)
    "empty slice" "Fallback: representative slice is empty"
    (outcome ignore);
  Alcotest.(check string)
    "negative channel" "Fallback: quotient schedule: channel -1 out of range"
    (outcome (fun prog ->
         let c = Program.chunk prog ~rank:0 Buffer_id.Input ~index:0 () in
         ignore (hop ~ch:(-1) c 1)))

(* ------------------------------------------------------------------ *)
(* Cohort simulation: quotient = scalar, exactly                       *)
(* ------------------------------------------------------------------ *)

let close ?(rel = 1e-9) a b = Float.abs (a -. b) <= rel *. Float.max 1. a

let check_cohort_identity ?faults name topo (r : Replicate.result) =
  let p = r.Replicate.r_num_ranks in
  let chunk_bytes = 1048576. /. float_of_int p in
  let scalar =
    Simulator.run ~topo ~chunk_bytes ~check_occupancy:false ?faults
      (Lazy.force r.Replicate.r_ir)
  in
  let q, co =
    Simulator.run_sym ~topo ~chunk_bytes ~check_occupancy:false ?faults r
  in
  if not (close ~rel:1e-12 q.Simulator.time scalar.Simulator.time) then
    Alcotest.failf "%s: cohort time %.12g <> scalar %.12g" name
      q.Simulator.time scalar.Simulator.time;
  Alcotest.(check int)
    (name ^ ": messages") scalar.Simulator.messages q.Simulator.messages;
  if not (close ~rel:1e-6 q.Simulator.wire_bytes scalar.Simulator.wire_bytes)
  then
    Alcotest.failf "%s: cohort wire bytes %g <> scalar %g" name
      q.Simulator.wire_bytes scalar.Simulator.wire_bytes;
  co

let ring_rep p =
  let coll =
    Collective.make Collective.Allreduce ~num_ranks:p ~chunk_factor:p
      ~inplace:true ()
  in
  Replicate.run ~name:"ring"
    ~hint:(A.Ring_allreduce.hint ~num_ranks:p ~channels:1)
    coll

let test_cohort_identity () =
  (* single node: every rank is equivalent, stride 1 *)
  let topo8 = T.Presets.hierarchical ~nodes:1 ~gpus_per_node:8 () in
  let co = check_cohort_identity "ring@8" topo8 (ring_rep 8) in
  Alcotest.(check (option string)) "ring@8 batched" None co.Simulator.co_fallback;
  Alcotest.(check bool) "ring@8 width > 1" true (co.Simulator.co_width > 1);
  (* two nodes, node-uniform NICs: stride = gpus per node *)
  let topo16 = T.Presets.ndv4 ~nodes:2 in
  let co = check_cohort_identity "ring@16" topo16 (ring_rep 16) in
  Alcotest.(check (option string))
    "ring@16 batched" None co.Simulator.co_fallback;
  let ap =
    let p = 16 in
    let coll =
      Collective.make Collective.Allreduce ~num_ranks:p ~chunk_factor:p
        ~inplace:true ()
    in
    Replicate.run ~name:"allpairs"
      ~hint:(A.Allpairs_allreduce.hint ~num_ranks:p)
      coll
  in
  let co = check_cohort_identity "allpairs@16" topo16 ap in
  Alcotest.(check (option string))
    "allpairs@16 batched" None co.Simulator.co_fallback

let test_cohort_dgx1_identity () =
  (* dgx1's NVLink graph is the least uniform preset; whether or not a
     stride certifies on it, the cohort result must equal the scalar
     one. *)
  ignore (check_cohort_identity "ring@dgx1" (T.Presets.dgx1 ()) (ring_rep 8))

let test_cohort_timeline_falls_back () =
  (* Timeline spans are per physical rank, so requesting one must force
     the exact scalar path. *)
  let topo = T.Presets.ndv4 ~nodes:2 in
  let timeline = Timeline.create () in
  let r = ring_rep 16 in
  let _q, co =
    Simulator.run_sym ~topo ~chunk_bytes:65536. ~check_occupancy:false
      ~timeline r
  in
  Alcotest.(check bool)
    "timeline falls back" true
    (co.Simulator.co_fallback <> None);
  Alcotest.(check int) "timeline scalar width" 1 co.Simulator.co_width

let test_cohort_fault_plan_splits () =
  (* A fault plan breaks rank interchangeability mid-flight; the contract
     is a conservative wholesale split: every cohort runs scalar, and the
     result is identical to the plain faulted simulation. *)
  let topo = T.Presets.ndv4 ~nodes:2 in
  let faults = Msccl_faults.Plan.random ~seed:7 ~severity:0.5 ~topo in
  let co = check_cohort_identity ~faults "ring@16+faults" topo (ring_rep 16) in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  (match co.Simulator.co_fallback with
  | Some reason ->
      Alcotest.(check bool)
        "reason mentions the fault plan" true (contains reason "fault")
  | None -> Alcotest.fail "fault plan did not split the cohorts");
  Alcotest.(check int) "faulted width" 1 co.Simulator.co_width

let () =
  Alcotest.run "sym_compile"
    [
      ( "differential",
        [
          Testutil.tc "registry: replicated = full" test_registry_differential;
          Testutil.tc "registry: certification engages"
            test_certified_replication;
          QCheck_alcotest.to_alcotest qcheck_fuzzed_differential;
        ] );
      ( "fallback",
        [
          Testutil.tc "broken hints fall back" test_broken_hint_fallback;
          Testutil.tc "replicate error texts" test_replicate_errors;
        ] );
      ( "cohort",
        [
          Testutil.tc "cohort = scalar" test_cohort_identity;
          Testutil.tc "dgx1 identity" test_cohort_dgx1_identity;
          Testutil.tc "timeline falls back" test_cohort_timeline_falls_back;
          Testutil.tc "fault plan splits cohorts" test_cohort_fault_plan_splits;
        ] );
    ]

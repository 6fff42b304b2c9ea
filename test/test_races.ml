(* Static analysis tests: the happens-before graph, the race detector and
   the lint framework — hand-built racy/clean IRs, structural lint rules,
   the registry-wide sweep, and a mutation test that strips [depends]
   edges from compiled ring-allreduce and checks lint notices. *)

open Msccl_core
module T = Msccl_topology
module H = Msccl_harness

(* ------------------------------------------------------------------ *)
(* Hand-built IR helpers                                               *)
(* ------------------------------------------------------------------ *)

let loc ?(rank = 0) buf index count = Loc.make ~rank ~buf ~index ~count

let step ?(depends = []) ?(has_dep = false) s op src dst count =
  { Ir.s; op; src; dst; count; depends; has_dep }

let tb ?(send = -1) ?(recv = -1) ?(chan = 0) tb_id steps =
  { Ir.tb_id; send; recv; chan; steps = Array.of_list steps }

let gpu ?(input = 2) ?(output = 2) ?(scratch = 0) gpu_id tbs =
  {
    Ir.gpu_id;
    input_chunks = input;
    output_chunks = output;
    scratch_chunks = scratch;
    tbs = Array.of_list tbs;
  }

let mk_ir ?(ranks = 1) gpus =
  {
    Ir.name = "hand-built";
    collective =
      Collective.make Collective.Allreduce ~num_ranks:ranks ~chunk_factor:2 ();
    proto = T.Protocol.Simple;
    gpus = Array.of_list gpus;
  }

let copy src dst = step 0 Instr.Copy (Some src) (Some dst) 1

(* Two thread blocks both writing Output[0], unordered. *)
let waw_ir () =
  mk_ir
    [
      gpu 0
        [
          tb 0 [ copy (loc Buffer_id.Input 0 1) (loc Buffer_id.Output 0 1) ];
          tb 1 [ copy (loc Buffer_id.Input 1 1) (loc Buffer_id.Output 0 1) ];
        ];
    ]

(* Same pair, ordered by a semaphore: tb1 waits on tb0's step. *)
let ordered_ir () =
  mk_ir
    [
      gpu 0
        [
          tb 0
            [
              step ~has_dep:true 0 Instr.Copy
                (Some (loc Buffer_id.Input 0 1))
                (Some (loc Buffer_id.Output 0 1))
                1;
            ];
          tb 1
            [
              step ~depends:[ (0, 0) ] 0 Instr.Copy
                (Some (loc Buffer_id.Input 1 1))
                (Some (loc Buffer_id.Output 0 1))
                1;
            ];
        ];
    ]

let race_errors ir =
  List.filter
    (fun d -> d.Lint.d_rule = "race" && d.Lint.d_severity = Lint.Error)
    (Lint.run ir)

(* ------------------------------------------------------------------ *)
(* Race detector                                                       *)
(* ------------------------------------------------------------------ *)

let test_waw_detected () =
  match Races.find (waw_ir ()) with
  | [ r ] ->
      Alcotest.(check int) "gpu" 0 r.Races.r_gpu;
      Alcotest.(check int) "tb1" 0 r.Races.r_tb1;
      Alcotest.(check int) "step1" 0 r.Races.r_step1;
      Alcotest.(check int) "tb2" 1 r.Races.r_tb2;
      Alcotest.(check int) "step2" 0 r.Races.r_step2;
      Alcotest.(check string) "hazard" "WAW" (Races.hazard_name r.Races.r_hazard);
      Alcotest.(check bool) "buffer" true
        (Buffer_id.equal r.Races.r_buf Buffer_id.Output);
      Alcotest.(check int) "lo" 0 r.Races.r_lo;
      Alcotest.(check int) "hi" 0 r.Races.r_hi
  | rs -> Alcotest.failf "expected exactly one race, got %d" (List.length rs)

let test_raw_detected () =
  (* tb0 writes Output[0]; tb1 reads it (copies it onward). *)
  let ir =
    mk_ir
      [
        gpu 0
          [
            tb 0 [ copy (loc Buffer_id.Input 0 1) (loc Buffer_id.Output 0 1) ];
            tb 1 [ copy (loc Buffer_id.Output 0 1) (loc Buffer_id.Output 1 1) ];
          ];
      ]
  in
  match Races.find ir with
  | [ r ] ->
      Alcotest.(check string) "hazard" "RAW" (Races.hazard_name r.Races.r_hazard)
  | rs -> Alcotest.failf "expected exactly one race, got %d" (List.length rs)

let test_war_detected () =
  (* tb0 reads Output[0]; tb1 overwrites it. *)
  let ir =
    mk_ir
      [
        gpu 0
          [
            tb 0 [ copy (loc Buffer_id.Output 0 1) (loc Buffer_id.Output 1 1) ];
            tb 1 [ copy (loc Buffer_id.Input 0 1) (loc Buffer_id.Output 0 1) ];
          ];
      ]
  in
  match Races.find ir with
  | [ r ] ->
      Alcotest.(check string) "hazard" "WAR" (Races.hazard_name r.Races.r_hazard)
  | rs -> Alcotest.failf "expected exactly one race, got %d" (List.length rs)

let test_depends_orders () =
  Alcotest.(check int) "no race once ordered" 0
    (List.length (Races.find (ordered_ir ())));
  Alcotest.(check bool) "lint clean" false
    (Lint.has_errors (Lint.run (ordered_ir ())))

let test_disjoint_intervals_no_race () =
  let ir =
    mk_ir
      [
        gpu 0
          [
            tb 0 [ copy (loc Buffer_id.Input 0 1) (loc Buffer_id.Output 0 1) ];
            tb 1 [ copy (loc Buffer_id.Input 1 1) (loc Buffer_id.Output 1 1) ];
          ];
      ]
  in
  Alcotest.(check int) "no race" 0 (List.length (Races.find ir))

let test_reads_do_not_race () =
  let ir =
    mk_ir
      [
        gpu 0
          [
            tb 0 [ copy (loc Buffer_id.Input 0 1) (loc Buffer_id.Output 0 1) ];
            tb 1 [ copy (loc Buffer_id.Input 0 1) (loc Buffer_id.Output 1 1) ];
          ];
      ]
  in
  Alcotest.(check int) "two readers are fine" 0 (List.length (Races.find ir))

let test_lint_reports_race () =
  match race_errors (waw_ir ()) with
  | d :: _ -> (
      match d.Lint.d_at with
      | Some at ->
          Alcotest.(check int) "located at gpu 0" 0 at.Lint.at_gpu;
          Alcotest.(check int) "located at tb 0" 0 at.Lint.at_tb
      | None -> Alcotest.fail "race diagnostic has no location")
  | [] -> Alcotest.fail "lint missed the WAW race"

(* ------------------------------------------------------------------ *)
(* Happens-before graph                                                *)
(* ------------------------------------------------------------------ *)

let test_hbgraph_program_order () =
  let ir =
    mk_ir
      [
        gpu 0
          [
            tb 0
              [
                copy (loc Buffer_id.Input 0 1) (loc Buffer_id.Output 0 1);
                step 1 Instr.Copy
                  (Some (loc Buffer_id.Input 1 1))
                  (Some (loc Buffer_id.Output 1 1))
                  1;
              ];
          ];
      ]
  in
  let hb = Hbgraph.build ir in
  let a = Hbgraph.node hb ~gpu:0 ~tb:0 ~step:0 in
  let b = Hbgraph.node hb ~gpu:0 ~tb:0 ~step:1 in
  Alcotest.(check bool) "step0 -> step1" true (Hbgraph.reaches hb a b);
  Alcotest.(check bool) "not backwards" false (Hbgraph.reaches hb b a);
  Alcotest.(check bool) "irreflexive" false (Hbgraph.reaches hb a a);
  Alcotest.(check int) "longest path" 2 (Hbgraph.longest_path hb);
  Alcotest.(check int) "acyclic" 0 (Hbgraph.cycle_size hb)

(* Two GPUs that each receive before sending: a send/recv cycle. *)
let cyclic_ir () =
  let side me peer =
    gpu me
      [
        tb ~send:peer ~recv:peer 0
          [
            step 0 Instr.Recv None
              (Some (loc ~rank:me Buffer_id.Input 0 1))
              1;
            step 1 Instr.Send
              (Some (loc ~rank:me Buffer_id.Input 0 1))
              None 1;
          ];
      ]
  in
  mk_ir ~ranks:2 [ side 0 1; side 1 0 ]

let test_cycle_detected () =
  let hb = Hbgraph.build (cyclic_ir ()) in
  Alcotest.(check bool) "cycle found" true (Hbgraph.cycle_size hb > 0);
  Alcotest.(check bool) "no topo order" true (Hbgraph.topo_order hb = None);
  (match Verify.check_deadlock_free (cyclic_ir ()) with
  | Ok () -> Alcotest.fail "deadlock checker accepted a recv-before-send cycle"
  | Error _ -> ());
  let deadlocks =
    List.filter (fun d -> d.Lint.d_rule = "fifo-deadlock") (Lint.run (cyclic_ir ()))
  in
  Alcotest.(check bool) "lint reports the deadlock" true (deadlocks <> [])

let test_conn_mismatch () =
  (* gpu 0 sends once; gpu 1 never receives. *)
  let ir =
    mk_ir ~ranks:2
      [
        gpu 0
          [
            tb ~send:1 0
              [ step 0 Instr.Send (Some (loc Buffer_id.Input 0 1)) None 1 ];
          ];
        gpu 1 [ tb 0 [ copy (loc ~rank:1 Buffer_id.Input 0 1) (loc ~rank:1 Buffer_id.Output 0 1) ] ];
      ]
  in
  let hb = Hbgraph.build ir in
  (match Hbgraph.mismatched_connections hb with
  | [ (0, 1, 0, 1, 0) ] -> ()
  | other ->
      Alcotest.failf "expected one 1-send/0-recv mismatch, got %d"
        (List.length other));
  let ds = List.filter (fun d -> d.Lint.d_rule = "conn-mismatch") (Lint.run ir) in
  Alcotest.(check bool) "lint reports it as an error" true
    (ds <> [] && List.for_all (fun d -> d.Lint.d_severity = Lint.Error) ds)

let test_critical_path_matches_analysis () =
  let spec = Option.get (H.Registry.find "ring-allreduce") in
  let ir =
    spec.H.Registry.build
      { H.Registry.default_params with gpus_per_node = 4; verify = false }
  in
  let hb = Hbgraph.build ir in
  (* Independent longest-path computation by memoized DFS over succs. *)
  let n = Hbgraph.num_nodes hb in
  let memo = Array.make n 0 in
  let rec depth v =
    if memo.(v) > 0 then memo.(v)
    else begin
      let d =
        1 + List.fold_left (fun m w -> max m (depth w)) 0 (Hbgraph.succs hb v)
      in
      memo.(v) <- d;
      d
    end
  in
  let brute = ref 0 in
  for v = 0 to n - 1 do
    brute := max !brute (depth v)
  done;
  Alcotest.(check int) "longest_path agrees with DFS" !brute
    (Hbgraph.longest_path hb);
  Alcotest.(check int) "Analysis.critical_path is hbgraph's" !brute
    (Analysis.analyze ir).Analysis.critical_path

(* ------------------------------------------------------------------ *)
(* Structural lint rules                                               *)
(* ------------------------------------------------------------------ *)

let rules_fired ir = List.map (fun d -> d.Lint.d_rule) (Lint.run ir)

let test_dangling_depends () =
  let ir =
    mk_ir
      [
        gpu 0
          [
            tb 0
              [
                step ~depends:[ (7, 0) ] 0 Instr.Copy
                  (Some (loc Buffer_id.Input 0 1))
                  (Some (loc Buffer_id.Output 0 1))
                  1;
              ];
          ];
      ]
  in
  Alcotest.(check bool) "dangling-depends fires" true
    (List.mem "dangling-depends" (rules_fired ir))

let test_depends_without_has_dep () =
  (* The target step exists but is not marked has_dep: the runtime would
     never post the semaphore the waiter blocks on. *)
  let ir =
    mk_ir
      [
        gpu 0
          [
            tb 0 [ copy (loc Buffer_id.Input 0 1) (loc Buffer_id.Output 0 1) ];
            tb 1
              [
                step ~depends:[ (0, 0) ] 0 Instr.Copy
                  (Some (loc Buffer_id.Input 1 1))
                  (Some (loc Buffer_id.Output 1 1))
                  1;
              ];
          ];
      ]
  in
  Alcotest.(check bool) "dangling-depends fires" true
    (List.mem "dangling-depends" (rules_fired ir))

let test_oob_access () =
  let ir =
    mk_ir
      [ gpu 0 [ tb 0 [ copy (loc Buffer_id.Input 0 1) (loc Buffer_id.Output 5 1) ] ] ]
  in
  Alcotest.(check bool) "oob-access fires" true
    (List.mem "oob-access" (rules_fired ir))

let test_scratch_rules () =
  let ir =
    mk_ir
      [
        gpu 0 ~scratch:2
          [ tb 0 [ copy (loc Buffer_id.Input 0 1) (loc Buffer_id.Scratch 0 1) ] ];
      ]
  in
  let ds = Lint.run ir in
  Alcotest.(check bool) "dead-scratch warning" true
    (List.exists
       (fun d -> d.Lint.d_rule = "dead-scratch" && d.Lint.d_severity = Lint.Warning)
       ds);
  Alcotest.(check bool) "unused-scratch info" true
    (List.exists
       (fun d -> d.Lint.d_rule = "unused-scratch" && d.Lint.d_severity = Lint.Info)
       ds);
  Alcotest.(check bool) "warnings are not errors" false (Lint.has_errors ds);
  (* A hostile declared size: the scratch rules must cost memory in the
     accesses, not in the declared chunks. *)
  let huge =
    mk_ir
      [
        gpu 0 ~scratch:(1 lsl 32)
          [ tb 0 [ copy (loc Buffer_id.Input 0 1) (loc Buffer_id.Output 0 1) ] ];
      ]
  in
  Alcotest.(check bool) "unused-scratch on a 2^32-chunk buffer" true
    (List.exists
       (fun d ->
         d.Lint.d_rule = "unused-scratch"
         && String.starts_with ~prefix:"gpu 0 declares 4294967296"
              d.Lint.d_message)
       (Lint.run huge));
  (* Such a file never reaches the passes: this mangle of ring@16 sets
     s_chunks="4294967296" on gpu 10, over Ingest's chunk budget. *)
  let doc, _ =
    Msccl_interop.Mangle.mangle ~seed:312 ~index:102
      (Xml.to_string
         (Msccl_algorithms.Ring_allreduce.ir ~verify:false ~num_ranks:16 ()))
  in
  match Msccl_interop.Ingest.of_string doc with
  | Ok _ -> Alcotest.fail "ingest accepted the s_chunks mangle"
  | Error ds ->
      Alcotest.(check bool) "rejected on the s_chunks attribute" true
        (List.exists
           (fun (d : Msccl_interop.Ingest.diag) ->
             d.d_rule = "range"
             && String.starts_with ~prefix:"<gpu> attribute s_chunks: 4294967296"
                  d.d_message)
           ds)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_json_shape () =
  let json = Lint.to_json (Lint.run (waw_ir ())) in
  Alcotest.(check bool) "mentions the rule" true
    (contains json {|"rule":"race"|});
  Alcotest.(check bool) "mentions the severity" true
    (contains json {|"severity":"error"|})

(* ------------------------------------------------------------------ *)
(* Compile integration, sweep, mutation                                *)
(* ------------------------------------------------------------------ *)

let test_lint_on_compile () =
  let coll =
    Collective.make Collective.Allreduce ~num_ranks:2 ~inplace:true ()
  in
  let report =
    Compile.compile ~lint:true coll (fun p ->
        let a = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let s = Program.copy a ~rank:1 Buffer_id.Scratch ~index:0 () in
        let own = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        let acc = Program.reduce own s () in
        ignore (Program.copy acc ~rank:0 Buffer_id.Input ~index:0 ()))
  in
  Alcotest.(check bool) "no errors in report" false
    (Lint.has_errors report.Compile.lint)

let test_registry_sweep_clean () =
  let entries = H.Lint_sweep.run () in
  (match H.Lint_sweep.failing entries with
  | [] -> ()
  | e :: _ ->
      Alcotest.failf "lint errors in %s on %s" e.H.Lint_sweep.e_algo
        e.H.Lint_sweep.e_config.H.Lint_sweep.c_label);
  List.iter
    (fun (s : H.Registry.spec) ->
      Alcotest.(check bool)
        (s.H.Registry.name ^ " linted on some config")
        true
        (H.Lint_sweep.built_somewhere entries s.H.Registry.name))
    H.Registry.all

(* Strip each [depends] edge of compiled ring-allreduce in turn. Every
   mutant whose edge was load-bearing (the pair is no longer ordered)
   must either be flagged by the race detector or fail verification; at
   least one mutant must produce an error-severity race diagnostic. *)
let test_mutation_catches_stripped_depends () =
  let spec = Option.get (H.Registry.find "ring-allreduce") in
  (* Two channels so each GPU splits its ring across thread blocks and the
     scheduler has to emit cross-thread-block semaphores. *)
  let ir =
    spec.H.Registry.build
      {
        H.Registry.default_params with
        gpus_per_node = 8;
        channels = 2;
        verify = false;
      }
  in
  let edges = ref [] in
  Array.iter
    (fun (g : Ir.gpu) ->
      Array.iter
        (fun (t : Ir.tb) ->
          Array.iter
            (fun (st : Ir.step) ->
              List.iter
                (fun dep ->
                  edges := (g.Ir.gpu_id, t.Ir.tb_id, st.Ir.s, dep) :: !edges)
                st.Ir.depends)
            t.Ir.steps)
        g.Ir.tbs)
    ir.Ir.gpus;
  if !edges = [] then Alcotest.fail "ring-allreduce has no depends edges";
  let strip (mg, mt, ms, dep) =
    {
      ir with
      Ir.gpus =
        Array.map
          (fun (g : Ir.gpu) ->
            if g.Ir.gpu_id <> mg then g
            else
              {
                g with
                Ir.tbs =
                  Array.map
                    (fun (t : Ir.tb) ->
                      if t.Ir.tb_id <> mt then t
                      else
                        {
                          t with
                          Ir.steps =
                            Array.map
                              (fun (st : Ir.step) ->
                                if st.Ir.s <> ms then st
                                else
                                  {
                                    st with
                                    Ir.depends =
                                      List.filter (( <> ) dep) st.Ir.depends;
                                  })
                              t.Ir.steps;
                        })
                    g.Ir.tbs;
              })
          ir.Ir.gpus;
    }
  in
  let caught = ref 0 in
  List.iter
    (fun ((mg, mt, ms, (dtb, dstep)) as edge) ->
      let mutant = strip edge in
      let hb =
        Hbgraph.build
          ~fifo_slots:(T.Protocol.num_slots mutant.Ir.proto)
          mutant
      in
      let still_ordered =
        Hbgraph.reaches hb
          (Hbgraph.node hb ~gpu:mg ~tb:dtb ~step:dstep)
          (Hbgraph.node hb ~gpu:mg ~tb:mt ~step:ms)
      in
      if not still_ordered then begin
        let races = race_errors mutant in
        if races <> [] then incr caught
        else
          match Verify.check mutant with
          | Error _ -> ()
          | Ok () ->
              Alcotest.failf
                "stripping depends (%d,%d) from gpu %d tb %d step %d went \
                 unnoticed"
                dtb dstep mg mt ms
      end)
    !edges;
  Alcotest.(check bool) "at least one mutant yields a race error" true
    (!caught > 0)

let () =
  Alcotest.run "races"
    [
      ( "races",
        [
          Testutil.tc "waw detected" test_waw_detected;
          Testutil.tc "raw detected" test_raw_detected;
          Testutil.tc "war detected" test_war_detected;
          Testutil.tc "depends orders the pair" test_depends_orders;
          Testutil.tc "disjoint intervals" test_disjoint_intervals_no_race;
          Testutil.tc "concurrent reads" test_reads_do_not_race;
          Testutil.tc "lint reports races" test_lint_reports_race;
        ] );
      ( "hbgraph",
        [
          Testutil.tc "program order" test_hbgraph_program_order;
          Testutil.tc "cycle detection" test_cycle_detected;
          Testutil.tc "connection mismatch" test_conn_mismatch;
          Testutil.tc "critical path parity" test_critical_path_matches_analysis;
        ] );
      ( "lint",
        [
          Testutil.tc "dangling depends" test_dangling_depends;
          Testutil.tc "depends without has_dep" test_depends_without_has_dep;
          Testutil.tc "out-of-bounds access" test_oob_access;
          Testutil.tc "scratch rules" test_scratch_rules;
          Testutil.tc "json output" test_json_shape;
        ] );
      ( "integration",
        [
          Testutil.tc "lint on compile" test_lint_on_compile;
          Testutil.tc "registry sweep clean" test_registry_sweep_clean;
          Testutil.tc "mutation: stripped depends caught"
            test_mutation_catches_stripped_depends;
        ] );
    ]

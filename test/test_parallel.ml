(* Domain-pool and parallel-determinism tests.

   Speedup is a bench concern (`bench scale` reports it); tests assert
   only what must hold on any host, including single-core CI runners:
   results are byte-identical for every job count, exceptions propagate,
   and the engine processes no stale events. *)

module P = Msccl_parallel.Pool
module H = Msccl_harness
module F = Msccl_fuzz
module E = Msccl_sim.Engine
module T = Msccl_topology
module Q = QCheck
open Msccl_core

(* ------------------------------------------------------------------ *)
(* Pool basics                                                         *)
(* ------------------------------------------------------------------ *)

let test_map_ordering () =
  let items = List.init 100 Fun.id in
  let f x = (x * 7) mod 13 in
  let seq = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        seq
        (P.map ~jobs f items))
    [ 1; 2; 4; 8 ]

let test_map_empty_and_array () =
  Alcotest.(check (list int)) "empty" [] (P.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (array int))
    "array" [| 2; 4; 6 |]
    (P.map_array ~jobs:3 (fun x -> 2 * x) [| 1; 2; 3 |])

exception Boom

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d" jobs)
        Boom
        (fun () ->
          ignore
            (P.map ~jobs
               (fun x -> if x = 37 then raise Boom else x)
               (List.init 100 Fun.id))))
    [ 1; 4 ]

let test_run_side_effects () =
  let cells = Array.make 8 0 in
  P.run ~jobs:4 (List.init 8 (fun i () -> cells.(i) <- i + 1));
  Alcotest.(check (array int)) "all ran" [| 1; 2; 3; 4; 5; 6; 7; 8 |] cells

let test_default_jobs () =
  Alcotest.(check bool) "positive" true (P.default_jobs () > 0);
  Unix.putenv "MSCCL_JOBS" "3";
  Alcotest.(check int) "env honored" 3 (P.default_jobs ());
  Unix.putenv "MSCCL_JOBS" "not-a-number";
  Alcotest.(check bool) "garbage ignored" true (P.default_jobs () > 0);
  Unix.putenv "MSCCL_JOBS" ""

(* ------------------------------------------------------------------ *)
(* Parallel sweeps are byte-identical across job counts                *)
(* ------------------------------------------------------------------ *)

let test_registry_sweep_deterministic () =
  let s1 = H.Lint_sweep.run ~jobs:1 () in
  let s8 = H.Lint_sweep.run ~jobs:8 () in
  Alcotest.(check bool) "entries equal" true (s1 = s8);
  let render entries = Format.asprintf "%a" H.Lint_sweep.pp entries in
  Alcotest.(check string) "report identical" (render s1) (render s8)

let test_fuzz_deterministic () =
  let report jobs = F.Fuzz.report_json (F.Fuzz.run ~jobs ~seed:7 ~cases:30 ()) in
  Alcotest.(check string) "json identical" (report 1) (report 8)

let test_races_parallel_deterministic () =
  let build () =
    Msccl_algorithms.Ring_allreduce.ir ~verify:false ~num_ranks:8 ()
  in
  let render races =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Races.pp_race) races)
  in
  let seq = render (Races.find (build ())) in
  List.iter
    (fun r -> Alcotest.(check string) "identical" seq r)
    (P.map ~jobs:8 (fun () -> render (Races.find (build ()))) (List.init 8 (fun _ -> ())))

(* ------------------------------------------------------------------ *)
(* Sweep-line race detection vs the naive pairwise reference           *)
(* ------------------------------------------------------------------ *)

(* Random single-GPU IRs with arbitrary overlapping footprints and random
   (acyclic) cross-thread-block depends. *)
let gen_random_ir =
  let open Q.Gen in
  let loc_gen =
    let* buf = oneofl [ Buffer_id.Input; Buffer_id.Output ] in
    let* index = int_bound 5 in
    let* count = int_range 1 3 in
    return (Loc.make ~rank:0 ~buf ~index ~count)
  in
  let step_gen tb_id s =
    let* op = oneofl [ Instr.Copy; Instr.Reduce; Instr.Nop ] in
    let* src = loc_gen in
    let* dst = loc_gen in
    (* Depends point only at lower-numbered tbs, so the graph is acyclic;
       out-of-range step targets are deliberate (Hbgraph must skip them). *)
    let* depends =
      if tb_id = 0 then return []
      else
        let* n = int_bound 2 in
        list_repeat n
          (let* dtb = int_bound (tb_id - 1) in
           let* dstep = int_bound 2 in
           return (dtb, dstep))
    in
    return
      {
        Ir.s;
        op;
        src = (if op = Instr.Nop then None else Some src);
        dst = (if op = Instr.Nop then None else Some dst);
        count = 1;
        depends;
        has_dep = false;
      }
  in
  let* ntbs = int_range 2 4 in
  let* tbs =
    flatten_l
      (List.init ntbs (fun tb_id ->
           let* nsteps = int_range 1 3 in
           let* steps = flatten_l (List.init nsteps (step_gen tb_id)) in
           return
             { Ir.tb_id; send = -1; recv = -1; chan = 0;
               steps = Array.of_list steps }))
  in
  return
    {
      Ir.name = "random";
      collective =
        Collective.make Collective.Allreduce ~num_ranks:1 ~chunk_factor:8 ();
      proto = T.Protocol.Simple;
      gpus =
        [|
          {
            Ir.gpu_id = 0;
            input_chunks = 8;
            output_chunks = 8;
            scratch_chunks = 0;
            tbs = Array.of_list tbs;
          };
        |];
    }

let prop_sweep_matches_naive =
  Testutil.qtest ~count:300 "sweep-line equals naive pairwise"
    (Q.make ~print:(Format.asprintf "%a" Ir.pp) gen_random_ir)
    Testutil.races_agree

(* Depends edges make the race set shrink, never grow: a fully ordered
   two-tb program must be clean, the same program unordered must race. *)
let test_sweep_finds_and_clears () =
  let step ?(depends = []) s op src dst =
    { Ir.s; op; src = Some src; dst = Some dst; count = 1; depends;
      has_dep = depends <> [] }
  in
  let loc buf index = Loc.make ~rank:0 ~buf ~index ~count:1 in
  let mk ordered =
    let dep = if ordered then [ (0, 0) ] else [] in
    {
      Ir.name = "pair";
      collective =
        Collective.make Collective.Allreduce ~num_ranks:1 ~chunk_factor:2 ();
      proto = T.Protocol.Simple;
      gpus =
        [|
          {
            Ir.gpu_id = 0;
            input_chunks = 2;
            output_chunks = 2;
            scratch_chunks = 0;
            tbs =
              [|
                { Ir.tb_id = 0; send = -1; recv = -1; chan = 0;
                  steps =
                    [| step 0 Instr.Copy (loc Buffer_id.Input 0)
                         (loc Buffer_id.Output 0) |] };
                { Ir.tb_id = 1; send = -1; recv = -1; chan = 0;
                  steps =
                    [| step ~depends:dep 0 Instr.Copy (loc Buffer_id.Input 1)
                         (loc Buffer_id.Output 0) |] };
              |];
          };
        |];
    }
  in
  Alcotest.(check int) "unordered pair races" 1
    (List.length (Races.find (mk false)));
  Alcotest.(check int) "ordered pair clean" 0
    (List.length (Races.find (mk true)))

(* ------------------------------------------------------------------ *)
(* Engine: no stale completion event per flow start                    *)
(* ------------------------------------------------------------------ *)

let test_engine_event_count () =
  (* One flow, one completion event. Before the start_flow fix the new
     flow entered rate reassignment with a placeholder rate and got a
     second (stale) completion scheduled — 2 events per flow. *)
  let eng = E.create ~capacities:[| 100. |] in
  let fired = ref 0 in
  E.start_flow eng ~bytes:1000. ~hops:[ 0 ] ~cap:1000. (fun () -> incr fired);
  E.run eng;
  Alcotest.(check int) "completed" 1 !fired;
  Alcotest.(check int) "single flow = single event" 1 (E.events_processed eng);
  (* Flows on disjoint resources never affect each other's rates: exactly
     one event each. *)
  let eng = E.create ~capacities:[| 100.; 100.; 100.; 100. |] in
  let fired = ref 0 in
  for h = 0 to 3 do
    E.start_flow eng ~bytes:1000. ~hops:[ h ] ~cap:1000. (fun () -> incr fired)
  done;
  E.run eng;
  Alcotest.(check int) "all completed" 4 !fired;
  Alcotest.(check int) "one event per flow" 4 (E.events_processed eng)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "empty and array" `Quick test_map_empty_and_array;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "run side effects" `Quick test_run_side_effects;
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "registry sweep jobs=1 vs 8" `Quick
            test_registry_sweep_deterministic;
          Alcotest.test_case "fuzz batch jobs=1 vs 8" `Quick
            test_fuzz_deterministic;
          Alcotest.test_case "races under pool jobs=1 vs 8" `Quick
            test_races_parallel_deterministic;
        ] );
      ( "races-sweep",
        [
          prop_sweep_matches_naive;
          Alcotest.test_case "finds and clears" `Quick
            test_sweep_finds_and_clears;
        ] );
      ( "engine",
        [
          Alcotest.test_case "no stale events" `Quick test_engine_event_count;
        ] );
    ]

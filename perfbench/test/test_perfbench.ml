(* Harness tests: the statistics and agreement rule the benchmark's
   verdicts rest on, span self time, the BENCHMARK.json contract, and a
   toy-size run of every workload so the harness cannot rot unnoticed. *)

open Perfbench

let feq = Alcotest.float 1e-12

let test_median () =
  Alcotest.check feq "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "one" 7. (Stats.median [ 7. ])

(* Reference values from Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let check name data (a, b, c) =
    let q1, q2, q3 = Stats.quartiles data in
    Alcotest.check feq (name ^ " q1") a q1;
    Alcotest.check feq (name ^ " q2") b q2;
    Alcotest.check feq (name ^ " q3") c q3
  in
  check "three" [ 3.; 1.; 2. ] (1., 2., 3.);
  check "seven" [ 5.; 1.; 4.; 2.; 8.; 9.; 3. ] (2., 4., 8.);
  check "two" [ 1.5; 2.5 ] (1.25, 2., 2.75);
  check "four" [ 10.; 20.; 30.; 40. ] (12.5, 25., 37.5);
  Alcotest.check feq "spread" ((37.5 -. 12.5) /. 25.)
    (Stats.spread [ 10.; 20.; 30.; 40. ])

let test_tail () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (pair int feq))) "10 samples" None (Stats.tail (xs 10));
  Alcotest.(check (option (pair int feq))) "11 samples" (Some (9, 1.)) (Stats.tail (xs 11));
  Alcotest.(check (option (pair int feq)))
    "200 samples: p95 has exactly ten beyond" (Some (95, 190.))
    (Stats.tail (xs 200))

let span id ?(parent = -1) start stop alloc_bytes =
  {
    Trace.id;
    name = "s";
    kind = Trace.Layer;
    start;
    stop;
    parent;
    op = -1;
    iteration = 0;
    alloc_bytes;
  }

let test_self_time () =
  (* 0 [0,10] has children 1 [1,3] and 2 [4,8]; 3 [5,6] is inside 2. *)
  let spans =
    [
      span 0 0. 10. 100.;
      span 1 ~parent:0 1. 3. 10.;
      span 2 ~parent:0 4. 8. 50.;
      span 3 ~parent:2 5. 6. 20.;
    ]
  in
  let self id =
    match List.find (fun (s, _, _) -> s.Trace.id = id) (Trace.self_figures spans) with
    | _, t, a -> (t, a)
  in
  Alcotest.(check (pair feq feq)) "outer" (4., 40.) (self 0);
  Alcotest.(check (pair feq feq)) "leaf" (2., 10.) (self 1);
  Alcotest.(check (pair feq feq)) "middle" (3., 30.) (self 2);
  Alcotest.(check (pair feq feq)) "inner" (1., 20.) (self 3)

let test_span_nesting () =
  Trace.reset ();
  Trace.enabled := true;
  Trace.span Trace.Iteration "it" (fun () ->
      Trace.span Trace.Op "op" (fun () ->
          Trace.layer "a" ignore;
          Trace.count "lint.findings" 2.;
          Trace.count "lint.findings" 3.));
  (try Trace.layer "b" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.enabled := false;
  Trace.layer "untraced" ignore;
  let spans = Trace.spans () in
  let find n = List.find (fun s -> s.Trace.name = n) spans in
  let it = find "it" and op = find "op" and a = find "a" and b = find "b" in
  Alcotest.(check int) "spans recorded" 4 (List.length spans);
  Alcotest.(check int) "op parent" it.Trace.id op.Trace.parent;
  Alcotest.(check int) "layer parent" op.Trace.id a.Trace.parent;
  Alcotest.(check int) "layer op id" op.Trace.id a.Trace.op;
  Alcotest.(check int) "span closed on exception" (-1) b.Trace.parent;
  Alcotest.check feq "counter" 5. (Trace.counter ~iteration:0 "lint.findings")

let spec = lazy (Spec.load "../../BENCHMARK.json")

let test_spec () =
  let s =
    Spec.of_json
      (Json.parse
         {|{"run_seconds": 7, "workloads": [{"name": "w", "why": "y"}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "emit.mb", "unit": "MiB", "better": "lower"}]}|})
  in
  Alcotest.(check int) "run_seconds" 7 s.Spec.run_seconds;
  Alcotest.(check (list (pair string string))) "workloads" [ ("w", "y") ] s.Spec.workloads;
  (match s.Spec.end_to_end with
  | [ m ] ->
      Alcotest.(check string) "name" "wall_s" m.Spec.m_name;
      Alcotest.(check (option feq)) "bound" (Some 0.1) m.Spec.m_bound
  | _ -> Alcotest.fail "one end-to-end metric expected");
  (* The committed definition: every workload exists, and setup_s is the
     loosest bound, as the benchmark contract requires. *)
  let s = Lazy.force spec in
  List.iter
    (fun (w, _) ->
      Alcotest.(check bool) ("workload " ^ w) true (Workloads.find w <> None))
    s.Spec.workloads;
  let bound m = Option.get m.Spec.m_bound in
  let setup = List.find (fun m -> m.Spec.m_name = "setup_s") s.Spec.end_to_end in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Spec.m_name ^ " bound <= setup_s bound")
        true
        (bound m <= bound setup))
    s.Spec.end_to_end

let test_agree () =
  let a = [ 1.0; 1.01; 0.99; 1.0; 1.02 ] in
  Alcotest.(check string) "same" "agree"
    (Agree.verdict_name (Agree.rule ~bound:0.1 a a));
  Alcotest.(check string) "shifted" "DISAGREE"
    (Agree.verdict_name (Agree.rule ~bound:0.1 a (List.map (( *. ) 1.2) a)));
  Alcotest.(check string) "noisy" "unresolved"
    (Agree.verdict_name (Agree.rule ~bound:0.1 a [ 0.5; 1.0; 1.5; 2.0 ]))

(* One toy-size run of a workload, untraced then traced: every op must
   pass its invariants, the traced path must reproduce the untraced
   outputs, and every metric BENCHMARK.json lists must be computed. *)
let smoke (w : Workloads.t) () =
  List.iter
    (fun trace ->
      let r =
        Runner.run
          {
            Runner.spec = Lazy.force spec;
            workload = w;
            env = { Workloads.scale = Workloads.toy; seed = 3; corpus = "../corpus" };
            seconds = 0.;
            trace;
            golden_dir = None;
            bless = false;
            setup_reps = 1;
            min_iterations = (if trace then 2 else 1);
          }
      in
      List.iter print_endline r.Runner.problems;
      Alcotest.(check bool) "correct" true r.Runner.correct;
      Alcotest.(check int) "failed" 0 r.Runner.failed;
      Alcotest.(check bool) "ops attempted" true (r.Runner.attempted > 0);
      let listed =
        let s = Lazy.force spec in
        if trace then s.Spec.per_layer else s.Spec.end_to_end
      in
      Alcotest.(check int) "every metric" (List.length listed)
        (List.length r.Runner.metrics))
    [ false; true ]

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "tail percentile" `Quick test_tail;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "nesting and counters" `Quick test_span_nesting;
        ] );
      ( "spec",
        [
          Alcotest.test_case "BENCHMARK.json" `Quick test_spec;
          Alcotest.test_case "agree rule" `Quick test_agree;
        ] );
      ( "smoke",
        List.map
          (fun w -> Alcotest.test_case w.Workloads.name `Quick (smoke w))
          Workloads.all );
    ]

(* One workload run: set up several times, then iterate for the time
   budget, check every iteration's outputs, and compute the metrics that
   BENCHMARK.json lists.

   Iterations run back to back in this single-threaded process. Between
   two iterations, untimed, the calibration kernel runs between two
   Gc.compact calls (see Calib), and each iteration's time is scaled by
   the kernel times on either side of it. Iteration 0 is a warm-up: it is
   checked but not timed. Its outputs are checked against the invariants
   and, on the golden seeds, the committed goldens; every later iteration
   must reproduce its facts. In a traced run odd iterations are traced and
   even ones are not, so the untraced ones give wall_s for the overhead
   comparison. *)

type config = {
  spec : Spec.t;
  workload : Workloads.t;
  env : Workloads.env;
  seconds : float;
  trace : bool;
  golden_dir : string option;  (** [None]: no golden comparison (tests). *)
  bless : bool;
  setup_reps : int;
  min_iterations : int;
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (Spec.metric * float) list;
  samples : (string * float list) list;  (** Per-iteration samples, for display. *)
  problems : string list;
}

let mib = 1024. *. 1024.

let median_or_zero = function [] -> 0. | xs -> Stats.median xs

(* Per-layer metrics from the traced iterations' spans and counters. Every
   value is the median over traced iterations of that iteration's total;
   a layer a workload never calls reports zeros. *)
let layer_values ~traced ~untraced_wall ~traced_wall ~untraced_raw ~calib =
  let spans = Trace.spans () in
  let figures = Trace.self_figures spans in
  let by_iter f =
    List.map (fun it -> f it) traced |> median_or_zero
  in
  let kind_of = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace kind_of s.Trace.id s.Trace.kind) spans;
  let layer_sum it name pick =
    List.fold_left
      (fun acc (s, self_t, self_a) ->
        if s.Trace.kind = Trace.Layer && s.Trace.iteration = it && s.Trace.name = name
        then acc +. pick s self_t self_a
        else acc)
      0. figures
  in
  let counter name it = Trace.counter ~iteration:it name in
  let ratio num den it =
    let d = den it in
    if d > 0. then num it /. d else 0.
  in
  let unattributed it =
    List.fold_left
      (fun acc s ->
        if s.Trace.iteration <> it then acc
        else
          match s.Trace.kind with
          | Trace.Iteration -> acc +. Trace.duration s
          | Trace.Layer
            when Hashtbl.find_opt kind_of s.Trace.parent <> Some Trace.Layer ->
              acc -. Trace.duration s
          | _ -> acc)
      0. spans
  in
  let op_ms =
    List.filter_map
      (fun s ->
        if s.Trace.kind = Trace.Op then Some (Trace.duration s *. 1e3) else None)
      spans
  in
  let tail = Stats.tail op_ms in
  fun name ->
    let suffix sfx =
      if String.ends_with ~suffix:sfx name then
        Some (String.sub name 0 (String.length name - String.length sfx))
      else None
    in
    match name with
    | "wall_raw_s" -> Some (median_or_zero untraced_raw)
    | "calib_ms" -> Some (median_or_zero calib *. 1e3)
    | "unattributed_s" -> Some (by_iter unattributed)
    | "trace_overhead_pct" ->
        let u = median_or_zero untraced_wall in
        Some (if u > 0. then (median_or_zero traced_wall -. u) /. u *. 100. else 0.)
    | "op.count" -> Some (float_of_int (List.length op_ms))
    | "op.p50_ms" -> Some (median_or_zero op_ms)
    | "op.tail_pct" -> Some (match tail with Some (p, _) -> float_of_int p | None -> 0.)
    | "op.tail_ms" -> Some (match tail with Some (_, v) -> v | None -> 0.)
    | "simulate.events_per_s" ->
        Some
          (by_iter
             (ratio (counter "simulate.events") (fun it ->
                  layer_sum it "simulate" (fun _ t _ -> t))))
    | "parse.mb_per_s" ->
        Some
          (by_iter
             (ratio
                (fun it -> counter "parse.bytes" it /. mib)
                (fun it -> layer_sum it "parse" (fun _ t _ -> t))))
    | _ when List.mem name Layers.counters -> Some (by_iter (counter name))
    | _ -> (
        let known = Option.map (fun l -> List.mem l Layers.names) in
        match (suffix ".self_s", suffix ".calls", suffix ".alloc_mb") with
        | (Some l as s), _, _ when known s = Some true ->
            Some (by_iter (fun it -> layer_sum it l (fun _ t _ -> t)))
        | _, (Some l as s), _ when known s = Some true ->
            Some (by_iter (fun it -> layer_sum it l (fun _ _ _ -> 1.)))
        | _, _, (Some l as s) when known s = Some true ->
            Some (by_iter (fun it -> layer_sum it l (fun _ _ a -> a /. mib)))
        | _ -> None)

let group_facts ctx outcomes =
  List.map
    (fun op ->
      ( op,
        List.concat_map
          (fun o -> if o.Ctx.o_op = op then o.Ctx.o_facts () else [])
          outcomes ))
    (Ctx.ops ctx)

let run cfg =
  let w = cfg.workload in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (* Set-up: repeated at least [setup_reps] times, and until 0.2 s of
     set-up has been measured (at most 50 times), so that a set-up of a few
     microseconds still gets a stable median; the last result is used.
     Compacting before each repetition keeps the previous one's garbage
     from being collected inside the next: without it, set-ups of a few
     microseconds spread by half across seeds. The median is scaled by the
     calibration kernel timed before and after all repetitions. *)
  let setup_times = ref [] and iterate = ref (fun _ -> ()) in
  let reps = ref 0 and spent = ref 0. in
  (* The kernel's first run in a process pays for growing the heap. *)
  ignore (Calib.measure ());
  let calib = ref [ Calib.measure () ] in
  while !reps < max 1 cfg.setup_reps || (!spent < 0.2 && !reps < 50) do
    Gc.compact ();
    let t0 = Trace.now () in
    let it = w.Workloads.setup cfg.env in
    let dt = Trace.now () -. t0 in
    setup_times := dt :: !setup_times;
    spent := !spent +. dt;
    incr reps;
    iterate := it
  done;
  let c_prev = ref (Calib.measure ()) in
  let setup_s = Calib.scale (Stats.median !setup_times) (List.hd !calib) !c_prev in
  calib := !c_prev :: !calib;
  let iterate = !iterate in
  let golden =
    match cfg.golden_dir with
    | Some dir when List.mem cfg.env.Workloads.seed Golden.seeds ->
        Some (Golden.path ~dir ~workload:w.Workloads.name ~seed:cfg.env.Workloads.seed)
    | _ -> None
  in
  let attempted = ref 0 and failed = ref 0 in
  let first_facts = ref None and sim_times = ref [] in
  let untraced_wall = ref [] and traced_wall = ref [] and traced_iters = ref [] in
  let untraced_raw = ref [] in
  Trace.reset ();
  let start = Trace.now () in
  let i = ref 0 in
  while !i <= cfg.min_iterations || Trace.now () -. start < cfg.seconds do
    let traced = cfg.trace && !i land 1 = 1 in
    Trace.set_iteration !i;
    Trace.enabled := traced;
    let ctx = Ctx.create () in
    let t0 = Trace.now () in
    let raised =
      match Trace.span Trace.Iteration "iteration" (fun () -> iterate ctx) with
      | () -> None
      | exception e -> Some (Printexc.to_string e)
    in
    let wall = Trace.now () -. t0 in
    Trace.enabled := false;
    (* Untimed: evaluate this iteration's outcomes. *)
    let bad = Hashtbl.create 8 in
    let fail_op op msg =
      if not (Hashtbl.mem bad op) then begin
        Hashtbl.replace bad op ();
        problem "iteration %d, op %s: %s" !i op msg
      end
    in
    Option.iter (fail_op (Ctx.current ctx)) raised;
    attempted := !attempted + List.length (Ctx.ops ctx);
    let outcomes = Ctx.outcomes ctx in
    let facts =
      match group_facts ctx outcomes with
      | f -> f
      | exception e ->
          fail_op (Ctx.current ctx) ("facts raised " ^ Printexc.to_string e);
          []
    in
    (match !first_facts with
    | None ->
        first_facts := Some facts;
        List.iter
          (fun o ->
            match o.Ctx.o_check () with
            | [] -> ()
            | m :: _ -> fail_op o.Ctx.o_op m
            | exception e -> fail_op o.Ctx.o_op ("check raised " ^ Printexc.to_string e))
          outcomes;
        (sim_times :=
           try List.concat_map (fun o -> o.Ctx.o_times ()) outcomes
           with e ->
             problem "modelled times raised %s" (Printexc.to_string e);
             []);
        Option.iter
          (fun path ->
            if not cfg.bless then
              match Golden.read path with
              | None -> problem "no golden file %s (run with --bless)" path
              | Some expected ->
                  List.iter
                    (fun (op, m) -> fail_op op m)
                    (Golden.mismatches ~expected facts))
          golden
    | Some first ->
        List.iter
          (fun (op, fs) ->
            match List.assoc_opt op first with
            | Some fs0 when fs0 = fs -> ()
            | _ -> fail_op op "output differs from the warm-up iteration")
          facts);
    failed := !failed + Hashtbl.length bad;
    let c = Calib.measure () in
    calib := c :: !calib;
    let scaled = Calib.scale wall !c_prev c in
    c_prev := c;
    if !i = 0 then ()
    else if traced then begin
      traced_wall := scaled :: !traced_wall;
      traced_iters := !i :: !traced_iters
    end
    else begin
      untraced_wall := scaled :: !untraced_wall;
      untraced_raw := wall :: !untraced_raw
    end;
    incr i
  done;
  if cfg.bless then begin
    match (golden, !first_facts, !problems) with
    | Some path, Some facts, [] ->
        Golden.write path facts;
        Printf.eprintf "blessed %s\n%!" path
    | Some _, _, _ -> problem "not blessing: the run has failures"
    | None, _, _ -> problem "--bless needs a golden seed (%s)"
                      (String.concat ", " (List.map string_of_int Golden.seeds))
  end;
  let untraced_wall = List.rev !untraced_wall and traced_wall = List.rev !traced_wall in
  let untraced_raw = List.rev !untraced_raw and calib = List.rev !calib in
  let heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. mib
  in
  let sim_geomean_us =
    match List.filter (fun t -> t > 0.) !sim_times with
    | [] ->
        problem "the workload produced no modelled times";
        1.
    | ts -> Stats.geomean ts *. 1e6
  in
  let end_to_end = function
    | "wall_s" -> Some (median_or_zero untraced_wall)
    | "setup_s" -> Some setup_s
    | "peak_heap_mb" -> Some heap_mb
    | "sim_time_geomean_us" -> Some sim_geomean_us
    | _ -> None
  in
  let listed, value =
    if cfg.trace then
      ( cfg.spec.Spec.per_layer,
        layer_values ~traced:(List.rev !traced_iters) ~untraced_wall ~traced_wall
          ~untraced_raw ~calib )
    else (cfg.spec.Spec.end_to_end, end_to_end)
  in
  let metrics =
    List.filter_map
      (fun m ->
        match value m.Spec.m_name with
        | Some v when Float.is_finite v -> Some (m, v)
        | Some v ->
            problem "metric %s is not finite (%f)" m.Spec.m_name v;
            None
        | None ->
            problem "metric %s is not computed by this benchmark" m.Spec.m_name;
            None)
      listed
  in
  let problems = List.rev !problems in
  {
    correct = problems = [];
    attempted = !attempted;
    failed = !failed;
    metrics;
    samples =
      [
        ("wall_s", untraced_wall);
        ("wall_raw_s", untraced_raw);
        ("setup_raw_s", List.rev !setup_times);
        ("calib_s", calib);
      ]
      @ if cfg.trace then [ ("traced_wall_s", traced_wall) ] else [];
    problems;
  }

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m, v) ->
               ( m.Spec.m_name,
                 Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.Spec.m_unit) ] ))
             r.metrics) );
    ]

let print_human oc ~workload ~seed r =
  Printf.fprintf oc "== %s (seed %d): %s, %d op(s) attempted, %d failed\n"
    workload seed
    (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed;
  List.iter (fun p -> Printf.fprintf oc "   problem: %s\n" p)
    (List.filteri (fun i _ -> i < 20) r.problems);
  List.iter
    (fun (name, xs) ->
      if xs <> [] then begin
        let q1, med, q3 = Stats.quartiles xs in
        Printf.fprintf oc "   %-22s median %.4f  q1 %.4f  q3 %.4f  (n=%d%s)\n"
          name med q1 q3 (List.length xs)
          (match Stats.tail xs with
          | Some (p, v) -> Printf.sprintf ", p%d %.4f" p v
          | None -> "")
      end)
    r.samples;
  List.iter
    (fun (m, v) -> Printf.fprintf oc "   %-28s %14.6g %s\n" m.Spec.m_name v m.Spec.m_unit)
    r.metrics

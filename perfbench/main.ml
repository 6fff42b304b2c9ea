(* perfbench — the repository benchmark.

     main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                  [--spans FILE] [--out FILE] [--bless]
                  [--spec FILE] [--golden DIR] [--corpus DIR]
     main.exe agree A.jsonl B.jsonl [--spec FILE]

   [run] with a workload measures it in this process and prints the
   metrics, then one JSON result object as the last line of standard
   output; it exits 1 when any op failed. Without a workload it runs every
   workload of BENCHMARK.json in turn, each in a fresh process of its own.
   Paths default to the layout seen from the repository root. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
     [--spans FILE] [--out FILE] [--bless] [--spec FILE] [--golden DIR] \
     [--corpus DIR]\n\
    \       main.exe agree A.jsonl B.jsonl [--spec FILE]";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable spans : string option;
  mutable out : string option;
  mutable bless : bool;
  mutable spec_file : string;
  mutable golden : string;
  mutable corpus : string;
  mutable positional : string list;
}

let parse args =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = None;
      trace = false;
      spans = None;
      out = None;
      bless = false;
      spec_file = "BENCHMARK.json";
      golden = "perfbench/golden";
      corpus = "perfbench/corpus";
      positional = [];
    }
  in
  let num conv flag v =
    match conv v with Some x -> x | None ->
      Printf.eprintf "%s: bad value %S\n" flag v;
      usage ()
  in
  let rec go = function
    | [] -> ()
    | "--bless" :: rest ->
        o.bless <- true;
        go rest
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        (match flag with
        | "--workload" -> o.workload <- Some v
        | "--seed" -> o.seed <- num int_of_string_opt flag v
        | "--seconds" -> o.seconds <- Some (num float_of_string_opt flag v)
        | "--trace" -> (
            match v with
            | "0" -> o.trace <- false
            | "1" -> o.trace <- true
            | _ -> usage ())
        | "--spans" -> o.spans <- Some v
        | "--out" -> o.out <- Some v
        | "--spec" -> o.spec_file <- v
        | "--golden" -> o.golden <- v
        | "--corpus" -> o.corpus <- v
        | _ ->
            Printf.eprintf "unknown option %s\n" flag;
            usage ());
        go rest
    | arg :: rest ->
        if String.length arg > 1 && arg.[0] = '-' then begin
          Printf.eprintf "option %s needs a value\n" arg;
          usage ()
        end;
        o.positional <- o.positional @ [ arg ];
        go rest
  in
  go args;
  o

let load_spec o =
  match Spec.load o.spec_file with
  | s -> s
  | exception (Sys_error m | Json.Error m) ->
      Printf.eprintf "cannot read %s: %s\n" o.spec_file m;
      exit 2

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

let run_one o spec name =
  let workload =
    match Workloads.find name with
    | Some w when List.mem_assoc name spec.Spec.workloads -> w
    | _ ->
        Printf.eprintf "unknown workload %S (BENCHMARK.json lists: %s)\n" name
          (String.concat ", " (List.map fst spec.Spec.workloads));
        exit 2
  in
  let cfg =
    {
      Runner.spec;
      workload;
      env = { Workloads.scale = Workloads.full; seed = o.seed; corpus = o.corpus };
      seconds =
        Option.value o.seconds ~default:(float_of_int spec.Spec.run_seconds);
      trace = o.trace;
      golden_dir = Some o.golden;
      bless = o.bless;
      setup_reps = 3;
      min_iterations = (if o.trace then 4 else 3);
    }
  in
  let r = Runner.run cfg in
  Option.iter
    (fun path ->
      let oc = open_out_bin path in
      output_string oc (Json.to_string (Trace.to_json (Trace.spans ())));
      close_out oc)
    o.spans;
  let json = Runner.result_json r in
  Option.iter
    (fun path ->
      append_line path
        (Json.to_string
           (Json.Obj
              (("workload", Json.Str name)
               :: ("seed", Json.Num (float_of_int o.seed))
               :: ("trace", Json.Bool o.trace)
               :: (match json with Json.Obj f -> f | _ -> [])))))
    o.out;
  Runner.print_human stdout ~workload:name ~seed:o.seed r;
  print_endline (Json.to_string json);
  exit (if r.Runner.correct then 0 else 1)

(* Every workload, sequentially, each in a fresh process so that
   peak_heap_mb and the GC state belong to that workload alone. *)
let run_all o spec args =
  let failed =
    List.filter
      (fun (name, _) ->
        let extra =
          match o.spans with
          | Some f ->
              [ "--spans"; Filename.remove_extension f ^ "." ^ name ^ ".json" ]
          | None -> []
        in
        let argv =
          Array.of_list
            ((Sys.executable_name :: "run" :: args) @ [ "--workload"; name ] @ extra)
        in
        let pid =
          Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
            Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> false
        | _ -> true)
      spec.Spec.workloads
  in
  (match failed with
  | [] -> Printf.printf "all %d workloads correct\n" (List.length spec.Spec.workloads)
  | l -> Printf.printf "FAILED: %s\n" (String.concat ", " (List.map fst l)));
  exit (if failed = [] then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> (
      let o = parse args in
      let spec = load_spec o in
      match o.workload with
      | Some name -> run_one o spec name
      | None ->
          (* Forward everything but --spans, which is split per workload. *)
          let rec strip = function
            | "--spans" :: _ :: rest -> strip rest
            | a :: rest -> a :: strip rest
            | [] -> []
          in
          run_all o spec (strip args))
  | _ :: "agree" :: args -> (
      let o = parse args in
      match o.positional with
      | [ a; b ] -> exit (Agree.run ~spec:(load_spec o) a b)
      | _ -> usage ())
  | _ -> usage ()

module T = Msccl_topology
module Plan = Msccl_faults.Plan
open Msccl_core

type verdict =
  | Survived of { v_time_s : float; v_baseline_s : float }
  | Hung of {
      v_at_s : float;
      v_blocked : int;
      v_cycle : bool;
      v_detail : string;
    }
  | Skipped of string

type entry = {
  x_algo : string;
  x_topology : string;
  x_severity : float;
  x_verdict : verdict;
}

let degradation e =
  match e.x_verdict with
  | Survived { v_time_s; v_baseline_s } when v_baseline_s > 0. ->
      Some (v_time_s /. v_baseline_s)
  | _ -> None

let plan_for ~seed ~severity ~topo =
  let n = T.Topology.num_ranks topo in
  let src = ((seed mod n) + n) mod n in
  let dst = (src + 1) mod n in
  let factor = Float.max 0. (1. -. severity) in
  Plan.make
    ~name:(Printf.sprintf "degrade-link(%d->%d,severity=%g)" src dst severity)
    [
      Plan.Degrade
        {
          target = Plan.Route { src; dst };
          factor;
          from_s = 0.;
          until_s = None;
        };
    ]

let default_severities = [ 0.0; 0.3; 0.6; 0.9; 1.0 ]

let resolve_algos = function
  | None -> Ok Registry.all
  | Some names ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
            match Registry.find n with
            | Some spec -> go (spec :: acc) rest
            | None -> Error (Printf.sprintf "unknown algorithm %S" n))
      in
      go [] names

let run ?jobs ?algos ?(severities = default_severities) ?(seed = 0)
    ?(size_bytes = 1048576.) ?(topology = "ndv4:1") () =
  match Registry.parse_topology topology with
  | Error m -> Error (Printf.sprintf "topology %S: %s" topology m)
  | Ok topo -> (
      match resolve_algos algos with
      | Error _ as e -> e
      | Ok specs ->
          let cells =
            List.concat_map
              (fun (spec : Registry.spec) ->
                List.map (fun s -> (spec, s)) severities)
              specs
          in
          let params =
            {
              Registry.default_params with
              Registry.nodes = T.Topology.num_nodes topo;
              gpus_per_node = T.Topology.gpus_per_node topo;
              verify = false;
            }
          in
          Ok
            (Msccl_parallel.Pool.map ?jobs
               (fun ((spec : Registry.spec), severity) ->
                 let x_verdict =
                   match spec.Registry.build params with
                   | exception Program.Trace_error m ->
                       Skipped ("trace error: " ^ m)
                   | exception Schedule.Scheduling_error m ->
                       Skipped ("scheduling error: " ^ m)
                   | exception Failure m -> Skipped m
                   | exception Invalid_argument m -> Skipped m
                   | ir ->
                       if Ir.num_ranks ir <> T.Topology.num_ranks topo then
                         Skipped
                           (Printf.sprintf "fixed at %d ranks"
                              (Ir.num_ranks ir))
                       else begin
                         let sim ?faults () =
                           Simulator.run_buffer ~topo ~buffer_bytes:size_bytes
                             ~check_occupancy:false ?faults ir
                         in
                         let baseline = (sim ()).Simulator.time in
                         let faults = plan_for ~seed ~severity ~topo in
                         match sim ~faults () with
                         | r ->
                             Survived
                               {
                                 v_time_s = r.Simulator.time;
                                 v_baseline_s = baseline;
                               }
                         | exception Simulator.Hang h ->
                             Hung
                               {
                                 v_at_s = h.Simulator.h_time;
                                 v_blocked =
                                   List.length h.Simulator.h_blocked;
                                 v_cycle = h.Simulator.h_cycle <> None;
                                 v_detail =
                                   (match h.Simulator.h_blocked with
                                   | [] -> "no blocked waits recorded"
                                   | b :: _ ->
                                       Simulator.ctx_string b.Simulator.b_ctx
                                       ^ ": "
                                       ^ Simulator.wait_string
                                           b.Simulator.b_wait);
                               }
                       end
                 in
                 {
                   x_algo = spec.Registry.name;
                   x_topology = topology;
                   x_severity = severity;
                   x_verdict;
                 })
               cells))

let quick ?jobs () =
  run ?jobs
    ~algos:[ "ring-allreduce"; "allpairs-allreduce" ]
    ~severities:[ 0.5 ] ()

let unexpected_hangs entries =
  List.filter
    (fun e ->
      match e.x_verdict with Hung _ -> e.x_severity < 1.0 | _ -> false)
    entries

let pp ppf entries =
  Format.fprintf ppf "@[<v>%-28s %-8s %-10s %s@," "algorithm" "topology" "severity"
    "verdict";
  List.iter
    (fun e ->
      let verdict =
        match e.x_verdict with
        | Survived { v_time_s; v_baseline_s } ->
            Printf.sprintf "survived  %.3f ms (x%.3f of baseline)"
              (v_time_s *. 1e3)
              (v_time_s /. v_baseline_s)
        | Hung { v_at_s; v_blocked; v_cycle; v_detail } ->
            Printf.sprintf "HUNG at %.3f ms: %d blocked%s; %s"
              (v_at_s *. 1e3) v_blocked
              (if v_cycle then ", wait-for cycle" else "")
              v_detail
        | Skipped m -> "skipped: " ^ m
      in
      Format.fprintf ppf "%-28s %-8s %-10g %s@," e.x_algo e.x_topology e.x_severity
        verdict)
    entries;
  Format.fprintf ppf "@]"

let to_json ~seed entries =
  let b = Buffer.create 1024 in
  let esc = Lint.json_escape in
  Buffer.add_string b (Printf.sprintf "{\"seed\": %d, \"entries\": [" seed);
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "{\"algo\": \"%s\", \"topology\": \"%s\", \
                         \"severity\": %g, " (esc e.x_algo)
           (esc e.x_topology) e.x_severity);
      (match e.x_verdict with
      | Survived { v_time_s; v_baseline_s } ->
          Buffer.add_string b
            (Printf.sprintf
               "\"verdict\": \"survived\", \"time_s\": %.9e, \
                \"baseline_s\": %.9e, \"degradation\": %.6f" v_time_s
               v_baseline_s
               (v_time_s /. v_baseline_s))
      | Hung { v_at_s; v_blocked; v_cycle; v_detail } ->
          Buffer.add_string b
            (Printf.sprintf
               "\"verdict\": \"hung\", \"at_s\": %.9e, \"blocked\": %d, \
                \"cycle\": %b, \"detail\": \"%s\"" v_at_s v_blocked v_cycle
               (esc v_detail))
      | Skipped m ->
          Buffer.add_string b
            (Printf.sprintf "\"verdict\": \"skipped\", \"reason\": \"%s\""
               (esc m)));
      Buffer.add_string b "}")
    entries;
  Buffer.add_string b "]}";
  Buffer.contents b

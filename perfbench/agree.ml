(* Do two sets of runs agree? Each set is a file of result lines (as
   written by [run --out FILE]); runs are grouped by workload and every
   end-to-end metric is compared by median within its BENCHMARK.json
   bound. A pair whose quartile spread on either side is wider than the
   bound cannot be decided from these runs and is reported unresolved. *)

type verdict = Agree | Disagree | Unresolved

let verdict_name = function
  | Agree -> "agree"
  | Disagree -> "DISAGREE"
  | Unresolved -> "unresolved"

let rule ~bound a b =
  if Stats.spread a > bound || Stats.spread b > bound then Unresolved
  else
    let ma = Stats.median a and mb = Stats.median b in
    if Float.abs (mb -. ma) <= bound *. Float.abs ma then Agree else Disagree

(* workload -> metric -> values, in file order. *)
let load path =
  let tbl = Hashtbl.create 8 in
  String.split_on_char '\n' (Spec.read_file path)
  |> List.iter (fun line ->
         if String.trim line <> "" then begin
           let j = Json.parse line in
           let w = Json.to_str (Json.member "workload" j) in
           match Json.member "metrics" j with
           | Json.Obj ms ->
               List.iter
                 (fun (name, m) ->
                   let key = (w, name) in
                   let v = Json.to_num (Json.member "value" m) in
                   Hashtbl.replace tbl key
                     (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
                 ms
           | _ -> ()
         end);
  fun w name -> List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl (w, name)))

let run ~spec a_path b_path =
  let a = load a_path and b = load b_path in
  let disagreements = ref 0 in
  List.iter
    (fun (w, _) ->
      Printf.printf "== %s\n" w;
      List.iter
        (fun m ->
          let name = m.Spec.m_name in
          match (a w name, b w name, m.Spec.m_bound) with
          | [], _, _ | _, [], _ | _, _, None -> ()
          | xa, xb, Some bound ->
              let show xs =
                let q1, med, q3 = Stats.quartiles xs in
                Printf.sprintf "%.6g [%.6g, %.6g] n=%d" med q1 q3 (List.length xs)
              in
              let v = rule ~bound xa xb in
              if v = Disagree then incr disagreements;
              Printf.printf "   %-22s A %s   B %s   bound %g  %s\n" name (show xa)
                (show xb) bound (verdict_name v))
        spec.Spec.end_to_end)
    spec.Spec.workloads;
  if !disagreements > 0 then 1 else 0

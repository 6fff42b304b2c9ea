(* The benchmark definition in BENCHMARK.json: workloads, end-to-end
   metrics with their regression bounds, and per-layer metrics. The runner
   prints exactly the metrics listed here, so the file is the one place
   their names, units and bounds live. *)

type metric = {
  m_name : string;
  m_unit : string;
  m_bound : float option;  (** Share of the median; end-to-end only. *)
}

type t = {
  run_seconds : int;
  workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

let metric_of_json ~bounded j =
  let m_name = Json.to_str (Json.member "name" j) in
  (match Json.to_str (Json.member "better" j) with
  | "higher" | "lower" -> ()
  | other -> Json.fail "metric %s: better must be higher or lower, not %s" m_name other);
  {
    m_name;
    m_unit = Json.to_str (Json.member "unit" j);
    m_bound = (if bounded then Some (Json.to_num (Json.member "bound" j)) else None);
  }

let of_json j =
  let list k = Json.to_list (Json.member k j) in
  {
    run_seconds = int_of_float (Json.to_num (Json.member "run_seconds" j));
    workloads =
      List.map
        (fun w ->
          (Json.to_str (Json.member "name" w), Json.to_str (Json.member "why" w)))
        (list "workloads");
    end_to_end = List.map (metric_of_json ~bounded:true) (list "end_to_end");
    per_layer = List.map (metric_of_json ~bounded:false) (list "per_layer");
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path = of_json (Json.parse (read_file path))

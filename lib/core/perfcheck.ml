module Topology = Msccl_topology.Topology
module Protocol = Msccl_topology.Protocol

type bound = {
  lb_latency : float;
  lb_bandwidth : float;
  lb_compute : float;
}

let lb_total b = b.lb_latency +. b.lb_bandwidth +. b.lb_compute

type link_load = {
  ll_resource : int;
  ll_name : string;
  ll_bytes : float;
  ll_time : float;
}

type tb_load = {
  tl_gpu : int;
  tl_tb : int;
  tl_cost : float;
}

type t = {
  size_bytes : int;
  chunk_bytes : float;
  bound : bound;
  span : float;
  span_bw : float;
  congestion : float;
  estimate : float;
  bw_efficiency : float;
  time_efficiency : float;
  link_loads : link_load list;
  tb_loads : tb_load list;
}

let ceil_log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  if n <= 1 then 0 else go 0 1

(* ------------------------------------------------------------------ *)
(* Per-step α–β–γ costs                                                *)
(* ------------------------------------------------------------------ *)

(* The full modelled cost of one step on its thread block: instruction
   overhead, plus the wire time of a send (α scaled by the protocol, β
   from the route's bottleneck hop divided by protocol efficiency), plus
   γ per reduced byte and local-bandwidth time for pure local moves.
   Receiver-side FIFO copies are deliberately excluded: they are a
   protocol implementation detail that the lower bound cannot see either,
   so including them would make every algorithm look inefficient instead
   of distinguishing good schedules from bad ones. [wire] is the block's
   send route's (bandwidth, α), looked up once per block. *)
let step_cost ~beta_only topo proto chunk_bytes (tb : Ir.tb) wire
    (st : Ir.step) =
  let bytes = float_of_int st.Ir.count *. chunk_bytes in
  let cost = ref (if beta_only then 0. else Topology.instr_overhead topo) in
  if Instr.sends st.Ir.op && tb.Ir.send >= 0 then begin
    match Lazy.force wire with
    | None -> ()
    | Some (bw, alpha) ->
        cost := !cost +. (bytes /. (Protocol.efficiency proto *. bw));
        if not beta_only then
          cost := !cost +. (alpha *. Protocol.alpha_scale proto)
  end;
  (match st.Ir.op with
  | Instr.Copy -> cost := !cost +. (bytes /. Topology.local_bandwidth topo)
  | Instr.Reduce ->
      cost := !cost +. (bytes /. Topology.local_bandwidth topo);
      if not beta_only then
        cost := !cost +. (Topology.reduce_gamma topo *. bytes)
  | Instr.Recv_reduce_copy | Instr.Recv_reduce_send
  | Instr.Recv_reduce_copy_send ->
      if not beta_only then
        cost := !cost +. (Topology.reduce_gamma topo *. bytes)
  | Instr.Send | Instr.Recv | Instr.Recv_copy_send | Instr.Nop -> ());
  !cost

(* ------------------------------------------------------------------ *)
(* Communication demand: how many bytes must cross each cut            *)
(* ------------------------------------------------------------------ *)

type demand = {
  d_rank_out : float array;
  d_rank_in : float array;
  d_node_out : float array;
  d_node_in : float array;
}

(* Generic demand from the postcondition alone, for collectives without
   built-in reductions (and as a sound approximation for Custom ones):
   for every cut, count the DISTINCT projections of required output
   values onto the far side. Each distinct projection is a chunk's worth
   of data that must cross the cut at least once — identical projections
   can share one transfer (a broadcastable value), and under reduction a
   projection can cross pre-reduced as a single chunk, so distinctness is
   exactly the right notion for a lower bound. *)
let generic_demand topo (coll : Collective.t) ~chunk_bytes =
  let p = coll.Collective.num_ranks in
  let nn = Topology.num_nodes topo in
  let node_of = Topology.node_of topo in
  let rank_out = Array.init p (fun _ -> Hashtbl.create 16) in
  let rank_in = Array.init p (fun _ -> Hashtbl.create 16) in
  let node_out = Array.init nn (fun _ -> Hashtbl.create 16) in
  let node_in = Array.init nn (fun _ -> Hashtbl.create 16) in
  let outputs = Collective.output_chunks coll in
  for q = 0 to p - 1 do
    for j = 0 to outputs - 1 do
      match Collective.postcondition coll ~rank:q ~index:j with
      | None -> ()
      | Some ch -> (
          match Chunk.inputs ch with
          | None -> ()
          | Some inputs ->
              for r = 0 to p - 1 do
                if r <> q then begin
                  let proj = List.filter (fun (sr, _) -> sr = r) inputs in
                  if proj <> [] then Hashtbl.replace rank_out.(r) proj ()
                end
              done;
              let remote = List.filter (fun (sr, _) -> sr <> q) inputs in
              if remote <> [] then Hashtbl.replace rank_in.(q) remote ();
              if nn > 1 then begin
                let qn = node_of q in
                for n = 0 to nn - 1 do
                  if n <> qn then begin
                    let proj =
                      List.filter (fun (sr, _) -> node_of sr = n) inputs
                    in
                    if proj <> [] then Hashtbl.replace node_out.(n) proj ()
                  end
                done;
                let rem_n =
                  List.filter (fun (sr, _) -> node_of sr <> qn) inputs
                in
                if rem_n <> [] then Hashtbl.replace node_in.(qn) rem_n ()
              end)
    done
  done;
  let count tbl = float_of_int (Hashtbl.length tbl) *. chunk_bytes in
  {
    d_rank_out = Array.map count rank_out;
    d_rank_in = Array.map count rank_in;
    d_node_out = Array.map count node_out;
    d_node_in = Array.map count node_in;
  }

(* Closed forms for the reducing collectives, where distinct-projection
   counting is sound but loose (it does not see that a rank must both
   contribute partials and receive results). [cc] is one rank's data in
   bytes (chunk_factor × chunk_bytes). *)
let demand_of topo (coll : Collective.t) ~chunk_bytes =
  let p = Topology.num_ranks topo in
  let nn = Topology.num_nodes topo in
  let g = Topology.gpus_per_node topo in
  let node_of = Topology.node_of topo in
  let cc = float_of_int coll.Collective.chunk_factor *. chunk_bytes in
  let fp = float_of_int p and fnn = float_of_int nn in
  let const_demand ro ri no ni =
    {
      d_rank_out = Array.make p ro;
      d_rank_in = Array.make p ri;
      d_node_out = Array.make nn no;
      d_node_in = Array.make nn ni;
    }
  in
  match coll.Collective.kind with
  | Collective.Allreduce ->
      let f = 2. *. (fp -. 1.) /. fp *. cc in
      let fn = if nn > 1 then 2. *. (fnn -. 1.) /. fnn *. cc else 0. in
      const_demand f f fn fn
  | Collective.Reduce_scatter ->
      let out = (fp -. 1.) *. cc in
      let node_out = if nn > 1 then float_of_int (p - g) *. cc else 0. in
      let node_in = if nn > 1 then float_of_int g *. cc else 0. in
      const_demand out cc node_out node_in
  | Collective.Reduce root ->
      let d = const_demand 0. 0. 0. 0. in
      for r = 0 to p - 1 do
        if r <> root then d.d_rank_out.(r) <- cc
      done;
      d.d_rank_in.(root) <- cc;
      if nn > 1 then begin
        for n = 0 to nn - 1 do
          if n <> node_of root then d.d_node_out.(n) <- cc
        done;
        d.d_node_in.(node_of root) <- cc
      end;
      d
  | Collective.Allgather | Collective.Alltoall | Collective.Alltonext
  | Collective.Broadcast _ | Collective.Gather _ | Collective.Scatter _
  | Collective.Custom _ ->
      generic_demand topo coll ~chunk_bytes

(* ------------------------------------------------------------------ *)
(* Cut capacities                                                      *)
(* ------------------------------------------------------------------ *)

(* Every byte leaving a set of ranks crosses the FIRST hop of some route
   out of the set (dually, arriving bytes cross a LAST hop), so the sum
   of the distinct first-hop capacities upper-bounds the cut's egress
   rate. Sharing with traffic outside the cut only makes this optimistic,
   which keeps the resulting time bound a true lower bound.

   One walk over the routes fills every per-rank and per-node cut, plus
   the two minimum alphas the latency bound needs. Each cut's table sees
   its routes in rank order, so its distinct hops are summed in the same
   order as a walk over that cut alone would sum them. *)
type cuts = {
  c_rank_out : float array;
  c_rank_in : float array;
  c_node_out : float array;
  c_node_in : float array;
  c_min_alpha : float option;
  c_min_alpha_cross : float option;
}

type cut = { seen : (int, unit) Hashtbl.t; mutable unbounded : bool }

let cuts topo =
  let p = Topology.num_ranks topo in
  let nn = Topology.num_nodes topo in
  let node_of = Topology.node_of topo in
  let fresh n =
    Array.init n (fun _ -> { seen = Hashtbl.create 8; unbounded = false })
  in
  let rank_out = fresh p and rank_in = fresh p in
  let node_out = fresh nn and node_in = fresh nn in
  let add cut = function
    | None -> cut.unbounded <- true
    | Some h -> Hashtbl.replace cut.seen h ()
  in
  let rec last_hop = function
    | [] -> None
    | [ h ] -> Some h
    | _ :: t -> last_hop t
  in
  let min_opt acc a =
    Some (match acc with None -> a | Some m -> Float.min m a)
  in
  let min_all, min_cross =
    Topology.fold_routes topo
      (fun (min_all, min_cross) ~src ~dst rt ->
        let hops = rt.Topology.hops in
        let first = match hops with [] -> None | h :: _ -> Some h in
        let last = last_hop hops in
        add rank_out.(src) first;
        add rank_in.(dst) last;
        let ns = node_of src and nd = node_of dst in
        let a = rt.Topology.base_alpha in
        if ns <> nd then begin
          add node_out.(ns) first;
          add node_in.(nd) last;
          (min_opt min_all a, min_opt min_cross a)
        end
        else (min_opt min_all a, min_cross))
      (None, None)
  in
  let capacity cut =
    if cut.unbounded then infinity
    else
      Hashtbl.fold
        (fun h () acc -> acc +. Topology.resource_capacity topo h)
        cut.seen 0.
  in
  {
    c_rank_out = Array.map capacity rank_out;
    c_rank_in = Array.map capacity rank_in;
    c_node_out = Array.map capacity node_out;
    c_node_in = Array.map capacity node_in;
    c_min_alpha = min_all;
    c_min_alpha_cross = min_cross;
  }

let bandwidth_bound topo c (d : demand) =
  let worst = ref 0. in
  let consider demand cap =
    if demand > 0. then begin
      let t = demand /. cap in
      if t > !worst then worst := t
    end
  in
  let p = Topology.num_ranks topo in
  for r = 0 to p - 1 do
    consider d.d_rank_out.(r) c.c_rank_out.(r);
    consider d.d_rank_in.(r) c.c_rank_in.(r)
  done;
  let nn = Topology.num_nodes topo in
  if nn > 1 then
    for n = 0 to nn - 1 do
      consider d.d_node_out.(n) c.c_node_out.(n);
      consider d.d_node_in.(n) c.c_node_in.(n)
    done;
  !worst

let latency_bound topo c (coll : Collective.t) proto (d : demand) =
  let p = Topology.num_ranks topo in
  let scale = Protocol.alpha_scale proto in
  let rounds =
    match coll.Collective.kind with
    (* The log-round dissemination argument only forces sequential
       transfers when a single value must reach (or aggregate from) all
       p ranks. Alltoall, scatter and gather route every chunk from one
       source to one destination, so nothing forces more than one
       transfer in sequence — with enough links the p-1 messages all
       overlap, and a direct implementation really does finish in one
       α round (the registry sweep in the tests checks the simulator
       against this bound). *)
    | Collective.Alltonext | Collective.Custom _ | Collective.Alltoall
    | Collective.Gather _ | Collective.Scatter _ ->
        1
    | Collective.Allreduce | Collective.Allgather | Collective.Reduce_scatter
    | Collective.Broadcast _ | Collective.Reduce _ ->
        ceil_log2 p
  in
  let by_rounds =
    match c.c_min_alpha with
    | None -> 0.
    | Some a -> float_of_int rounds *. a *. scale
  in
  let crosses_nodes =
    Array.exists (fun x -> x > 0.) d.d_node_out
    || Array.exists (fun x -> x > 0.) d.d_node_in
  in
  let by_diameter =
    if crosses_nodes then
      match c.c_min_alpha_cross with
      | Some a -> a *. scale
      | None -> 0.
    else 0.
  in
  Float.max by_rounds by_diameter

let compute_bound topo (coll : Collective.t) ~chunk_bytes =
  match coll.Collective.kind with
  | Collective.Allreduce | Collective.Reduce_scatter | Collective.Reduce _ ->
      let p = float_of_int (Topology.num_ranks topo) in
      let in_bytes =
        float_of_int (Collective.input_chunks coll) *. chunk_bytes
      in
      (p -. 1.) /. p *. in_bytes *. Topology.reduce_gamma topo
  | Collective.Allgather | Collective.Alltoall | Collective.Alltonext
  | Collective.Broadcast _ | Collective.Gather _ | Collective.Scatter _
  | Collective.Custom _ ->
      0.

(* ------------------------------------------------------------------ *)
(* The report                                                          *)
(* ------------------------------------------------------------------ *)

let chunk_bytes_of ~size_bytes (ir : Ir.t) =
  float_of_int size_bytes
  /. float_of_int (Collective.input_buffer_size ir.Ir.collective)

let bound ~cuts ~topo ~size_bytes (ir : Ir.t) =
  let chunk_bytes = chunk_bytes_of ~size_bytes ir in
  let coll = ir.Ir.collective in
  let d = demand_of topo coll ~chunk_bytes in
  {
    lb_latency = latency_bound topo cuts coll ir.Ir.proto d;
    lb_bandwidth = bandwidth_bound topo cuts d;
    lb_compute = compute_bound topo coll ~chunk_bytes;
  }

let default_size_bytes = 1 lsl 20

let analyze ~topo ?(size_bytes = default_size_bytes) (ir : Ir.t) =
  if Topology.num_ranks topo <> Ir.num_ranks ir then
    invalid_arg
      (Printf.sprintf "Perfcheck: IR %s has %d rank(s) but topology %s has %d"
         ir.Ir.name (Ir.num_ranks ir) (Topology.name topo)
         (Topology.num_ranks topo));
  if size_bytes <= 0 then invalid_arg "Perfcheck: size_bytes must be positive";
  let proto = ir.Ir.proto in
  let chunk_bytes = chunk_bytes_of ~size_bytes ir in
  (* Weighted critical paths over the happens-before graph (data-flow
     edges only, like Analysis.critical_path, but in seconds). *)
  let hb = Hbgraph.build ir in
  let n = Hbgraph.num_nodes hb in
  let w_full = Array.make n 0. in
  let w_bw = Array.make n 0. in
  (* Per-thread-block work, indexed like [ir.gpus] and their [tbs]. *)
  let tb_cost =
    Array.map
      (fun (g : Ir.gpu) -> Array.make (Array.length g.Ir.tbs) 0.)
      ir.Ir.gpus
  in
  Array.iteri
    (fun gi (g : Ir.gpu) ->
      Array.iteri
        (fun ti (tb : Ir.tb) ->
          let wire =
            lazy
              (if tb.Ir.send = g.Ir.gpu_id then None
               else
                 let src = g.Ir.gpu_id and dst = tb.Ir.send in
                 Some
                   ( Topology.route_bandwidth topo ~src ~dst,
                     Topology.route_alpha topo ~src ~dst ))
          in
          Array.iter
            (fun (st : Ir.step) ->
              let id =
                Hbgraph.node hb ~gpu:g.Ir.gpu_id ~tb:tb.Ir.tb_id ~step:st.Ir.s
              in
              let cost beta_only =
                step_cost ~beta_only topo proto chunk_bytes tb wire st
              in
              let full = cost false in
              w_full.(id) <- full;
              w_bw.(id) <- cost true;
              tb_cost.(gi).(ti) <- full +. tb_cost.(gi).(ti))
            tb.Ir.steps)
        g.Ir.tbs)
    ir.Ir.gpus;
  let span = Hbgraph.weighted_longest_path hb ~weight:(fun i -> w_full.(i)) in
  let span_bw = Hbgraph.weighted_longest_path hb ~weight:(fun i -> w_bw.(i)) in
  (* Per-resource congestion: every connection's traffic folded through
     its route's hops. Transfer time on a shared resource is at least the
     total wire bytes crossing it over its capacity, whatever the
     schedule. *)
  let resources = Topology.resources topo in
  let res_bytes = Array.make (Array.length resources) 0. in
  List.iter
    (fun (c : Analysis.connection) ->
      if c.Analysis.conn_src <> c.Analysis.conn_dst then begin
        let rt =
          Topology.route topo ~src:c.Analysis.conn_src
            ~dst:c.Analysis.conn_dst
        in
        let wire =
          float_of_int c.Analysis.conn_chunks *. chunk_bytes
          /. Protocol.efficiency proto
        in
        List.iter
          (fun h -> res_bytes.(h) <- res_bytes.(h) +. wire)
          rt.Topology.hops
      end)
    (Analysis.connections ir);
  let link_loads =
    Array.to_list
      (Array.mapi
         (fun rid bytes ->
           {
             ll_resource = rid;
             ll_name = resources.(rid).Topology.rname;
             ll_bytes = bytes;
             ll_time = bytes /. Topology.resource_capacity topo rid;
           })
         res_bytes)
    |> List.filter (fun l -> l.ll_bytes > 0.)
    |> List.sort (fun a b ->
           match Float.compare b.ll_time a.ll_time with
           | 0 -> Int.compare a.ll_resource b.ll_resource
           | c -> c)
  in
  let congestion =
    List.fold_left (fun m l -> Float.max m l.ll_time) 0. link_loads
  in
  let tb_loads =
    Array.to_list ir.Ir.gpus
    |> List.mapi (fun gi (g : Ir.gpu) ->
           Array.to_list
             (Array.mapi
                (fun ti (tb : Ir.tb) ->
                  {
                    tl_gpu = g.Ir.gpu_id;
                    tl_tb = tb.Ir.tb_id;
                    tl_cost = tb_cost.(gi).(ti);
                  })
                g.Ir.tbs))
    |> List.concat
    |> List.sort (fun a b ->
           match Float.compare b.tl_cost a.tl_cost with
           | 0 -> (
               match Int.compare a.tl_gpu b.tl_gpu with
               | 0 -> Int.compare a.tl_tb b.tl_tb
               | c -> c)
           | c -> c)
  in
  let bound = bound ~cuts:(cuts topo) ~topo ~size_bytes ir in
  let estimate = Float.max span congestion in
  let bw_denom = Float.max span_bw congestion in
  let bw_efficiency =
    if bw_denom <= 0. then 1. else bound.lb_bandwidth /. bw_denom
  in
  let time_efficiency =
    if estimate <= 0. then 1. else lb_total bound /. estimate
  in
  {
    size_bytes;
    chunk_bytes;
    bound;
    span;
    span_bw;
    congestion;
    estimate;
    bw_efficiency;
    time_efficiency;
    link_loads;
    tb_loads;
  }

(* ------------------------------------------------------------------ *)
(* Perf lint rules                                                     *)
(* ------------------------------------------------------------------ *)

(* Bandwidth efficiency below which [below-bandwidth-optimal] fires. *)
let bw_threshold = 0.5

(* Ratios to the mean at which [link-hotspot] and [tb-imbalance] fire. *)
let hotspot_factor = 2.0

let imbalance_factor = 2.0

let check_bandwidth (r : t) =
  if r.bw_efficiency < bw_threshold then
    [
      Lint.diag "below-bandwidth-optimal"
        "bandwidth efficiency %.2f is below %.2f: the α–β–γ lower bound \
         needs %.1f µs of wire time but the schedule's bandwidth-critical \
         path takes %.1f µs"
        r.bw_efficiency bw_threshold
        (r.bound.lb_bandwidth *. 1e6)
        (Float.max r.span_bw r.congestion *. 1e6);
    ]
  else []

let check_hotspots (r : t) =
  match r.link_loads with
  | [] | [ _ ] -> []
  | loaded ->
      let mean =
        List.fold_left (fun s l -> s +. l.ll_time) 0. loaded
        /. float_of_int (List.length loaded)
      in
      if mean <= 0. then []
      else
        List.filter_map
          (fun l ->
            if l.ll_time >= hotspot_factor *. mean then
              Some
                (Lint.diag "link-hotspot"
                   "resource %s carries %.0f wire bytes (%.1f µs), %.1fx \
                    the mean over loaded links; the schedule serializes on \
                    this wire"
                   l.ll_name l.ll_bytes (l.ll_time *. 1e6)
                   (l.ll_time /. mean))
            else None)
          loaded

let check_tb_imbalance (r : t) =
  match r.tb_loads with
  | [] | [ _ ] -> []
  | loads ->
      let mean =
        List.fold_left (fun s l -> s +. l.tl_cost) 0. loads
        /. float_of_int (List.length loads)
      in
      if mean <= 0. then []
      else
        List.filter_map
          (fun l ->
            if l.tl_cost >= imbalance_factor *. mean then
              Some
                (Lint.diag "tb-imbalance"
                   "gpu %d tb %d does %.1f µs of modelled work, %.1fx the \
                    mean %.1f µs across thread blocks; this straggler \
                    bounds the kernel's finish time"
                   l.tl_gpu l.tl_tb (l.tl_cost *. 1e6) (l.tl_cost /. mean)
                   (mean *. 1e6))
            else None)
          loads

(* Redundancy, via the symbolic executor: observe every delivery and flag
   pure-copy receives whose entire payload is already present, chunk for
   chunk, somewhere in the destination rank's buffers. Checked at
   delivery (not send) time so the deterministic round-robin order cannot
   flag a send whose payload only becomes redundant later. Reducing
   receives are exempt: delivering an already-held value into a reduction
   changes the result. *)
let check_redundant_sends (ir : Ir.t) =
  let out = ref [] in
  let on_deliver st ~src ~dst ~op ~payload =
    match op with
    | Instr.Recv | Instr.Recv_copy_send ->
        let drank, _, _ = dst in
        let held c =
          let scan arr =
            Array.exists
              (function Some c' -> Chunk.equal c c' | None -> false)
              arr
          in
          scan (Executor.Symbolic.input st ~rank:drank)
          || scan (Executor.Symbolic.output st ~rank:drank)
          || scan (Executor.Symbolic.scratch st ~rank:drank)
        in
        if Array.length payload > 0 && Array.for_all held payload then begin
          let sg, stb, ss = src in
          out :=
            Lint.diag
              ~at:{ Lint.at_gpu = sg; at_tb = stb; at_step = ss }
              "redundant-send"
              "sends %d chunk(s) to rank %d which already holds every one \
               of them (e.g. %s): pure wasted wire time"
              (Array.length payload) drank
              (Chunk.to_string payload.(0))
            :: !out
        end
    | Instr.Send | Instr.Copy | Instr.Reduce | Instr.Recv_reduce_copy
    | Instr.Recv_reduce_send | Instr.Recv_reduce_copy_send | Instr.Nop ->
        ()
  in
  (try ignore (Executor.Symbolic.run_collective ~on_deliver ir) with
  | Executor.Exec_error _ | Chunk.Uninitialized_data ->
      (* Broken IR is the correctness rules' business; report whatever
         deliveries we observed before the failure. *)
      ());
  !out

(* A receive lands in scratch and the very next step of the same thread
   block forwards exactly that interval, which nothing else reads: a
   fused opcode (recv_copy_send / recv_reduce_send, or receiving straight
   into the final location) would skip the round-trip. *)
let check_missed_fusion (ir : Ir.t) =
  let out = ref [] in
  Array.iter
    (fun (g : Ir.gpu) ->
      let scratch_reads = ref [] in
      Array.iter
        (fun (tb : Ir.tb) ->
          Array.iter
            (fun (st : Ir.step) ->
              List.iter
                (fun (w, (l : Loc.t)) ->
                  if
                    (not w) && Buffer_id.equal l.Loc.buf Buffer_id.Scratch
                  then
                    scratch_reads :=
                      (tb.Ir.tb_id, st.Ir.s, l.Loc.index, l.Loc.count)
                      :: !scratch_reads)
                (Races.footprint ir st))
            tb.Ir.steps)
        g.Ir.tbs;
      Array.iter
        (fun (tb : Ir.tb) ->
          Array.iteri
            (fun k (st : Ir.step) ->
              if k + 1 < Array.length tb.Ir.steps then
                let next = tb.Ir.steps.(k + 1) in
                match (st.Ir.op, st.Ir.dst, next.Ir.op, next.Ir.src) with
                | ( (Instr.Recv | Instr.Recv_reduce_copy),
                    Some d,
                    (Instr.Send | Instr.Copy),
                    Some s )
                  when Buffer_id.equal d.Loc.buf Buffer_id.Scratch
                       && Buffer_id.equal s.Loc.buf Buffer_id.Scratch
                       && d.Loc.index = s.Loc.index
                       && d.Loc.count = s.Loc.count ->
                    let other_reader =
                      List.exists
                        (fun (rtb, rs, idx, cnt) ->
                          (not (rtb = tb.Ir.tb_id && rs = next.Ir.s))
                          && idx < d.Loc.index + d.Loc.count
                          && d.Loc.index < idx + cnt)
                        !scratch_reads
                    in
                    if not other_reader then begin
                      let fused =
                        match (st.Ir.op, next.Ir.op) with
                        | Instr.Recv, Instr.Send -> "recv_copy_send"
                        | Instr.Recv_reduce_copy, Instr.Send ->
                            "recv_reduce_send"
                        | _, _ -> "receiving straight into the destination"
                      in
                      out :=
                        Lint.diag
                          ~at:
                            {
                              Lint.at_gpu = g.Ir.gpu_id;
                              at_tb = tb.Ir.tb_id;
                              at_step = k;
                            }
                          "missed-fusion"
                          "scratch[%d..%d] only round-trips between this \
                           %s and the next step's %s; %s would eliminate \
                           the scratch bounce"
                          d.Loc.index
                          (d.Loc.index + d.Loc.count - 1)
                          (Instr.opcode_name st.Ir.op)
                          (Instr.opcode_name next.Ir.op) fused
                        :: !out
                    end
                | _ -> ())
            tb.Ir.steps)
        g.Ir.tbs)
    ir.Ir.gpus;
  !out

let lint ~topo ?size_bytes (ir : Ir.t) =
  let r = analyze ~topo ?size_bytes ir in
  let diags =
    List.concat
      [
        check_bandwidth r;
        check_hotspots r;
        check_tb_imbalance r;
        check_redundant_sends ir;
        check_missed_fusion ir;
      ]
    |> List.sort Lint.compare_diag
  in
  (r, diags)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let us v = v *. 1e6

let pp fmt r =
  Format.fprintf fmt
    "@[<v>perf: %d bytes (%.0f per chunk)@,\
     lower bound: %.2f µs latency + %.2f µs bandwidth + %.2f µs compute = \
     %.2f µs@,\
     critical path: %.2f µs (bandwidth-only %.2f µs); congestion: %.2f µs@,\
     estimated completion: %.2f µs@,\
     bandwidth efficiency: %.3f; time efficiency: %.3f@,"
    r.size_bytes r.chunk_bytes (us r.bound.lb_latency)
    (us r.bound.lb_bandwidth) (us r.bound.lb_compute)
    (us (lb_total r.bound))
    (us r.span) (us r.span_bw) (us r.congestion) (us r.estimate)
    r.bw_efficiency r.time_efficiency;
  (match r.link_loads with
  | [] -> Format.fprintf fmt "loaded resources: none@,"
  | loads ->
      let show = List.filteri (fun i _ -> i < 3) loads in
      Format.fprintf fmt "loaded resources: %d; busiest:@," (List.length loads);
      List.iter
        (fun l ->
          Format.fprintf fmt "  %s: %.0f wire bytes (%.2f µs)@," l.ll_name
            l.ll_bytes (us l.ll_time))
        show);
  match r.tb_loads with
  | [] -> Format.fprintf fmt "thread-block load: none@]"
  | busiest :: _ as loads ->
      let mean =
        List.fold_left (fun s l -> s +. l.tl_cost) 0. loads
        /. float_of_int (List.length loads)
      in
      Format.fprintf fmt
        "thread-block load: max %.2f µs (gpu %d tb %d), mean %.2f µs@]"
        (us busiest.tl_cost) busiest.tl_gpu busiest.tl_tb (us mean)

let fnum v =
  if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

let report_json r =
  let links =
    List.map
      (fun l ->
        Printf.sprintf
          "{\"resource\":%d,\"name\":\"%s\",\"bytes\":%s,\"seconds\":%s}"
          l.ll_resource (Lint.json_escape l.ll_name) (fnum l.ll_bytes)
          (fnum l.ll_time))
      r.link_loads
  in
  let tbs =
    List.map
      (fun l ->
        Printf.sprintf "{\"gpu\":%d,\"tb\":%d,\"seconds\":%s}" l.tl_gpu
          l.tl_tb (fnum l.tl_cost))
      r.tb_loads
  in
  Printf.sprintf
    "{\"size_bytes\":%d,\"chunk_bytes\":%s,\"lb_latency\":%s,\
     \"lb_bandwidth\":%s,\"lb_compute\":%s,\"lb_total\":%s,\"span\":%s,\
     \"span_bw\":%s,\"congestion\":%s,\"estimate\":%s,\
     \"bw_efficiency\":%s,\"time_efficiency\":%s,\"links\":[%s],\
     \"tb_loads\":[%s]}"
    r.size_bytes (fnum r.chunk_bytes) (fnum r.bound.lb_latency)
    (fnum r.bound.lb_bandwidth) (fnum r.bound.lb_compute)
    (fnum (lb_total r.bound))
    (fnum r.span) (fnum r.span_bw) (fnum r.congestion) (fnum r.estimate)
    (fnum r.bw_efficiency) (fnum r.time_efficiency)
    (String.concat "," links) (String.concat "," tbs)

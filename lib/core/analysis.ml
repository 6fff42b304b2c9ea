type connection = {
  conn_src : int;
  conn_dst : int;
  conn_chan : int;
  conn_messages : int;
  conn_chunks : int;
}

type link = {
  link_src : int;
  link_dst : int;
  link_channels : int;
  link_messages : int;
  link_chunks : int;
}

type t = {
  ranks : int;
  total_steps : int;
  total_thread_blocks : int;
  channels : int;
  critical_path : int;
  max_steps_per_tb : int;
  avg_steps_per_tb : float;
  fused_steps : int;
  reduction_steps : int;
  local_steps : int;
  connections : connection list;
  max_chunks_per_connection : int;
  links : link list;
  max_chunks_per_link : int;
  scratch_chunks_total : int;
}

(* Longest path over the same waiting graph the deadlock checker uses,
   minus the FIFO back-pressure edges (which bound buffering, not data
   flow). *)
let critical_path_of (ir : Ir.t) = Hbgraph.longest_path (Hbgraph.build ir)

(* A view of the connection index: the connections that carry sends, in
   id (src, dst, channel) order. *)
let sending_connections (ir : Ir.t) =
  let idx = Ir.index ir in
  let chunks = Array.make idx.Ir.conns 0 and b = ref 0 in
  Array.iter
    (fun (g : Ir.gpu) ->
      Array.iter
        (fun (tb : Ir.tb) ->
          let c = idx.Ir.block_send.(!b) in
          incr b;
          Array.iter
            (fun (st : Ir.step) ->
              if Instr.sends st.Ir.op then chunks.(c) <- chunks.(c) + st.Ir.count)
            tb.Ir.steps)
        g.Ir.tbs)
    ir.Ir.gpus;
  List.init idx.Ir.conns Fun.id
  |> List.filter (fun c -> idx.Ir.conn_sends.(c) > 0)
  |> List.map (fun c ->
         {
           conn_src = idx.Ir.conn_src.(c);
           conn_dst = idx.Ir.conn_dst.(c);
           conn_chan = idx.Ir.conn_chan.(c);
           conn_messages = idx.Ir.conn_sends.(c);
           conn_chunks = chunks.(c);
         })

(* Busiest first; a stable sort keeps ties in their given order. *)
let by_volume chunks l =
  List.stable_sort (fun a b -> Int.compare (chunks b) (chunks a)) l

let connections ir =
  by_volume (fun c -> c.conn_chunks) (sending_connections ir)

let analyze (ir : Ir.t) =
  let fused = ref 0 and reductions = ref 0 and locals = ref 0 in
  Ir.iter_steps ir (fun _ _ st ->
      (match st.Ir.op with
      | Instr.Recv_copy_send | Instr.Recv_reduce_send
      | Instr.Recv_reduce_copy_send ->
          incr fused
      | Instr.Send | Instr.Recv | Instr.Copy | Instr.Reduce
      | Instr.Recv_reduce_copy | Instr.Nop ->
          ());
      (match st.Ir.op with
      | Instr.Reduce | Instr.Recv_reduce_copy | Instr.Recv_reduce_send
      | Instr.Recv_reduce_copy_send ->
          incr reductions
      | Instr.Send | Instr.Recv | Instr.Copy | Instr.Recv_copy_send
      | Instr.Nop ->
          ());
      (match st.Ir.op with
      | Instr.Copy | Instr.Reduce -> incr locals
      | Instr.Send | Instr.Recv | Instr.Recv_reduce_copy
      | Instr.Recv_copy_send | Instr.Recv_reduce_send
      | Instr.Recv_reduce_copy_send | Instr.Nop ->
          ());
      ());
  let in_order = sending_connections ir in
  let connections = by_volume (fun c -> c.conn_chunks) in_order in
  (* The same traffic aggregated per physical (src, dst) link: many
     channels between one pair of ranks share the same wires, so
     channel-level counts alone hide link hotspots. A link's channels
     are adjacent in id order. *)
  let links =
    List.fold_left
      (fun acc c ->
        match acc with
        | l :: rest when l.link_src = c.conn_src && l.link_dst = c.conn_dst ->
            {
              l with
              link_channels = l.link_channels + 1;
              link_messages = l.link_messages + c.conn_messages;
              link_chunks = l.link_chunks + c.conn_chunks;
            }
            :: rest
        | _ ->
            {
              link_src = c.conn_src;
              link_dst = c.conn_dst;
              link_channels = 1;
              link_messages = c.conn_messages;
              link_chunks = c.conn_chunks;
            }
            :: acc)
      [] in_order
    |> List.rev
    |> by_volume (fun l -> l.link_chunks)
  in
  let tbs = Ir.num_thread_blocks ir in
  let steps = Ir.num_steps ir in
  let max_steps =
    Array.fold_left
      (fun m (g : Ir.gpu) ->
        Array.fold_left (fun m tb -> max m (Array.length tb.Ir.steps)) m g.Ir.tbs)
      0 ir.Ir.gpus
  in
  {
    ranks = Ir.num_ranks ir;
    total_steps = steps;
    total_thread_blocks = tbs;
    channels = Ir.num_channels ir;
    critical_path = critical_path_of ir;
    max_steps_per_tb = max_steps;
    avg_steps_per_tb =
      (if tbs = 0 then 0. else float_of_int steps /. float_of_int tbs);
    fused_steps = !fused;
    reduction_steps = !reductions;
    local_steps = !locals;
    connections;
    max_chunks_per_connection =
      List.fold_left (fun m c -> max m c.conn_chunks) 0 connections;
    links;
    max_chunks_per_link =
      List.fold_left (fun m l -> max m l.link_chunks) 0 links;
    scratch_chunks_total =
      Array.fold_left (fun acc g -> acc + g.Ir.scratch_chunks) 0 ir.Ir.gpus;
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>%d rank(s), %d thread block(s), %d step(s), %d channel(s)@,\
     critical path: %d step(s)@,\
     steps per thread block: max %d, avg %.1f@,\
     fused: %d, reductions: %d, local: %d@,\
     connections: %d (busiest carries %d chunk(s))@,"
    t.ranks t.total_thread_blocks t.total_steps t.channels t.critical_path
    t.max_steps_per_tb t.avg_steps_per_tb t.fused_steps t.reduction_steps
    t.local_steps
    (List.length t.connections)
    t.max_chunks_per_connection;
  (match t.links with
  | [] -> Format.fprintf fmt "links: none@,"
  | busiest :: _ ->
      Format.fprintf fmt
        "links: %d physical (busiest %d->%d carries %d chunk(s) over %d \
         channel(s))@,"
        (List.length t.links) busiest.link_src busiest.link_dst
        busiest.link_chunks busiest.link_channels);
  Format.fprintf fmt "scratch: %d chunk(s) total@]" t.scratch_chunks_total

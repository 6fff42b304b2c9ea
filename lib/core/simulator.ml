module T = Msccl_topology
module Plan = Msccl_faults.Plan

exception Sim_error of string

let error fmt = Format.kasprintf (fun s -> raise (Sim_error s)) fmt

(* Shared error/diagnosis context, same shape as Executor errors carry
   since PR 3: which rank, thread block, step and opcode. *)
type ctx = { cx_rank : int; cx_tb : int; cx_step : int; cx_op : string }

let ctx_string c =
  Printf.sprintf "rank %d tb %d step %d (%s)" c.cx_rank c.cx_tb c.cx_step
    c.cx_op

type wait =
  | On_semaphore of { sem_tb : int; sem_step : int; threshold : int }
  | On_fifo_slot of { peer : int; chan : int }
  | On_arrival of { peer : int; chan : int }
  | On_transfer of { peer : int; chan : int }

let wait_string = function
  | On_semaphore { sem_tb; sem_step; threshold } ->
      Printf.sprintf "waiting on semaphore of tb %d step %d (threshold %d)"
        sem_tb sem_step threshold
  | On_fifo_slot { peer; chan } ->
      Printf.sprintf "waiting for a FIFO slot to rank %d ch%d (all slots full)"
        peer chan
  | On_arrival { peer; chan } ->
      Printf.sprintf "waiting for data from rank %d ch%d" peer chan
  | On_transfer { peer; chan } ->
      Printf.sprintf "transfer to rank %d ch%d stalled in flight" peer chan

type blocked = { b_ctx : ctx; b_tile : int; b_wait : wait; b_since : float }

type hang = {
  h_time : float;
  h_last_progress : float;
  h_finished_tbs : int;
  h_total_tbs : int;
  h_blocked : blocked list;
  h_cycle : blocked list option;
}

exception Hang of hang

let hang_message h =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "hang: no instruction retired since t=%.9gs (now t=%.9gs; %d of %d \
        thread blocks finished); blocked waits:"
       h.h_last_progress h.h_time h.h_finished_tbs h.h_total_tbs);
  List.iter
    (fun bl ->
      Buffer.add_string b
        (Printf.sprintf "\n  %s tile %d: %s since t=%.9gs"
           (ctx_string bl.b_ctx) bl.b_tile (wait_string bl.b_wait) bl.b_since))
    h.h_blocked;
  (match h.h_cycle with
  | None -> ()
  | Some [] -> ()
  | Some (first :: _ as cycle) ->
      Buffer.add_string b "\n  wait-for cycle: ";
      Buffer.add_string b
        (String.concat " -> "
           (List.map
              (fun bl ->
                Printf.sprintf "rank %d tb %d" bl.b_ctx.cx_rank bl.b_ctx.cx_tb)
              (cycle @ [ first ]))));
  Buffer.contents b

let () =
  Printexc.register_printer (function
    | Hang h -> Some ("Simulator.Hang: " ^ hang_message h)
    | _ -> None)

type result = {
  time : float;
  kernel_time : float;
  tiles : int;
  messages : int;
  wire_bytes : float;
  events : int;
}

(* What a thread block is parked on. Its peer and channel are the
   block's own; a semaphore wait keeps its dependency in the block's
   [ts_sem_*] fields. *)
type parked = Not_parked | Sem | Fifo_slot | Arrival | Transfer

(* A thread block's state. Its float fields (span, transfer and park
   start times) live in per-run float arrays indexed by [ts_idx], so
   writing them boxes nothing. *)
type tb_state = {
  ts_idx : int;  (* position in the run's flat thread-block array *)
  ts_rank : int;
  ts_tb : Ir.tb;
  ts_nsteps : int;
  mutable ts_tile : int;
  mutable ts_pc : int;
  mutable ts_completed : int;  (* total steps completed over all tiles *)
  mutable ts_waiters : int;
      (* head of the blocks waiting on this block's semaphore, newest
         first, linked through [ts_next_waiter]; -1 when none. Thresholds
         are always registered above the current semaphore value and the
         semaphore advances by one per completion, so each wakeup takes
         exactly the waiters on the new value. *)
  mutable ts_next_waiter : int;
  mutable ts_finished : bool;
  mutable ts_parked : parked;
      (* what this tb is parked on right now (since [wait_since]) — the
         raw material of the watchdog's hang diagnosis *)
  mutable ts_sem_tb : int;
  mutable ts_sem_step : int;
  mutable ts_sem_threshold : int;
  mutable ts_recv_conn : conn option;
  mutable ts_send_conn : conn option;
      (* a tb's peers and channel are fixed, so each of its connections is
         resolved on first use and kept *)
}

and conn = {
  c_route : T.Topology.route;
  mutable c_in_flight : int;
  mutable c_arrived : int;
  mutable c_recv_waiter : int;  (* tb index, or -1 *)
  mutable c_send_waiter : int;
  c_free_delay : float;  (* injected FIFO-slot stall (faults) *)
  (* InfiniBand sends are staged: the proxy thread serializes the wire
     transfers of one connection (one queue pair), so a later message waits
     for the one in flight even though the thread block already moved on.
     The proxy's messages, the one on the wire first, sit in a ring of
     wire bytes, staging times and sending blocks. Every one holds a FIFO
     slot until it arrives, so the ring never holds more than [slots]. *)
  c_ring_wire : float array;
  c_ring_start : float array;
  c_ring_tb : int array;
  mutable c_ring_head : int;
  mutable c_ring_len : int;
}

(* A thread block's pending continuation is (tb, phase): its step is
   always [steps.(ts_pc)], so the phase alone says where to resume. The
   engine carries it as one int wake, [index lsl 3 lor phase]. *)
let ph_advance = 0  (* launch: start the first step *)
let ph_recv = 1  (* instruction overhead paid: receive *)
let ph_recv_done = 2  (* copied out of the FIFO slot: free it, then send *)
let ph_send = 3  (* α paid: put the message on the wire *)
let ph_complete = 4  (* local work done: retire the step *)
let ph_flow_done = 5  (* the block's own transfer landed *)
let ph_proxy_done = 6  (* a message this block staged left the proxy *)

(* Cohort (quotient) simulation view: only ranks [0, q_stride) are
   simulated; every simulated thread block stands for the [q_width]
   members of its rank's orbit under the joint shift-by-[q_stride]
   symmetry of IR and topology. Connections are canonicalized by orbit
   and link resources are merged into orbit representatives with
   capacities scaled by (orbit size / width), which reproduces the exact
   per-flow rates of the full run (see DESIGN.md). *)
type quot = {
  q_stride : int;  (* representative ranks: 0 .. q_stride-1 *)
  q_width : int;  (* orbit size = num_ranks / q_stride *)
  q_hop : int array;  (* resource id -> orbit-canonical resource id *)
  q_caps : float array;  (* engine capacities, orbit-scaled at canonicals *)
  q_total_tbs : int;  (* full-machine thread blocks (launch overhead) *)
}

let run_impl ~topo ~chunk_bytes ~max_tiles ~check_occupancy ~timeline ~faults
    ~watchdog_s ~(proto : T.Protocol.t) ~(gpus : Ir.gpu array) ~p_full ~quot =
  if Float.is_nan chunk_bytes then error "chunk_bytes is NaN";
  if not (chunk_bytes > 0. && chunk_bytes < infinity) then
    error "chunk_bytes %g must be finite and positive" chunk_bytes;
  if p_full <> T.Topology.num_ranks topo then
    error "IR has %d ranks but topology %s has %d" p_full
      (T.Topology.name topo)
      (T.Topology.num_ranks topo);
  (if check_occupancy then
     let sm = T.Topology.sm_count topo in
     Array.iter
       (fun (g : Ir.gpu) ->
         let n = Array.length g.Ir.tbs in
         if n > sm then
           error
             "rank %d needs %d thread blocks but %s has %d SMs (cooperative \
              launch requires all thread blocks resident)"
             g.Ir.gpu_id n (T.Topology.name topo) sm)
       gpus);
  let resolved = Option.map (fun p -> Plan.resolve ~topo p) faults in
  let watchdog_timeout =
    match watchdog_s with
    | Some t ->
        if (not (Float.is_finite t)) || t <= 0. then
          error "watchdog timeout %g must be finite and positive" t
        else Some t
    | None -> if faults = None then None else Some 1.0
  in
  let slots = T.Protocol.num_slots proto in
  let slot_bytes = float_of_int (T.Protocol.slot_bytes proto) in
  let eff = T.Protocol.efficiency proto in
  let alpha_scale = T.Protocol.alpha_scale proto in
  let ntiles =
    max 1 (min max_tiles (int_of_float (ceil (chunk_bytes /. slot_bytes))))
  in
  let tile_bytes = chunk_bytes /. float_of_int ntiles in
  let capacities =
    match quot with
    | Some q -> q.q_caps
    | None ->
        Array.map
          (fun (r : T.Topology.resource) -> r.T.Topology.capacity)
          (T.Topology.resources topo)
  in
  let eng = Msccl_sim.Engine.create ~capacities in
  let local_bw = T.Topology.local_bandwidth topo in
  let gamma = T.Topology.reduce_gamma topo in
  let instr_overhead = T.Topology.instr_overhead topo in
  (* Per-rank straggler multipliers (identity without a fault plan), in
     float arrays so that reading one boxes nothing. *)
  let alpha_mult, beta_mult, gamma_mult =
    match resolved with
    | None ->
        let ones = Array.make p_full 1.0 in
        (ones, ones, ones)
    | Some rv -> (rv.Plan.r_alpha, rv.Plan.r_beta, rv.Plan.r_gamma)
  in
  (* Connections, keyed by (src, dst, ch). In cohort mode the key is the
     orbit-canonical endpoint pair — the representative sender's sends and
     the representative receiver's receives of the same orbit meet on one
     shared connection, whose FIFO and proxy state tracks any one member
     connection of the full run in lockstep. *)
  let canon ~src ~dst =
    match quot with
    | None -> (src, dst)
    | Some q ->
        let base = src - (src mod q.q_stride) in
        (src - base, (((dst - base) mod p_full) + p_full) mod p_full)
  in
  let conns : (int * int * int, conn) Hashtbl.t = Hashtbl.create 64 in
  let conn_of ~src ~dst ~ch =
    let src, dst = canon ~src ~dst in
    let key = (src, dst, ch) in
    match Hashtbl.find_opt conns key with
    | Some c -> c
    | None ->
        let route =
          let r = T.Topology.route topo ~src ~dst in
          match quot with
          | None -> r
          | Some q ->
              {
                r with
                T.Topology.hops =
                  List.map (fun h -> q.q_hop.(h)) r.T.Topology.hops;
              }
        in
        let ring =
          match route.T.Topology.kind with
          | T.Link.Infiniband -> slots
          | T.Link.Nvlink | T.Link.Nvswitch | T.Link.Pcie | T.Link.Host -> 0
        in
        let c =
          {
            c_route = route;
            c_in_flight = 0;
            c_arrived = 0;
            c_recv_waiter = -1;
            c_send_waiter = -1;
            c_free_delay =
              (match resolved with
              | None -> 0.
              | Some rv -> Plan.slot_stall rv ~src ~dst ~chan:ch);
            c_ring_wire = Array.make ring 0.;
            c_ring_start = Array.make ring 0.;
            c_ring_tb = Array.make ring 0;
            c_ring_head = 0;
            c_ring_len = 0;
          }
        in
        Hashtbl.add conns key c;
        c
  in
  let recv_conn st =
    match st.ts_recv_conn with
    | Some c -> c
    | None ->
        let c =
          conn_of ~src:st.ts_tb.Ir.recv ~dst:st.ts_rank ~ch:st.ts_tb.Ir.chan
        in
        st.ts_recv_conn <- Some c;
        c
  in
  let send_conn st =
    match st.ts_send_conn with
    | Some c -> c
    | None ->
        let c =
          conn_of ~src:st.ts_rank ~dst:st.ts_tb.Ir.send ~ch:st.ts_tb.Ir.chan
        in
        st.ts_send_conn <- Some c;
        c
  in
  let next_idx = ref 0 in
  let states =
    Array.map
      (fun (g : Ir.gpu) ->
        Array.map
          (fun (tb : Ir.tb) ->
            let ts_idx = !next_idx in
            incr next_idx;
            {
              ts_idx;
              ts_rank = g.Ir.gpu_id;
              ts_tb = tb;
              ts_nsteps = Array.length tb.Ir.steps;
              ts_tile = 0;
              ts_pc = 0;
              ts_completed = 0;
              ts_waiters = -1;
              ts_next_waiter = -1;
              ts_finished = false;
              ts_parked = Not_parked;
              ts_sem_tb = 0;
              ts_sem_step = 0;
              ts_sem_threshold = 0;
              ts_recv_conn = None;
              ts_send_conn = None;
            })
          g.Ir.tbs)
      gpus
  in
  let tbs = Array.concat (Array.to_list states) in
  (* [total_tbs] drives progress/hang accounting over the simulated thread
     blocks; the kernel launch pays for every thread block of the full
     machine. *)
  let total_tbs = Array.length tbs in
  let launch_tbs =
    match quot with Some q -> q.q_total_tbs | None -> total_tbs
  in
  let span_start = Array.make total_tbs 0. in  (* for timeline capture *)
  let xfer_start = Array.make total_tbs 0. in
  let wait_since = Array.make total_tbs 0. in
  let finished = ref 0 in
  let finish_time = ref 0. in
  let messages = ref 0 in
  let wire_bytes = ref 0. in
  let last_progress = ref 0. in
  (* Fault-injected slot-stall / semaphore-release delays in flight: while
     one is pending, progress is guaranteed, so the watchdog must not
     declare a hang. *)
  let pending_timed = ref 0 in
  let hang_info = ref None in
  let now () = Msccl_sim.Engine.now eng in
  let busy t st phase =
    Msccl_sim.Engine.wake_after eng t ((st.ts_idx lsl 3) lor phase)
  in
  let delayed d k =
    incr pending_timed;
    Msccl_sim.Engine.after eng d (fun () ->
        decr pending_timed;
        k ())
  in
  let sem_delay_of st =
    match resolved with
    | None -> 0.
    | Some rv -> Plan.sem_delay rv ~rank:st.ts_rank ~tb:st.ts_tb.Ir.tb_id
  in
  let park st p =
    st.ts_parked <- p;
    wait_since.(st.ts_idx) <- now ()
  in
  let unpark st = st.ts_parked <- Not_parked in
  let wait_of st =
    let chan = st.ts_tb.Ir.chan in
    match st.ts_parked with
    | Not_parked -> None
    | Sem ->
        Some
          (On_semaphore
             {
               sem_tb = st.ts_sem_tb;
               sem_step = st.ts_sem_step;
               threshold = st.ts_sem_threshold;
             })
    | Fifo_slot -> Some (On_fifo_slot { peer = st.ts_tb.Ir.send; chan })
    | Arrival -> Some (On_arrival { peer = st.ts_tb.Ir.recv; chan })
    | Transfer -> Some (On_transfer { peer = st.ts_tb.Ir.send; chan })
  in
  let record_instr st =
    match timeline with
    | None -> ()
    | Some tl ->
        let start = span_start.(st.ts_idx) in
        Timeline.add tl
          ~name:(Instr.opcode_name st.ts_tb.Ir.steps.(st.ts_pc).Ir.op)
          ~cat:"instr" ~pid:st.ts_rank ~tid:st.ts_tb.Ir.tb_id ~ts:start
          ~dur:(now () -. start)
  in
  let net_pid = p_full in
  let fault_pid = net_pid + 1 in
  let record_transfer ~src ~dst ~start =
    match timeline with
    | None -> ()
    | Some tl ->
        Timeline.add tl
          ~name:(Printf.sprintf "%d->%d" src dst)
          ~cat:"transfer" ~pid:net_pid
          ~tid:((src * 1024) + dst)
          ~ts:start ~dur:(now () -. start)
  in
  (* Serialized IB transfers per connection (one RDMA queue pair): the
     ring's head is on the wire, and its arrival wakes the block that
     staged it. *)
  let proxy_start c =
    let h = c.c_ring_head in
    Msccl_sim.Engine.start_flow_wake eng ~bytes:c.c_ring_wire.(h)
      ~hops:c.c_route.T.Topology.hops ~cap:c.c_route.T.Topology.tb_cap
      ((c.c_ring_tb.(h) lsl 3) lor ph_proxy_done)
  in
  let proxy_send st c wire =
    let n = Array.length c.c_ring_wire in
    assert (c.c_ring_len < n);
    let i = (c.c_ring_head + c.c_ring_len) mod n in
    c.c_ring_wire.(i) <- wire;
    c.c_ring_start.(i) <- now ();
    c.c_ring_tb.(i) <- st.ts_idx;
    c.c_ring_len <- c.c_ring_len + 1;
    if c.c_ring_len = 1 then proxy_start c
  in
  let rec advance st =
    if st.ts_pc >= st.ts_nsteps then begin
      st.ts_tile <- st.ts_tile + 1;
      st.ts_pc <- 0;
      if st.ts_tile >= ntiles || st.ts_nsteps = 0 then begin
        st.ts_finished <- true;
        incr finished;
        if now () > !finish_time then finish_time := now ()
      end
      else advance st
    end
    else check_deps st
  and check_deps st = wait_deps st st.ts_tb.Ir.steps.(st.ts_pc).Ir.depends
  (* A dependency (tb, s) is satisfied for the current tile when that tb
     completed step s in the same tile (semaphores are monotonic in
     tile * nsteps + step). The first unsatisfied one in list order parks
     the block on its semaphore. *)
  and wait_deps st = function
    | [] ->
        span_start.(st.ts_idx) <- now ();
        busy (instr_overhead *. alpha_mult.(st.ts_rank)) st ph_recv
    | (dtb, dstep) :: rest ->
        let target = states.(st.ts_rank).(dtb) in
        let threshold = (st.ts_tile * target.ts_nsteps) + dstep + 1 in
        if target.ts_completed < threshold then begin
          park st Sem;
          st.ts_sem_tb <- dtb;
          st.ts_sem_step <- dstep;
          st.ts_sem_threshold <- threshold;
          st.ts_next_waiter <- target.ts_waiters;
          target.ts_waiters <- st.ts_idx
        end
        else wait_deps st rest
  (* Wake whoever waits on [st]'s semaphore reaching its new value, newest
     first: they are unlinked before any runs, as a woken block may park
     on [st] again. *)
  and wake_sem st =
    let v = st.ts_completed in
    let ready = ref (-1) and last = ref (-1) in
    let prev = ref (-1) and cur = ref st.ts_waiters in
    while !cur >= 0 do
      let w = tbs.(!cur) in
      let next = w.ts_next_waiter in
      if w.ts_sem_threshold = v then begin
        if !prev < 0 then st.ts_waiters <- next
        else tbs.(!prev).ts_next_waiter <- next;
        w.ts_next_waiter <- -1;
        if !last < 0 then ready := !cur else tbs.(!last).ts_next_waiter <- !cur;
        last := !cur
      end
      else prev := !cur;
      cur := next
    done;
    let cur = ref !ready in
    while !cur >= 0 do
      let w = tbs.(!cur) in
      cur := w.ts_next_waiter;
      unpark w;
      check_deps w
    done
  and free_slot c =
    let release () =
      c.c_in_flight <- c.c_in_flight - 1;
      let w = c.c_send_waiter in
      if w >= 0 then begin
        c.c_send_waiter <- -1;
        unpark tbs.(w);
        send_phase tbs.(w)
      end
    in
    if c.c_free_delay > 0. then delayed c.c_free_delay release else release ()
  and arrival c =
    c.c_arrived <- c.c_arrived + 1;
    let w = c.c_recv_waiter in
    if w >= 0 then begin
      c.c_recv_waiter <- -1;
      unpark tbs.(w);
      recv_phase tbs.(w)
    end
  and recv_phase st =
    let step = st.ts_tb.Ir.steps.(st.ts_pc) in
    if Instr.receives step.Ir.op then begin
      let c = recv_conn st in
      if c.c_arrived > 0 then begin
        c.c_arrived <- c.c_arrived - 1;
        let bytes = float_of_int step.Ir.count *. tile_bytes in
        let reduce_cost =
          match step.Ir.op with
          | Instr.Recv_reduce_copy | Instr.Recv_reduce_send
          | Instr.Recv_reduce_copy_send ->
              gamma *. gamma_mult.(st.ts_rank) *. bytes
          | Instr.Recv | Instr.Recv_copy_send | Instr.Send | Instr.Copy
          | Instr.Reduce | Instr.Nop ->
              0.
        in
        (* Copy out of the FIFO slot (unless the protocol delivers straight
           into the destination buffer), then free it. *)
        let copy_cost =
          if T.Protocol.receiver_copies proto then
            bytes /. local_bw *. beta_mult.(st.ts_rank)
          else 0.
        in
        busy (copy_cost +. reduce_cost) st ph_recv_done
      end
      else begin
        park st Arrival;
        c.c_recv_waiter <- st.ts_idx
      end
    end
    else send_phase st
  and send_phase st =
    let step = st.ts_tb.Ir.steps.(st.ts_pc) in
    if Instr.sends step.Ir.op then begin
      let c = send_conn st in
      if c.c_in_flight < slots then begin
        c.c_in_flight <- c.c_in_flight + 1;
        let wire = float_of_int step.Ir.count *. tile_bytes /. eff in
        let alpha =
          c.c_route.T.Topology.base_alpha *. alpha_scale
          *. alpha_mult.(st.ts_rank)
        in
        incr messages;
        wire_bytes := !wire_bytes +. wire;
        busy alpha st ph_send
      end
      else begin
        park st Fifo_slot;
        c.c_send_waiter <- st.ts_idx
      end
    end
    else local_phase st
  (* The message goes on the wire once its α is paid. *)
  and transfer st =
    let c = send_conn st in
    let bytes =
      float_of_int st.ts_tb.Ir.steps.(st.ts_pc).Ir.count *. tile_bytes
    in
    let wire = bytes /. eff in
    match c.c_route.T.Topology.kind with
    | T.Link.Infiniband ->
        (* Staged: the thread block copies into the proxy buffer and
           moves on; the NIC transfer proceeds asynchronously, one
           message at a time per connection. *)
        proxy_send st c wire;
        busy (bytes /. local_bw *. beta_mult.(st.ts_rank)) st ph_complete
    | T.Link.Nvlink | T.Link.Nvswitch | T.Link.Pcie | T.Link.Host ->
        (* The thread block drives the copy over the link; until the
           last byte lands the tb is committed to this transfer, so a
           dead link parks it here. *)
        xfer_start.(st.ts_idx) <- now ();
        park st Transfer;
        Msccl_sim.Engine.start_flow_wake eng ~bytes:wire
          ~hops:c.c_route.T.Topology.hops
          ~cap:(c.c_route.T.Topology.tb_cap /. beta_mult.(st.ts_rank))
          ((st.ts_idx lsl 3) lor ph_flow_done)
  and local_phase st =
    let step = st.ts_tb.Ir.steps.(st.ts_pc) in
    let bytes = float_of_int step.Ir.count *. tile_bytes in
    match step.Ir.op with
    | Instr.Copy ->
        busy (bytes /. local_bw *. beta_mult.(st.ts_rank)) st ph_complete
    | Instr.Reduce ->
        busy
          ((bytes /. local_bw *. beta_mult.(st.ts_rank))
          +. (gamma *. gamma_mult.(st.ts_rank) *. bytes))
          st ph_complete
    | Instr.Recv | Instr.Recv_reduce_copy | Instr.Nop -> complete_step st
    | Instr.Send | Instr.Recv_copy_send | Instr.Recv_reduce_send
    | Instr.Recv_reduce_copy_send ->
        (* Sends complete in [send_phase]. *)
        assert false
  and complete_step st =
    record_instr st;
    st.ts_pc <- st.ts_pc + 1;
    last_progress := now ();
    (* The step retires now; its semaphore release may be delayed by a
       fault, making the new count visible to waiters only later. *)
    let d = sem_delay_of st in
    if d > 0. then
      delayed d (fun () ->
          st.ts_completed <- st.ts_completed + 1;
          wake_sem st)
    else begin
      st.ts_completed <- st.ts_completed + 1;
      wake_sem st
    end;
    advance st
  in
  Msccl_sim.Engine.set_wake_handler eng (fun w ->
      let st = tbs.(w lsr 3) and phase = w land 7 in
      if phase = ph_advance then advance st
      else if phase = ph_recv then recv_phase st
      else if phase = ph_recv_done then begin
        free_slot (recv_conn st);
        send_phase st
      end
      else if phase = ph_send then transfer st
      else if phase = ph_complete then complete_step st
      else if phase = ph_flow_done then begin
        unpark st;
        record_transfer ~src:st.ts_rank ~dst:st.ts_tb.Ir.send
          ~start:xfer_start.(st.ts_idx);
        arrival (send_conn st);
        complete_step st
      end
      else begin
        (* ph_proxy_done: the next queued message goes on the wire
           before this one's arrival is handled. *)
        let c = send_conn st in
        let start = c.c_ring_start.(c.c_ring_head) in
        c.c_ring_head <- (c.c_ring_head + 1) mod Array.length c.c_ring_wire;
        c.c_ring_len <- c.c_ring_len - 1;
        if c.c_ring_len > 0 then proxy_start c;
        record_transfer ~src:st.ts_rank ~dst:st.ts_tb.Ir.send ~start;
        arrival c
      end);
  let launch =
    T.Topology.launch_overhead topo
    +. (T.Topology.per_tb_launch topo *. float_of_int launch_tbs)
  in
  last_progress := launch;
  (* Degradation/restore windows become capacity events on the engine,
     scheduled relative to kernel start and applied before any thread
     block starts at the same instant. *)
  (match resolved with
  | None -> ()
  | Some rv ->
      List.iter
        (fun (t_ev, rid, cap) ->
          Msccl_sim.Engine.at eng (launch +. t_ev) (fun () ->
              Msccl_sim.Engine.set_capacity eng rid cap))
        (Plan.capacity_events ~topo rv));
  (* Watchdog: declares a hang when no instruction has retired for the
     timeout AND nothing that could retire one is still in motion — every
     unfinished thread block is parked on a wait, no injected delay is
     pending, and no flow is making progress (a stalled flow on a dead
     link has rate 0 and does not count). Under those conditions the
     simulation can never advance, so this is exact, not a heuristic. *)
  let all_parked () =
    Array.for_all (fun st -> st.ts_finished || st.ts_parked <> Not_parked) tbs
  in
  let collect_blocked () =
    let acc = ref [] in
    Array.iter
      (fun row ->
        Array.iter
          (fun st ->
            if not st.ts_finished then
              match wait_of st with
              | None -> ()
              | Some w ->
                  let op =
                    if st.ts_pc < st.ts_nsteps then
                      Instr.opcode_name st.ts_tb.Ir.steps.(st.ts_pc).Ir.op
                    else "-"
                  in
                  acc :=
                    {
                      b_ctx =
                        {
                          cx_rank = st.ts_rank;
                          cx_tb = st.ts_tb.Ir.tb_id;
                          cx_step = st.ts_pc;
                          cx_op = op;
                        };
                      b_tile = st.ts_tile;
                      b_wait = w;
                      b_since = wait_since.(st.ts_idx);
                    }
                    :: !acc)
          row)
      states;
    List.rev !acc
  in
  (* The wait-for graph among blocked tbs has out-degree <= 1 (each tb
     waits on exactly one thing), so it is a functional graph and cycle
     detection is a marked walk. Successors: a semaphore wait points at
     the owning tb on the same rank; an arrival wait at the peer tb that
     sends to us on that channel; a FIFO-slot wait at the peer tb whose
     receives free our slots; a stalled wire transfer is a resource fault,
     not a dependency — no successor. *)
  let find_cycle blocked =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun bl -> Hashtbl.replace tbl (bl.b_ctx.cx_rank, bl.b_ctx.cx_tb) bl)
      blocked;
    let tb_matching rank pred =
      if rank < 0 || rank >= Array.length states then None
      else
        Array.fold_left
          (fun acc st ->
            match acc with
            | Some _ -> acc
            | None ->
                if (not st.ts_finished) && pred st.ts_tb then
                  Hashtbl.find_opt tbl (rank, st.ts_tb.Ir.tb_id)
                else None)
          None
          states.(rank)
    in
    let succ bl =
      match bl.b_wait with
      | On_semaphore { sem_tb; _ } ->
          Hashtbl.find_opt tbl (bl.b_ctx.cx_rank, sem_tb)
      | On_arrival { peer; chan } ->
          tb_matching peer (fun (tb : Ir.tb) ->
              tb.Ir.send = bl.b_ctx.cx_rank && tb.Ir.chan = chan)
      | On_fifo_slot { peer; chan } ->
          tb_matching peer (fun (tb : Ir.tb) ->
              tb.Ir.recv = bl.b_ctx.cx_rank && tb.Ir.chan = chan)
      | On_transfer _ -> None
    in
    let state = Hashtbl.create 16 in
    let rec walk path depth bl =
      let key = (bl.b_ctx.cx_rank, bl.b_ctx.cx_tb) in
      match Hashtbl.find_opt state key with
      | Some `Done -> None
      | Some (`Visiting d) ->
          (* Entries at depth >= d form the cycle; [path] is newest
             first. *)
          Some (List.rev (List.filteri (fun i _ -> i < depth - d) path))
      | None ->
          Hashtbl.replace state key (`Visiting depth);
          let r =
            match succ bl with
            | None -> None
            | Some nb -> walk (bl :: path) (depth + 1) nb
          in
          (match r with
          | None -> Hashtbl.replace state key `Done
          | Some _ -> ());
          r
    in
    List.fold_left
      (fun acc bl -> match acc with Some _ -> acc | None -> walk [] 0 bl)
      None blocked
  in
  (match watchdog_timeout with
  | None -> ()
  | Some timeout ->
      let rec watchdog () =
        if !finished < total_tbs && !hang_info = None then begin
          let now = Msccl_sim.Engine.now eng in
          if
            now -. !last_progress >= timeout -. 1e-15
            && all_parked () && !pending_timed = 0
            && Msccl_sim.Engine.progressing_flows eng = 0
          then begin
            let blocked = collect_blocked () in
            hang_info :=
              Some
                {
                  h_time = now;
                  h_last_progress = !last_progress;
                  h_finished_tbs = !finished;
                  h_total_tbs = total_tbs;
                  h_blocked = blocked;
                  h_cycle = find_cycle blocked;
                };
            Msccl_sim.Engine.stop eng
          end
          else
            (* Progress was recent: re-arm for the earliest instant the
               timeout could elapse. Otherwise (something is still in
               motion, e.g. a slow transfer) back off by a full period. *)
            let next =
              if now -. !last_progress < timeout then
                !last_progress +. timeout
              else now +. timeout
            in
            Msccl_sim.Engine.at eng next watchdog
        end
      in
      Msccl_sim.Engine.at eng (launch +. timeout) watchdog);
  Array.iter
    (fun st ->
      Msccl_sim.Engine.wake_at eng launch ((st.ts_idx lsl 3) lor ph_advance))
    tbs;
  Msccl_sim.Engine.run eng;
  let end_time = Msccl_sim.Engine.now eng in
  (* Degradation windows as timeline spans (clipped to the simulated
     span), on their own "fault" track past the network track. *)
  (match (timeline, resolved) with
  | Some tl, Some rv ->
      List.iter
        (fun (w : Plan.window) ->
          let ts = launch +. w.Plan.w_from_s in
          let fin =
            match w.Plan.w_until_s with
            | None -> end_time
            | Some u -> Float.min end_time (launch +. u)
          in
          if fin > ts then
            Timeline.add tl
              ~name:
                (Printf.sprintf "%s x%g" w.Plan.w_rname w.Plan.w_factor)
              ~cat:"fault" ~pid:fault_pid ~tid:w.Plan.w_rid ~ts
              ~dur:(fin -. ts))
        rv.Plan.r_windows
  | _ -> ());
  (match !hang_info with
  | Some h ->
      (* Watchdog-reported blocked spans complete the trace before the
         diagnosis is raised. *)
      (match timeline with
      | None -> ()
      | Some tl ->
          List.iter
            (fun bl ->
              Timeline.add tl
                ~name:(wait_string bl.b_wait)
                ~cat:"blocked" ~pid:bl.b_ctx.cx_rank ~tid:bl.b_ctx.cx_tb
                ~ts:bl.b_since ~dur:(h.h_time -. bl.b_since))
            h.h_blocked);
      raise (Hang h)
  | None -> ());
  if !finished <> total_tbs then begin
    let stuck = Buffer.create 128 in
    Array.iter
      (fun row ->
        Array.iter
          (fun st ->
            if not st.ts_finished then begin
              let op =
                if st.ts_pc < st.ts_nsteps then
                  Instr.opcode_name st.ts_tb.Ir.steps.(st.ts_pc).Ir.op
                else "-"
              in
              let why =
                match wait_of st with
                | Some w -> wait_string w
                | None -> "not parked on any wait"
              in
              Buffer.add_string stuck
                (Printf.sprintf "\n  %s: tile %d, %s"
                   (ctx_string
                      {
                        cx_rank = st.ts_rank;
                        cx_tb = st.ts_tb.Ir.tb_id;
                        cx_step = st.ts_pc;
                        cx_op = op;
                      })
                   st.ts_tile why)
            end)
          row)
      states;
    error "simulation deadlock (%d of %d thread blocks finished)%s" !finished
      total_tbs (Buffer.contents stuck)
  end;
  let width = match quot with Some q -> q.q_width | None -> 1 in
  {
    time = !finish_time;
    kernel_time = !finish_time -. launch;
    tiles = ntiles;
    messages = !messages * width;
    wire_bytes = !wire_bytes *. float_of_int width;
    events = Msccl_sim.Engine.events_processed eng;
  }

let run ~topo ~chunk_bytes ?(max_tiles = 4) ?(check_occupancy = true)
    ?timeline ?faults ?watchdog_s (ir : Ir.t) =
  run_impl ~topo ~chunk_bytes ~max_tiles ~check_occupancy ~timeline ~faults
    ~watchdog_s ~proto:ir.Ir.proto ~gpus:ir.Ir.gpus
    ~p_full:(Ir.num_ranks ir) ~quot:None

let run_buffer ~topo ~buffer_bytes ?max_tiles ?check_occupancy ?timeline
    ?faults ?watchdog_s (ir : Ir.t) =
  let chunks = Collective.input_buffer_size ir.Ir.collective in
  run ~topo
    ~chunk_bytes:(buffer_bytes /. float_of_int chunks)
    ?max_tiles ?check_occupancy ?timeline ?faults ?watchdog_s ir

let algbw ~buffer_bytes result = buffer_bytes /. result.time

(* ---- Cohort (symmetry-aware) simulation ------------------------------- *)

type cohort = {
  co_stride : int;
  co_width : int;
  co_fallback : string option;
}

(* Peer-offset families actually used by the replicated program: the send
   and receive deltas of the representative rank. Every connection of the
   full machine is (g, g+d mod P) for some d in this set, because all rank
   programs are shift images of the representative. *)
let deltas_of_rep p (rep : Ir.gpu) =
  let ds = Hashtbl.create 8 in
  Array.iter
    (fun (tb : Ir.tb) ->
      if tb.Ir.send >= 0 then
        Hashtbl.replace ds ((((tb.Ir.send - rep.Ir.gpu_id) mod p) + p) mod p) ();
      if tb.Ir.recv >= 0 then
        Hashtbl.replace ds ((((rep.Ir.gpu_id - tb.Ir.recv) mod p) + p) mod p) ())
    rep.Ir.tbs;
  Hashtbl.fold (fun d () acc -> d :: acc) ds []

exception Asym

(* Certify rank shift-by-[stride] as a topology automorphism over the
   routes the program uses: for every used delta [d] and every source
   rank [g], route(g+stride, g+d+stride) must be the image of
   route(g, g+d) under one consistent resource bijection rho with equal
   capacities, alphas, per-tb caps and link kinds. On success, returns
   the orbit-canonical resource map and the quotient capacities: a
   resource orbit of size [o] merges into its canonical member at
   capacity scaled by [o / width], which — together with per-occurrence
   hop counting in the engine — makes every cohort flow's share equal to
   its member flows' share in the full run. *)
let certify_stride topo ~deltas ~stride =
  let p = T.Topology.num_ranks topo in
  let width = p / stride in
  let res = T.Topology.resources topo in
  let n = Array.length res in
  let cap i = res.(i).T.Topology.capacity in
  let rho = Array.make n (-1) in
  let rho_inv = Array.make n (-1) in
  try
    List.iter
      (fun d ->
        for g = 0 to p - 1 do
          let r1 = T.Topology.route topo ~src:g ~dst:((g + d) mod p) in
          let g' = (g + stride) mod p in
          let r2 = T.Topology.route topo ~src:g' ~dst:((g' + d) mod p) in
          if
            r1.T.Topology.base_alpha <> r2.T.Topology.base_alpha
            || r1.T.Topology.tb_cap <> r2.T.Topology.tb_cap
            || r1.T.Topology.kind <> r2.T.Topology.kind
          then raise Asym;
          let rec map h1 h2 =
            match (h1, h2) with
            | [], [] -> ()
            | a :: t1, b :: t2 ->
                if cap a <> cap b then raise Asym;
                (if rho.(a) = -1 && rho_inv.(b) = -1 then begin
                   rho.(a) <- b;
                   rho_inv.(b) <- a
                 end
                 else if rho.(a) <> b then raise Asym);
                map t1 t2
            | _ -> raise Asym
          in
          map r1.T.Topology.hops r2.T.Topology.hops
        done)
      deltas;
    (* rho is a permutation of the touched resources (cycles close because
       the delta families are full shift orbits). Merge each cycle into
       its first member. *)
    let hop_map = Array.init n (fun i -> i) in
    let caps = Array.init n cap in
    let seen = Array.make n false in
    for i = 0 to n - 1 do
      if rho.(i) >= 0 && not seen.(i) then begin
        let rec cycle acc j =
          if j = i then acc
          else if rho.(j) = -1 then raise Asym
          else cycle (j :: acc) rho.(j)
        in
        let members = i :: cycle [] rho.(i) in
        let o = List.length members in
        if width mod o <> 0 then raise Asym;
        List.iter
          (fun j ->
            seen.(j) <- true;
            hop_map.(j) <- i)
          members;
        caps.(i) <- cap i *. float_of_int o /. float_of_int width
      end
    done;
    Some (hop_map, caps)
  with Asym -> None

let divisors p =
  let rec go d acc =
    if d >= p then List.rev acc
    else go (d + 1) (if p mod d = 0 then d :: acc else acc)
  in
  go 1 []

let run_sym ~topo ~chunk_bytes ?(max_tiles = 4) ?(check_occupancy = true)
    ?timeline ?faults ?watchdog_s (r : Replicate.result) =
  let p = r.Replicate.r_num_ranks in
  if p <> T.Topology.num_ranks topo then
    error "replicated IR has %d ranks but topology %s has %d" p
      (T.Topology.name topo)
      (T.Topology.num_ranks topo);
  let scalar reason =
    let res =
      run ~topo ~chunk_bytes ~max_tiles ~check_occupancy ?timeline ?faults
        ?watchdog_s
        (Lazy.force r.Replicate.r_ir)
    in
    (res, { co_stride = p; co_width = 1; co_fallback = Some reason })
  in
  if faults <> None then
    (* Any fault plan may distinguish orbit members (stragglers, windows,
       stalls target concrete ranks and links), so the cohorts split
       wholesale to the scalar path — conservative and exact. *)
    scalar "fault plan present: cohorts split to the exact scalar path"
  else if timeline <> None then
    scalar "timeline capture needs per-rank spans"
  else
    let deltas = deltas_of_rep p r.Replicate.r_rep in
    match
      List.find_map
        (fun stride ->
          Option.map
            (fun (hop_map, caps) -> (stride, hop_map, caps))
            (certify_stride topo ~deltas ~stride))
        (divisors p)
    with
    | None -> scalar "no shift symmetry of the topology certified"
    | Some (stride, hop_map, caps) ->
        let width = p / stride in
        let gpus = Array.init stride r.Replicate.r_gpu in
        let total_tbs = p * Array.length r.Replicate.r_rep.Ir.tbs in
        let quot =
          Some
            {
              q_stride = stride;
              q_width = width;
              q_hop = hop_map;
              q_caps = caps;
              q_total_tbs = total_tbs;
            }
        in
        let res =
          run_impl ~topo ~chunk_bytes ~max_tiles ~check_occupancy
            ~timeline:None ~faults:None ~watchdog_s
            ~proto:r.Replicate.r_proto ~gpus ~p_full:p ~quot
        in
        (res, { co_stride = stride; co_width = width; co_fallback = None })

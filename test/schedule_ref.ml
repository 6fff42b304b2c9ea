(* The scheduler as it was before its working state moved onto arrays
   indexed by instruction and connection ids: connection endpoints
   encoded into ints, per-rank hash tables for endpoint items, groups and
   merged groups, two hash tables per connection, and an emission pass
   that copies every step some other step depends on. Kept only as the
   reference the differential tests hold [Msccl_core.Schedule] to: the
   same IR ([Ir.equal]) on every input both accept, and a
   [Schedule.Scheduling_error] from both on every input either rejects.

   One change from the scheduler as it was: errors are raised as
   [Schedule.Scheduling_error], so both sides fail the same way. The texts
   may still differ: of several conflicting connections in one thread
   block, this copy names the pair its hash tables happen to visit first,
   [Schedule] the first conflict in endpoint-id order. *)

open Msccl_core

let error fmt =
  Format.kasprintf (fun s -> raise (Schedule.Scheduling_error s)) fmt

(* Drops dead instructions and renumbers ids densely, remapping
   dependencies and communication edges: the copy this scheduler runs on
   ([Schedule] reads a fused DAG in place instead). *)
let compact t =
  let remap = Array.make (Array.length t.Instr_dag.instrs) (-1) in
  let live_list = Instr_dag.live t in
  List.iteri (fun fresh i -> remap.(i.Instr.id) <- fresh) live_list;
  let map_id d =
    if remap.(d) < 0 then invalid_arg "Schedule_ref.compact: dep on dead instr"
    else remap.(d)
  in
  let instrs =
    List.mapi
      (fun fresh (i : Instr.t) ->
        {
          i with
          Instr.id = fresh;
          deps = List.sort Int.compare (List.map map_id i.Instr.deps);
          comm_pred = Option.map map_id i.Instr.comm_pred;
        })
      live_list
  in
  { t with Instr_dag.instrs = Array.of_list instrs }

(* ------------------------------------------------------------------ *)
(* Channel assignment                                                  *)
(* ------------------------------------------------------------------ *)

(* Channels live on instructions; the two endpoints of a communication edge
   must agree, and a fused instruction carries one channel for both of its
   connections, so channels are constant over connected components of the
   "comm edge" graph. User directives seed components; the rest get the
   lowest channel (0). Conflicting directives inside a component are
   errors. *)
let assign_channels (dag : Instr_dag.t) =
  let n = Array.length dag.Instr_dag.instrs in
  let uf = Union_find.create n in
  Array.iter
    (fun (i : Instr.t) ->
      if i.Instr.alive then
        match i.Instr.comm_pred with
        | Some s -> Union_find.union uf i.Instr.id s
        | None -> ())
    dag.Instr_dag.instrs;
  let chosen : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  (* root -> (channel, witness instr id) *)
  Array.iter
    (fun (i : Instr.t) ->
      if i.Instr.alive then
        match i.Instr.ch with
        | None -> ()
        | Some c -> (
            let root = Union_find.find uf i.Instr.id in
            match Hashtbl.find_opt chosen root with
            | None -> Hashtbl.add chosen root (c, i.Instr.id)
            | Some (c', w) ->
                if c <> c' then
                  error
                    "conflicting channel directives %d (instr %d) and %d \
                     (instr %d) on one fused/communication chain"
                    c' w c i.Instr.id))
    dag.Instr_dag.instrs;
  Array.iter
    (fun (i : Instr.t) ->
      if i.Instr.alive then
        let root = Union_find.find uf i.Instr.id in
        let c =
          match Hashtbl.find_opt chosen root with
          | Some (c, _) -> c
          | None -> 0
        in
        i.Instr.ch <- Some c)
    dag.Instr_dag.instrs

(* ------------------------------------------------------------------ *)
(* Thread block formation                                              *)
(* ------------------------------------------------------------------ *)

type tb_build = {
  tb_rank : int;
  mutable send_conn : (int * int) option;  (* (peer, ch) *)
  mutable recv_conn : (int * int) option;
  mutable tb_chan : int;
  mutable steps_rev : Instr.t list;
  mutable nsteps : int;
  mutable last_global : int;
  mutable final_id : int;
}

let new_tb rank =
  {
    tb_rank = rank;
    send_conn = None;
    recv_conn = None;
    tb_chan = 0;
    steps_rev = [];
    nsteps = 0;
    last_global = -1;
    final_id = -1;
  }

type conn_dir =
  | Snd
  | Rcv

(* Connection endpoints — (direction, peer, ch) — are encoded into single
   ints so the hashtables below hash machine words instead of tuples and
   the per-instruction paths allocate nothing. *)
let peer_bits = 21

let encode_ep dir ~peer ~ch =
  if peer < 0 || peer >= 1 lsl peer_bits then
    error "peer rank %d out of range" peer;
  if ch < 0 || ch >= 1 lsl (Sys.int_size - peer_bits - 2) then
    error "channel %d out of range" ch;
  (((ch lsl peer_bits) lor peer) lsl 1)
  lor (match dir with Snd -> 0 | Rcv -> 1)

let decode_ep key =
  let dir = if key land 1 = 0 then Snd else Rcv in
  let rest = key lsr 1 in
  let peer = rest land ((1 lsl peer_bits) - 1) in
  let ch = rest lsr peer_bits in
  (dir, peer, ch)

(* Connection endpoints an instruction requires, as encoded keys.
   [-1] = absent. *)
let endpoint_keys (i : Instr.t) =
  let ch = match i.Instr.ch with Some c -> c | None -> 0 in
  let snd_key =
    if Instr.sends i.Instr.op then
      encode_ep Snd ~peer:(Option.get i.Instr.send_peer) ~ch
    else -1
  in
  let rcv_key =
    if Instr.receives i.Instr.op then
      encode_ep Rcv ~peer:(Option.get i.Instr.recv_peer) ~ch
    else -1
  in
  (snd_key, rcv_key)

(* Group connection endpoints per rank with union-find: endpoints shared by
   several instructions are one item; a fused instruction links its send and
   receive endpoints into the same thread block. *)
let build_tbs (dag : Instr_dag.t) =
  let num_ranks = dag.Instr_dag.collective.Collective.num_ranks in
  let item_ids = Array.init num_ranks (fun _ -> Hashtbl.create 8) in
  let item_count = Array.make num_ranks 0 in
  let item_of rank ep =
    let tbl = item_ids.(rank) in
    match Hashtbl.find_opt tbl ep with
    | Some id -> id
    | None ->
        let id = item_count.(rank) in
        item_count.(rank) <- id + 1;
        Hashtbl.add tbl ep id;
        id
  in
  (* First pass: register items. *)
  Array.iter
    (fun (i : Instr.t) ->
      if i.Instr.alive then begin
        let s, r = endpoint_keys i in
        if s >= 0 then ignore (item_of i.Instr.rank s);
        if r >= 0 then ignore (item_of i.Instr.rank r)
      end)
    dag.Instr_dag.instrs;
  let ufs = Array.init num_ranks (fun r -> Union_find.create item_count.(r)) in
  Array.iter
    (fun (i : Instr.t) ->
      if i.Instr.alive then
        let s, r = endpoint_keys i in
        if s >= 0 && r >= 0 then
          Union_find.union ufs.(i.Instr.rank)
            (item_of i.Instr.rank s)
            (item_of i.Instr.rank r))
    dag.Instr_dag.instrs;
  (* Materialize one thread block per group and attach its connections. *)
  let groups = Array.init num_ranks (fun _ -> Hashtbl.create 8) in
  let tb_of_group rank root =
    let tbl = groups.(rank) in
    match Hashtbl.find_opt tbl root with
    | Some tb -> tb
    | None ->
        let tb = new_tb rank in
        Hashtbl.add tbl root tb;
        tb
  in
  Array.iteri
    (fun rank _tbl ->
      Hashtbl.iter
        (fun key item ->
          let dir, peer, ch = decode_ep key in
          let root = Union_find.find ufs.(rank) item in
          let tb = tb_of_group rank root in
          tb.tb_chan <- ch;
          match dir with
          | Snd -> (
              match tb.send_conn with
              | Some (p, c) when (p, c) <> (peer, ch) ->
                  error
                    "rank %d: a thread block would need two send \
                     connections (to %d and %d on channel %d); use channel \
                     directives to separate them"
                    rank p peer ch
              | Some _ | None -> tb.send_conn <- Some (peer, ch))
          | Rcv -> (
              match tb.recv_conn with
              | Some (p, c) when (p, c) <> (peer, ch) ->
                  error
                    "rank %d: a thread block would need two receive \
                     connections (from %d and %d on channel %d); use \
                     channel directives to separate them"
                    rank p peer ch
              | Some _ | None -> tb.recv_conn <- Some (peer, ch)))
        item_ids.(rank))
    item_ids;
  (* Pair up send-only and receive-only groups on the same (rank, channel):
     a thread block owns one send and one receive connection (paper §5,
     step 2's (send-peer, receive-peer, channel) tuples), which halves the
     thread-block count and the SM footprint. The pairing is deterministic
     (sorted by peer). Merged groups are recorded in [merged_into] so
     instructions can find their final thread block. *)
  let merged_into : (int * int, tb_build) Hashtbl.t = Hashtbl.create 16 in
  (* key: (rank, item root) of the absorbed group *)
  let roots_of_group = Array.init num_ranks (fun _ -> Hashtbl.create 8) in
  Array.iteri
    (fun rank _ ->
      Hashtbl.iter
        (fun ep item ->
          let root = Union_find.find ufs.(rank) item in
          ignore ep;
          Hashtbl.replace roots_of_group.(rank) root ())
        item_ids.(rank))
    item_ids;
  Array.iteri
    (fun rank _ ->
      (* Collect send-only and recv-only groups per channel. *)
      let send_only = Hashtbl.create 4 and recv_only = Hashtbl.create 4 in
      Hashtbl.iter
        (fun root () ->
          let tb = tb_of_group rank root in
          match (tb.send_conn, tb.recv_conn) with
          | Some (_, ch), None ->
              Hashtbl.replace send_only ch
                ((root, tb) :: Option.value ~default:[] (Hashtbl.find_opt send_only ch))
          | None, Some (_, ch) ->
              Hashtbl.replace recv_only ch
                ((root, tb) :: Option.value ~default:[] (Hashtbl.find_opt recv_only ch))
          | Some _, Some _ | None, None -> ())
        roots_of_group.(rank);
      Hashtbl.iter
        (fun ch senders ->
          match Hashtbl.find_opt recv_only ch with
          | None -> ()
          | Some receivers ->
              let by_peer sel (r1, t1) (r2, t2) =
                compare (sel t1, r1) (sel t2, r2)
              in
              let senders = List.sort (by_peer (fun t -> t.send_conn)) senders in
              let receivers =
                List.sort (by_peer (fun t -> t.recv_conn)) receivers
              in
              let rec pair ss rs =
                match (ss, rs) with
                | (sroot, stb) :: ss', (_rroot, rtb) :: rs' ->
                    rtb.send_conn <- stb.send_conn;
                    Hashtbl.replace merged_into (rank, sroot) rtb;
                    Hashtbl.remove groups.(rank) sroot;
                    pair ss' rs'
                | [], _ | _, [] -> ()
              in
              pair senders receivers)
        send_only)
    item_ids;
  (* Map each instruction to its thread block (communication instructions
     only; local instructions are placed greedily during the topological
     assignment). *)
  let tb_of_instr = Hashtbl.create 64 in
  Array.iter
    (fun (i : Instr.t) ->
      if i.Instr.alive then begin
        let s, r = endpoint_keys i in
        let ep = if s >= 0 then s else r in
        if ep >= 0 then begin
          let rank = i.Instr.rank in
          let root = Union_find.find ufs.(rank) (item_of rank ep) in
          let tb =
            match Hashtbl.find_opt merged_into (rank, root) with
            | Some tb -> tb
            | None -> tb_of_group rank root
          in
          Hashtbl.add tb_of_instr i.Instr.id tb
        end
      end)
    dag.Instr_dag.instrs;
  (* Per-rank thread block lists (deterministic order). *)
  let rank_tbs =
    Array.init num_ranks (fun r ->
        Hashtbl.fold (fun _ tb acc -> tb :: acc) groups.(r) []
        |> List.sort (fun a b ->
               compare
                 (a.tb_chan, a.send_conn, a.recv_conn)
                 (b.tb_chan, b.send_conn, b.recv_conn)))
  in
  (tb_of_instr, rank_tbs)

(* ------------------------------------------------------------------ *)
(* Global topological assignment                                       *)
(* ------------------------------------------------------------------ *)

type conn_state = {
  send_at : (int, int) Hashtbl.t;  (* position -> send instr id *)
  mutable nsends : int;
  mutable next_recv : int;
  deferred : (int, Instr.t) Hashtbl.t;  (* send instr id -> waiting recv *)
  send_queue : Instr.t Queue.t;
      (* sends waiting for FIFO slots: placing a send while [slots]
         sends are already unmatched by receives could deadlock the
         runtime (§6.1), so the scheduler back-pressures here. *)
}

let rank_tbs ~slots ~conn (dag : Instr_dag.t) =
  if slots < 1 then error "need at least one FIFO slot";
  let tb_of_instr, blocks = build_tbs dag in
  let num_ranks = dag.Instr_dag.collective.Collective.num_ranks in
  let instrs = dag.Instr_dag.instrs in
  let n = Array.length instrs in
  let depth, rdepth = Instr_dag.depths dag in
  let priority id =
    let nf = float_of_int (n + 1) in
    (float_of_int depth.(id) *. nf) +. (nf -. float_of_int rdepth.(id))
  in
  let succ_off, succ_tgt = Instr_dag.successors_csr dag in
  let indeg = Array.make n 0 in
  Array.iter
    (fun (i : Instr.t) ->
      indeg.(i.Instr.id) <-
        List.length i.Instr.deps
        + match i.Instr.comm_pred with Some _ -> 1 | None -> 0)
    instrs;
  let heap = Pqueue_ref.create () in
  Array.iter
    (fun (i : Instr.t) ->
      if indeg.(i.Instr.id) = 0 then
        Pqueue_ref.add heap ~priority:(priority i.Instr.id) i)
    instrs;
  let conns = Hashtbl.create 32 in
  let conn_of key =
    match Hashtbl.find_opt conns key with
    | Some c -> c
    | None ->
        let c =
          {
            send_at = Hashtbl.create 8;
            nsends = 0;
            next_recv = 0;
            deferred = Hashtbl.create 4;
            send_queue = Queue.create ();
          }
        in
        Hashtbl.add conns key c;
        c
  in
  let instr_tb : tb_build option array = Array.make n None in
  let instr_step = Array.make n (-1) in
  let local_tb = Array.make num_ranks None in
  let assigned = ref 0 in
  let global = ref 0 in
  let pending = Queue.create () in
  (* Local (no-connection) instructions go to the thread block of the
     dependency that produced their operand, preferring a receiving
     dependency: a local reduce lands in the block that received the data,
     which drops a cross-block sync and keeps placement invariant under
     rank renumbering (the symmetry pass certifies exactly this). Only
     when no same-rank dependency exists do we fall back to the
     least-recently-used block. *)
  let affinity_tb (i : Instr.t) =
    let pick best id =
      match instr_tb.(id) with
      | Some tb when tb.tb_rank = i.Instr.rank ->
          let d = instrs.(id) in
          let score =
            ((if Instr.receives d.Instr.op then 1 else 0), depth.(id), -id)
          in
          (match best with
          | Some (bscore, _) when bscore >= score -> best
          | Some _ | None -> Some (score, tb))
      | Some _ | None -> best
    in
    match List.fold_left pick None i.Instr.deps with
    | Some (_, tb) -> Some tb
    | None -> None
  in
  let pick_local_tb (i : Instr.t) =
    let rank = i.Instr.rank in
    match blocks.(rank) with
    | [] -> (
        match local_tb.(rank) with
        | Some tb -> tb
        | None ->
            let tb = new_tb rank in
            local_tb.(rank) <- Some tb;
            blocks.(rank) <- [ tb ];
            tb)
    | tbs -> (
        match affinity_tb i with
        | Some tb -> tb
        | None ->
            List.fold_left
              (fun best tb ->
                if tb.last_global < best.last_global then tb else best)
              (List.hd tbs) tbs)
  in
  (* Try to place an instruction; defers it when FIFO order on its receive
     connection or FIFO slot back-pressure on its send connection forbids
     placing it yet. *)
  let try_assign (i : Instr.t) =
    let ch = Option.get i.Instr.ch in
    let recv_conn_key () =
      conn ~src:(Option.get i.Instr.recv_peer) ~dst:i.Instr.rank ~ch
    in
    let send_conn_key () =
      conn ~src:i.Instr.rank ~dst:(Option.get i.Instr.send_peer) ~ch
    in
    let recv_ready =
      if Instr.receives i.Instr.op then begin
        let c = conn_of (recv_conn_key ()) in
        let sender = Option.get i.Instr.comm_pred in
        if
          c.next_recv < c.nsends
          && Hashtbl.find c.send_at c.next_recv = sender
        then true
        else begin
          Hashtbl.replace c.deferred sender i;
          false
        end
      end
      else true
    in
    let ready =
      recv_ready
      &&
      if Instr.sends i.Instr.op then begin
        let c = conn_of (send_conn_key ()) in
        if c.nsends - c.next_recv < slots then true
        else begin
          Queue.add i c.send_queue;
          false
        end
      end
      else true
    in
    if ready then begin
      let tb =
        match Hashtbl.find_opt tb_of_instr i.Instr.id with
        | Some tb -> tb
        | None -> pick_local_tb i
      in
      instr_tb.(i.Instr.id) <- Some tb;
      instr_step.(i.Instr.id) <- tb.nsteps;
      tb.nsteps <- tb.nsteps + 1;
      tb.steps_rev <- i :: tb.steps_rev;
      tb.last_global <- !global;
      incr global;
      incr assigned;
      let wake_head_recv c =
        if c.next_recv < c.nsends then
          let head = Hashtbl.find c.send_at c.next_recv in
          match Hashtbl.find_opt c.deferred head with
          | Some r ->
              Hashtbl.remove c.deferred head;
              Queue.add r pending
          | None -> ()
      in
      if Instr.receives i.Instr.op then begin
        let c = conn_of (recv_conn_key ()) in
        c.next_recv <- c.next_recv + 1;
        (* Unblock a deferred receive that is now head-of-line, and sends
           for which a FIFO slot just opened. *)
        wake_head_recv c;
        if (not (Queue.is_empty c.send_queue))
           && c.nsends - c.next_recv < slots
        then Queue.add (Queue.pop c.send_queue) pending
      end;
      if Instr.sends i.Instr.op then begin
        let c = conn_of (send_conn_key ()) in
        Hashtbl.add c.send_at c.nsends i.Instr.id;
        c.nsends <- c.nsends + 1;
        wake_head_recv c
      end;
      let id = i.Instr.id in
      for k = succ_off.(id) to succ_off.(id + 1) - 1 do
        let s = succ_tgt.(k) in
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then
          Pqueue_ref.add heap ~priority:(priority s) instrs.(s)
      done
    end
  in
  let rec drive () =
    if not (Queue.is_empty pending) then begin
      try_assign (Queue.pop pending);
      drive ()
    end
    else
      match Pqueue_ref.pop heap with
      | Some (_, i) ->
          try_assign i;
          drive ()
      | None -> ()
  in
  drive ();
  if !assigned <> n then
    error
      "could not schedule %d instruction(s): receive order on a shared \
       connection contradicts instruction dependencies; separate the \
       transfers with channel directives"
      (n - !assigned);
  (* ---------------------------------------------------------------- *)
  (* Emission                                                          *)
  (* ---------------------------------------------------------------- *)
  Array.iteri
    (fun _r tbs -> List.iteri (fun idx tb -> tb.final_id <- idx) tbs)
    blocks;
  (* Cross thread-block dependencies, deduplicated per source tb (keeping
     the latest step, since semaphores are monotonic). *)
  let has_dep = Array.make n false in
  (* Dependency lists are a handful of entries, so dedup by source tb with
     a small assoc list rather than a Hashtbl per emitted step. *)
  let depends_of (i : Instr.t) =
    let tb = Option.get instr_tb.(i.Instr.id) in
    let per_tb = ref [] in
    List.iter
      (fun d ->
        let dtb = Option.get instr_tb.(d) in
        if dtb != tb then begin
          let key = dtb.final_id in
          let step = instr_step.(d) in
          let rec upsert = function
            | [] -> [ (key, (step, d)) ]
            | ((k, (prev_step, _)) as e) :: rest ->
                if k = key then
                  if step > prev_step then (k, (step, d)) :: rest
                  else e :: rest
                else e :: upsert rest
          in
          per_tb := upsert !per_tb
        end)
      i.Instr.deps;
    List.map (fun (tbid, (step, d)) -> ((tbid, step), d)) !per_tb
    |> List.sort compare
  in
  let tbs =
    Array.map
      (fun tbs ->
        List.map
          (fun tb ->
            let steps = Array.of_list (List.rev tb.steps_rev) in
            let steps =
              Array.mapi
                (fun si (i : Instr.t) ->
                  let depends = depends_of i in
                  List.iter (fun (_, d) -> has_dep.(d) <- true) depends;
                  {
                    Ir.s = si;
                    op = i.Instr.op;
                    src = i.Instr.src;
                    dst = i.Instr.dst;
                    count = i.Instr.count;
                    depends = List.map fst depends;
                    has_dep = false (* fixed below *);
                  })
                steps
            in
            let peer = function Some (p, _) -> p | None -> -1 in
            {
              Ir.tb_id = tb.final_id;
              send = peer tb.send_conn;
              recv = peer tb.recv_conn;
              chan = tb.tb_chan;
              steps;
            })
          tbs
        |> Array.of_list)
      blocks
  in
  (* Second pass: mark has_dep on the targeted steps. *)
  Array.iter
    (fun (i : Instr.t) ->
      if has_dep.(i.Instr.id) then begin
        let tb = Option.get instr_tb.(i.Instr.id) in
        let steps = tbs.(tb.tb_rank).(tb.final_id).Ir.steps in
        let step = instr_step.(i.Instr.id) in
        steps.(step) <- { (steps.(step)) with Ir.has_dep = true }
      end)
    instrs;
  tbs

let run ?(proto = Msccl_topology.Protocol.Simple) ?name ?slots
    (dag : Instr_dag.t) =
  let slots =
    match slots with
    | Some s -> s
    | None -> Msccl_topology.Protocol.num_slots proto
  in
  let dag = compact dag in
  Instr_dag.validate dag;
  assign_channels dag;
  let tbs = rank_tbs ~slots ~conn:(fun ~src ~dst ~ch -> (src, dst, ch)) dag in
  let coll = dag.Instr_dag.collective in
  let gpus =
    Array.mapi
      (fun rank tbs ->
        {
          Ir.gpu_id = rank;
          input_chunks = Collective.input_buffer_size coll;
          output_chunks = Collective.output_buffer_size coll;
          scratch_chunks = dag.Instr_dag.scratch_sizes.(rank);
          tbs;
        })
      tbs
  in
  let ir =
    {
      Ir.name = Option.value name ~default:dag.Instr_dag.name;
      collective = coll;
      proto;
      gpus;
    }
  in
  Ir.validate ir;
  ir

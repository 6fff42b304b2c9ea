exception Scheduling_error of string

let error fmt = Format.kasprintf (fun s -> raise (Scheduling_error s)) fmt

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

let tb_order keys =
  let order = Array.init (Array.length keys) Fun.id in
  Array.stable_sort (fun a b -> compare keys.(a) keys.(b)) order;
  order

(* Connections (src, dst, ch) get dense ids in order of first use.
   Connection [c]'s send endpoint is [2c], on rank src; its receive
   endpoint is [2c + 1], on rank dst. *)
type conns = {
  key : (int * int * int) array;  (* connection -> (src, dst, ch) *)
  send_conn : int array;  (* instruction -> connection it sends on, or -1 *)
  recv_conn : int array;  (* instruction -> connection it receives on *)
}

let connections (instrs : Instr.t array) =
  let n = Array.length instrs in
  let ids = Hashtbl.create 64 and keys = ref [] in
  let id_of ((_, _, ch) as key) =
    match Hashtbl.find_opt ids key with
    | Some c -> c
    | None ->
        if ch < 0 then error "channel %d out of range" ch;
        let c = Hashtbl.length ids in
        Hashtbl.add ids key c;
        keys := key :: !keys;
        c
  in
  let send_conn = Array.make n (-1) and recv_conn = Array.make n (-1) in
  Array.iter
    (fun (i : Instr.t) ->
      let ch = Option.get i.Instr.ch in
      if Instr.sends i.Instr.op then
        send_conn.(i.Instr.id) <-
          id_of (i.Instr.rank, Option.get i.Instr.send_peer, ch);
      if Instr.receives i.Instr.op then
        recv_conn.(i.Instr.id) <-
          id_of (Option.get i.Instr.recv_peer, i.Instr.rank, ch))
    instrs;
  { key = Array.of_list (List.rev !keys); send_conn; recv_conn }

(* Thread blocks of all ranks, numbered globally: rank [r] owns blocks
   [first.(r)] to [first.(r + 1) - 1], in MSCCL-IR order, and block [b]
   has [tb_key.(b)] = (chan, send peer, recv peer). *)
type blocks = {
  first : int array;
  tb_key : (int * int * int) array;
  instr_block : int array;
      (* instruction -> block; -1 for local instructions until placed *)
}

(* Group connection endpoints with union-find: a fused instruction joins
   its send and receive endpoints, and each group becomes one thread
   block. Then pair up send-only and receive-only groups on the same
   (rank, channel): a thread block owns one send and one receive
   connection (paper §5, step 2's (send-peer, receive-peer, channel)
   tuples), which halves the thread-block count and the SM footprint. The
   pairing is deterministic (sorted by peer). *)
let form_blocks ~num_ranks (instrs : Instr.t array) cs =
  let ne = 2 * Array.length cs.key in
  let uf = Union_find.create ne in
  let used = Array.make ne false in
  Array.iteri
    (fun id _ ->
      let s = cs.send_conn.(id) and r = cs.recv_conn.(id) in
      if s >= 0 then used.(2 * s) <- true;
      if r >= 0 then used.((2 * r) + 1) <- true;
      if s >= 0 && r >= 0 then Union_find.union uf (2 * s) ((2 * r) + 1))
    instrs;
  let rank_of e =
    let src, dst, _ = cs.key.(e / 2) in
    if e land 1 = 0 then src else dst
  in
  (* An endpoint's peer is the rank of the connection's other endpoint. *)
  let peer_of e = rank_of (e lxor 1) in
  let chan_of e = let _, _, ch = cs.key.(e / 2) in ch in
  (* Each group's send and receive peer, indexed by its root endpoint. The
     first conflict in endpoint order is reported. *)
  let send = Array.make ne (-1) and recv = Array.make ne (-1) in
  for e = 0 to ne - 1 do
    if used.(e) then begin
      let root = Union_find.find uf e in
      let side, dir, prep =
        if e land 1 = 0 then (send, "send", "to") else (recv, "receive", "from")
      in
      if side.(root) >= 0 then
        error
          "rank %d: a thread block would need two %s connections (%s %d and \
           %d on channel %d); use channel directives to separate them"
          (rank_of e) dir prep side.(root) (peer_of e) (chan_of e);
      side.(root) <- peer_of e
    end
  done;
  let roots =
    List.filter
      (fun e -> used.(e) && Union_find.find uf e = e)
      (List.init ne Fun.id)
  in
  (* Lone groups as ((rank, chan), peer, root), sorted. *)
  let lone side other =
    List.filter (fun e -> side.(e) >= 0 && other.(e) < 0) roots
    |> List.map (fun e -> ((rank_of e, chan_of e), side.(e), e))
    |> List.sort compare
  in
  let absorbed_by = Array.make ne (-1) in
  let rec pair ss rs =
    match (ss, rs) with
    | (sk, _, s) :: ss', (rk, _, r) :: rs' ->
        let c = compare sk rk in
        if c < 0 then pair ss' rs
        else if c > 0 then pair ss rs'
        else begin
          send.(r) <- send.(s);
          absorbed_by.(s) <- r;
          pair ss' rs'
        end
    | [], _ | _, [] -> ()
  in
  pair (lone send recv) (lone recv send);
  (* Number the remaining groups rank by rank in MSCCL-IR order. A rank
     with instructions but no connection gets one block for them, listed
     under root -1. *)
  let by_rank = Array.make num_ranks [] in
  List.iter
    (fun e ->
      let r = rank_of e in
      if absorbed_by.(e) < 0 then by_rank.(r) <- e :: by_rank.(r))
    (List.rev roots);
  Array.iter
    (fun (i : Instr.t) ->
      if by_rank.(i.Instr.rank) = [] then by_rank.(i.Instr.rank) <- [ -1 ])
    instrs;
  let rank_roots = Array.map Array.of_list by_rank in
  let first = Array.make (num_ranks + 1) 0 in
  Array.iteri
    (fun r roots -> first.(r + 1) <- first.(r) + Array.length roots)
    rank_roots;
  let tb_key = Array.make first.(num_ranks) (0, -1, -1) in
  let block_of_root = Array.make ne (-1) in
  Array.iteri
    (fun r roots ->
      let keys =
        Array.map
          (fun e ->
            if e < 0 then (0, -1, -1) else (chan_of e, send.(e), recv.(e)))
          roots
      in
      Array.iteri
        (fun k j ->
          let b = first.(r) + k in
          tb_key.(b) <- keys.(j);
          if roots.(j) >= 0 then block_of_root.(roots.(j)) <- b)
        (tb_order keys))
    rank_roots;
  Array.iteri
    (fun root r -> if r >= 0 then block_of_root.(root) <- block_of_root.(r))
    absorbed_by;
  let instr_block =
    Array.init (Array.length instrs) (fun id ->
        let s = cs.send_conn.(id) and r = cs.recv_conn.(id) in
        let e = if s >= 0 then 2 * s else if r >= 0 then (2 * r) + 1 else -1 in
        if e < 0 then -1 else block_of_root.(Union_find.find uf e))
  in
  { first; tb_key; instr_block }

(* ------------------------------------------------------------------ *)
(* Global topological assignment                                       *)
(* ------------------------------------------------------------------ *)

(* The FIFO state [conn] names for a connection. *)
type fifo = {
  unreceived : int Queue.t;  (* placed sends not yet received, in order *)
  blocked : int Queue.t;
      (* sends waiting for FIFO slots: placing a send while [slots]
         sends are already unmatched by receives could deadlock the
         runtime (§6.1), so the scheduler back-pressures here. *)
}

let rank_tbs ~slots ~conn (dag : Instr_dag.t) =
  if slots < 1 then error "need at least one FIFO slot";
  let num_ranks = dag.Instr_dag.collective.Collective.num_ranks in
  let instrs = dag.Instr_dag.instrs in
  let n = Array.length instrs in
  let cs = connections instrs in
  let { first; tb_key; instr_block } = form_blocks ~num_ranks instrs cs in
  let nblocks = Array.length tb_key in
  let block_rank = Array.make nblocks 0 in
  for r = 0 to num_ranks - 1 do
    Array.fill block_rank first.(r) (first.(r + 1) - first.(r)) r
  done;
  (* Resolve every instruction's FIFO state through [conn] once. *)
  let fifo_ids = Hashtbl.create 64 in
  let fifo_of_conn =
    Array.map
      (fun (src, dst, ch) ->
        let k = conn ~src ~dst ~ch in
        match Hashtbl.find_opt fifo_ids k with
        | Some f -> f
        | None ->
            let f = Hashtbl.length fifo_ids in
            Hashtbl.add fifo_ids k f;
            f)
      cs.key
  in
  let fifos =
    Array.init (Hashtbl.length fifo_ids) (fun _ ->
        { unreceived = Queue.create (); blocked = Queue.create () })
  in
  let fifo_of c = if c < 0 then None else Some fifos.(fifo_of_conn.(c)) in
  (* [waiting.(s)]: the receive deferred until send [s] heads its FIFO. *)
  let waiting = Array.make n (-1) in
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
  let heap = Msccl_sim.Pqueue.create () in
  for id = 0 to n - 1 do
    if indeg.(id) = 0 then Msccl_sim.Pqueue.add heap ~priority:(priority id) id
  done;
  let nsteps = Array.make nblocks 0 in
  let last_placed = Array.make nblocks (-1) in
  let instr_step = Array.make n (-1) in
  let placed = ref 0 in
  let pending = Queue.create () in
  (* Local (no-connection) instructions go to the thread block of the
     dependency that produced their operand, preferring a receiving
     dependency: a local reduce lands in the block that received the data,
     which drops a cross-block sync and keeps placement invariant under
     rank renumbering (the symmetry pass certifies exactly this). Only
     when no same-rank dependency exists do we fall back to the
     least-recently-used block. Every dependency is placed already. *)
  let pick_local_block (i : Instr.t) =
    let rank = i.Instr.rank in
    let score d =
      ((if Instr.receives instrs.(d).Instr.op then 1 else 0), depth.(d), -d)
    in
    let best =
      List.fold_left
        (fun best d ->
          if
            block_rank.(instr_block.(d)) = rank
            && (best < 0 || score d > score best)
          then d
          else best)
        (-1) i.Instr.deps
    in
    if best >= 0 then instr_block.(best)
    else begin
      let lru = ref first.(rank) in
      for b = first.(rank) + 1 to first.(rank + 1) - 1 do
        if last_placed.(b) < last_placed.(!lru) then lru := b
      done;
      !lru
    end
  in
  let wake_head f =
    match Queue.peek_opt f.unreceived with
    | Some head when waiting.(head) >= 0 ->
        Queue.add waiting.(head) pending;
        waiting.(head) <- -1
    | Some _ | None -> ()
  in
  (* Try to place an instruction; defers it when FIFO order on its receive
     connection or FIFO slot back-pressure on its send connection forbids
     placing it yet. *)
  let try_assign id =
    let i = instrs.(id) in
    let recv_fifo = fifo_of cs.recv_conn.(id) in
    let send_fifo = fifo_of cs.send_conn.(id) in
    let ready =
      (match recv_fifo with
      | None -> true
      | Some f ->
          let sender = Option.get i.Instr.comm_pred in
          Queue.peek_opt f.unreceived = Some sender
          || (waiting.(sender) <- id; false))
      &&
      match send_fifo with
      | None -> true
      | Some f ->
          Queue.length f.unreceived < slots || (Queue.add id f.blocked; false)
    in
    if ready then begin
      let b =
        if instr_block.(id) >= 0 then instr_block.(id) else pick_local_block i
      in
      instr_block.(id) <- b;
      instr_step.(id) <- nsteps.(b);
      nsteps.(b) <- nsteps.(b) + 1;
      last_placed.(b) <- !placed;
      incr placed;
      (match recv_fifo with
      | None -> ()
      | Some f ->
          ignore (Queue.pop f.unreceived);
          (* Unblock a deferred receive that is now head-of-line, and a
             send for which a FIFO slot just opened. *)
          wake_head f;
          if (not (Queue.is_empty f.blocked))
             && Queue.length f.unreceived < slots
          then Queue.add (Queue.pop f.blocked) pending);
      (match send_fifo with
      | None -> ()
      | Some f ->
          Queue.add id f.unreceived;
          wake_head f);
      for k = succ_off.(id) to succ_off.(id + 1) - 1 do
        let s = succ_tgt.(k) in
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then
          Msccl_sim.Pqueue.add heap ~priority:(priority s) s
      done
    end
  in
  let rec drive () =
    if not (Queue.is_empty pending) then begin
      try_assign (Queue.pop pending);
      drive ()
    end
    else if not (Msccl_sim.Pqueue.is_empty heap) then begin
      try_assign (Msccl_sim.Pqueue.pop_min heap);
      drive ()
    end
  in
  drive ();
  if !placed <> n then
    error
      "could not schedule %d instruction(s): receive order on a shared \
       connection contradicts instruction dependencies; separate the \
       transfers with channel directives"
      (n - !placed);
  (* ---------------------------------------------------------------- *)
  (* Emission                                                          *)
  (* ---------------------------------------------------------------- *)
  let tb_id b = b - first.(block_rank.(b)) in
  (* Cross thread-block dependencies, deduplicated per source tb (keeping
     the latest step, since semaphores are monotonic). Dependency lists
     are a handful of entries, so dedup with a small assoc list. All are
     worked out before any step is built, so each step record is built
     once with its final [has_dep]. *)
  let has_dep = Array.make n false in
  let depends =
    Array.map
      (fun (i : Instr.t) ->
        let b = instr_block.(i.Instr.id) in
        let upsert per_tb d =
          let db = instr_block.(d) in
          if db = b then per_tb
          else begin
            let key = tb_id db and step = instr_step.(d) in
            let rec go = function
              | [] -> [ (key, step, d) ]
              | ((k, prev_step, _) as e) :: rest ->
                  if k = key then
                    if step > prev_step then (k, step, d) :: rest else e :: rest
                  else e :: go rest
            in
            go per_tb
          end
        in
        match List.fold_left upsert [] i.Instr.deps with
        | [] -> [] (* most steps: skip the sort's set-up *)
        | per_tb ->
            List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) per_tb
            |> List.map (fun (tbid, step, d) ->
                   has_dep.(d) <- true;
                   (tbid, step)))
      instrs
  in
  let steps =
    Array.map
      (fun len ->
        Array.make len
          { Ir.s = 0; op = Instr.Nop; src = None; dst = None; count = 0;
            depends = []; has_dep = false })
      nsteps
  in
  Array.iter
    (fun (i : Instr.t) ->
      let id = i.Instr.id in
      steps.(instr_block.(id)).(instr_step.(id)) <-
        {
          Ir.s = instr_step.(id);
          op = i.Instr.op;
          src = i.Instr.src;
          dst = i.Instr.dst;
          count = i.Instr.count;
          depends = depends.(id);
          has_dep = has_dep.(id);
        })
    instrs;
  Array.init num_ranks (fun r ->
      Array.init (first.(r + 1) - first.(r)) (fun k ->
          let b = first.(r) + k in
          let chan, send, recv = tb_key.(b) in
          { Ir.tb_id = k; send; recv; chan; steps = steps.(b) }))

let run ?(proto = Msccl_topology.Protocol.Simple) ?name ?slots
    (dag : Instr_dag.t) =
  let slots =
    match slots with
    | Some s -> s
    | None -> Msccl_topology.Protocol.num_slots proto
  in
  let dag = Instr_dag.compact dag in
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

exception Scheduling_error of string

let error fmt = Format.kasprintf (fun s -> raise (Scheduling_error s)) fmt

(* The scheduler reads the DAG in place, through its checked graph: dense
   id [k] names live instruction [g.live.(k)], and [g.dense.(id)] is
   instruction [id]'s dense id (-1 when dead). Dense ids number the live
   instructions in id order, so priorities, tie-breaks and error texts
   read the same whatever the dead instructions. *)
type view = { instrs : Instr.t array; g : Instr_dag.graph }

let instr v k = v.instrs.(v.g.Instr_dag.live.(k))

(* ------------------------------------------------------------------ *)
(* Channel assignment                                                  *)
(* ------------------------------------------------------------------ *)

(* Channels live on instructions; the two endpoints of a communication edge
   must agree, and a fused instruction carries one channel for both of its
   connections, so channels are constant over connected components of the
   "comm edge" graph. User directives seed components; the rest get the
   lowest channel (0). Conflicting directives inside a component are
   errors, naming instructions by dense id. Returns each dense id's
   channel. *)
let channels v =
  let dense = v.g.Instr_dag.dense in
  let m = Array.length v.g.Instr_dag.live in
  let uf = Union_find.create m in
  for k = 0 to m - 1 do
    match (instr v k).Instr.comm_pred with
    | Some s -> Union_find.union uf k dense.(s)
    | None -> ()
  done;
  (* root -> channel and the instruction that chose it (-1: none yet) *)
  let chosen = Array.make m 0 and witness = Array.make m (-1) in
  for k = 0 to m - 1 do
    match (instr v k).Instr.ch with
    | None -> ()
    | Some c ->
        let root = Union_find.find uf k in
        if witness.(root) < 0 then begin
          chosen.(root) <- c;
          witness.(root) <- k
        end
        else if c <> chosen.(root) then
          error
            "conflicting channel directives %d (instr %d) and %d (instr %d) \
             on one fused/communication chain"
            chosen.(root) witness.(root) c k
  done;
  Array.init m (fun k -> chosen.(Union_find.find uf k))

(* ------------------------------------------------------------------ *)
(* Thread block formation                                              *)
(* ------------------------------------------------------------------ *)

let tb_order keys =
  let order = Array.init (Array.length keys) Fun.id in
  Array.stable_sort
    (fun a b ->
      let c1, s1, r1 = keys.(a) and c2, s2, r2 = keys.(b) in
      let c = Int.compare c1 c2 in
      if c <> 0 then c
      else
        let c = Int.compare s1 s2 in
        if c <> 0 then c else Int.compare r1 r2)
    order;
  order

(* Int-keyed table (connection lookups key on a rank pair). *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x5bd1e995 in
    h lxor (h lsr 24)
end)

(* Connections (src, dst, ch) get dense ids in order of first use.
   Connection [c]'s send endpoint is [2c], on rank src; its receive
   endpoint is [2c + 1], on rank dst. *)
type conns = {
  nconn : int;
  c_src : int array;  (* connection -> source rank *)
  c_dst : int array;
  c_ch : int array;
  send_conn : int array;  (* dense id -> connection it sends on, or -1 *)
  recv_conn : int array;  (* dense id -> connection it receives on *)
}

let connections v ~num_ranks ~chan =
  let m = Array.length v.g.Instr_dag.live in
  let cap = ref 16 in
  let c_src = ref (Array.make !cap 0)
  and c_dst = ref (Array.make !cap 0)
  and c_ch = ref (Array.make !cap 0)
  and c_next = ref (Array.make !cap (-1)) in
  let nconn = ref 0 in
  (* (src, dst) -> the latest connection between them; [c_next] chains
     the earlier ones, one per channel. *)
  let heads = Itbl.create 64 in
  let grow () =
    let g a fill =
      let b = Array.make (2 * !cap) fill in
      Array.blit !a 0 b 0 !cap;
      a := b
    in
    g c_src 0;
    g c_dst 0;
    g c_ch 0;
    g c_next (-1);
    cap := 2 * !cap
  in
  let id_of src dst ch =
    let key = (src * num_ranks) + dst in
    let head =
      match Itbl.find heads key with h -> h | exception Not_found -> -1
    in
    let c = ref head in
    while
      !c >= 0
      && not (!c_ch.(!c) = ch && !c_src.(!c) = src && !c_dst.(!c) = dst)
    do
      c := !c_next.(!c)
    done;
    if !c >= 0 then !c
    else begin
      if ch < 0 then error "channel %d out of range" ch;
      let c = !nconn in
      if c = !cap then grow ();
      !c_src.(c) <- src;
      !c_dst.(c) <- dst;
      !c_ch.(c) <- ch;
      !c_next.(c) <- head;
      Itbl.replace heads key c;
      nconn := c + 1;
      c
    end
  in
  let send_conn = Array.make m (-1) and recv_conn = Array.make m (-1) in
  for k = 0 to m - 1 do
    let i = instr v k and ch = chan.(k) in
    if Instr.sends i.Instr.op then
      send_conn.(k) <- id_of i.Instr.rank (Option.get i.Instr.send_peer) ch;
    if Instr.receives i.Instr.op then
      recv_conn.(k) <- id_of (Option.get i.Instr.recv_peer) i.Instr.rank ch
  done;
  {
    nconn = !nconn;
    c_src = !c_src;
    c_dst = !c_dst;
    c_ch = !c_ch;
    send_conn;
    recv_conn;
  }

(* Thread blocks of all ranks, numbered globally: rank [r] owns blocks
   [first.(r)] to [first.(r + 1) - 1], in MSCCL-IR order, and block [b]
   has channel [tb_chan.(b)], send peer [tb_send.(b)] and receive peer
   [tb_recv.(b)] (-1 when absent). *)
type blocks = {
  first : int array;
  tb_chan : int array;
  tb_send : int array;
  tb_recv : int array;
  instr_block : int array;
      (* dense id -> block; -1 for local instructions until placed *)
}

(* Group connection endpoints with union-find: a fused instruction joins
   its send and receive endpoints, and each group becomes one thread
   block. Then pair up send-only and receive-only groups on the same
   (rank, channel): a thread block owns one send and one receive
   connection (paper §5, step 2's (send-peer, receive-peer, channel)
   tuples), which halves the thread-block count and the SM footprint. The
   pairing is deterministic (sorted by peer). *)
let form_blocks ~num_ranks v cs =
  let m = Array.length v.g.Instr_dag.live in
  let ne = 2 * cs.nconn in
  let uf = Union_find.create ne in
  let used = Array.make ne false in
  for k = 0 to m - 1 do
    let s = cs.send_conn.(k) and r = cs.recv_conn.(k) in
    if s >= 0 then used.(2 * s) <- true;
    if r >= 0 then used.((2 * r) + 1) <- true;
    if s >= 0 && r >= 0 then Union_find.union uf (2 * s) ((2 * r) + 1)
  done;
  let rank_of e = if e land 1 = 0 then cs.c_src.(e / 2) else cs.c_dst.(e / 2) in
  (* An endpoint's peer is the rank of the connection's other endpoint. *)
  let peer_of e = rank_of (e lxor 1) in
  let chan_of e = cs.c_ch.(e / 2) in
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
  let is_root e = used.(e) && Union_find.find uf e = e in
  (* Lone groups (one side only), sorted by (rank, chan, peer). No two
     share all three: the peer and channel name the connection. *)
  let lone side other =
    let l = ref [] in
    for e = ne - 1 downto 0 do
      if is_root e && side.(e) >= 0 && other.(e) < 0 then l := e :: !l
    done;
    let a = Array.of_list !l in
    Array.stable_sort
      (fun x y ->
        let c = Int.compare (rank_of x) (rank_of y) in
        if c <> 0 then c
        else
          let c = Int.compare (chan_of x) (chan_of y) in
          if c <> 0 then c else Int.compare side.(x) side.(y))
      a;
    a
  in
  let ss = lone send recv and rs = lone recv send in
  let absorbed_by = Array.make ne (-1) in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length ss && !j < Array.length rs do
    let s = ss.(!i) and r = rs.(!j) in
    let c = Int.compare (rank_of s) (rank_of r) in
    let c = if c <> 0 then c else Int.compare (chan_of s) (chan_of r) in
    if c < 0 then incr i
    else if c > 0 then incr j
    else begin
      send.(r) <- send.(s);
      absorbed_by.(s) <- r;
      incr i;
      incr j
    end
  done;
  (* Number the remaining groups rank by rank in MSCCL-IR order. A rank
     with instructions but no connection gets one block for them, with no
     root (-1). *)
  let kept e = is_root e && absorbed_by.(e) < 0 in
  let groups = Array.make num_ranks 0
  and has_instr = Array.make num_ranks false in
  for e = 0 to ne - 1 do
    if kept e then groups.(rank_of e) <- groups.(rank_of e) + 1
  done;
  for k = 0 to m - 1 do
    has_instr.((instr v k).Instr.rank) <- true
  done;
  let first = Array.make (num_ranks + 1) 0 in
  for r = 0 to num_ranks - 1 do
    let blocks = if groups.(r) = 0 && has_instr.(r) then 1 else groups.(r) in
    first.(r + 1) <- first.(r) + blocks
  done;
  let nblocks = first.(num_ranks) in
  let root = Array.make nblocks (-1) and fill = Array.sub first 0 num_ranks in
  for e = 0 to ne - 1 do
    if kept e then begin
      let r = rank_of e in
      root.(fill.(r)) <- e;
      fill.(r) <- fill.(r) + 1
    end
  done;
  let tb_chan = Array.make nblocks 0
  and tb_send = Array.make nblocks (-1)
  and tb_recv = Array.make nblocks (-1) in
  let block_of_root = Array.make ne (-1) in
  for r = 0 to num_ranks - 1 do
    let lo = first.(r) in
    let order =
      tb_order
        (Array.init (first.(r + 1) - lo) (fun j ->
             let e = root.(lo + j) in
             if e < 0 then (0, -1, -1) else (chan_of e, send.(e), recv.(e))))
    in
    Array.iteri
      (fun k j ->
        let b = lo + k and e = root.(lo + j) in
        if e >= 0 then begin
          tb_chan.(b) <- chan_of e;
          tb_send.(b) <- send.(e);
          tb_recv.(b) <- recv.(e);
          block_of_root.(e) <- b
        end)
      order
  done;
  Array.iteri
    (fun e r -> if r >= 0 then block_of_root.(e) <- block_of_root.(r))
    absorbed_by;
  let instr_block =
    Array.init m (fun k ->
        let s = cs.send_conn.(k) and r = cs.recv_conn.(k) in
        let e = if s >= 0 then 2 * s else if r >= 0 then (2 * r) + 1 else -1 in
        if e < 0 then -1 else block_of_root.(Union_find.find uf e))
  in
  { first; tb_chan; tb_send; tb_recv; instr_block }

(* ------------------------------------------------------------------ *)
(* Global topological assignment                                       *)
(* ------------------------------------------------------------------ *)

(* Queues of dense ids as linked lists in int arrays: queue [q]'s ids run
   from [head.(q)] along [next] to [tail.(q)] (-1 when empty). An id is in
   at most one queue of a family at a time, so one [next] array serves
   them all. *)
type queues = {
  head : int array;
  tail : int array;
  len : int array;
  next : int array;
}

let queues ~count ~ids =
  {
    head = Array.make count (-1);
    tail = Array.make count (-1);
    len = Array.make count 0;
    next = Array.make ids (-1);
  }

let q_add qs q k =
  qs.next.(k) <- -1;
  if qs.tail.(q) < 0 then qs.head.(q) <- k else qs.next.(qs.tail.(q)) <- k;
  qs.tail.(q) <- k;
  qs.len.(q) <- qs.len.(q) + 1

let q_pop qs q =
  let k = qs.head.(q) in
  qs.head.(q) <- qs.next.(k);
  if qs.head.(q) < 0 then qs.tail.(q) <- -1;
  qs.len.(q) <- qs.len.(q) - 1;
  k

(* The scheduling core over dense ids. [chan] is each instruction's
   channel; [fifo_ids cs] numbers the FIFO state of each connection and
   says how many there are. Placement counts the graph's [indeg] down. *)
let place ~slots ~num_ranks ~fifo_ids v chan =
  if slots < 1 then error "need at least one FIFO slot";
  let { Instr_dag.live; dense; off = succ_off; tgt = succ_tgt; indeg; depth;
        rdepth } =
    v.g
  in
  let n = Array.length live in
  let cs = connections v ~num_ranks ~chan in
  let { first; tb_chan; tb_send; tb_recv; instr_block } =
    form_blocks ~num_ranks v cs
  in
  let nblocks = Array.length tb_chan in
  let block_rank = Array.make nblocks 0 in
  for r = 0 to num_ranks - 1 do
    Array.fill block_rank first.(r) (first.(r + 1) - first.(r)) r
  done;
  (* Every instruction's FIFO states, resolved once: -1 for none. *)
  let fifo_of_conn, nfifos = fifo_ids cs in
  let fifo c = if c < 0 then -1 else fifo_of_conn.(c) in
  (* Per FIFO state: placed sends not yet received, in order, and sends
     waiting for FIFO slots (placing a send while [slots] sends are
     already unmatched by receives could deadlock the runtime, §6.1, so
     the scheduler back-pressures here). *)
  let unreceived = queues ~count:nfifos ~ids:n
  and blocked = queues ~count:nfifos ~ids:n in
  (* Deferred instructions ready to be retried, in order (queue 0). *)
  let pending = queues ~count:1 ~ids:n in
  (* [waiting.(s)]: the receive deferred until send [s] heads its FIFO. *)
  let waiting = Array.make n (-1) in
  let priority k =
    let nf = float_of_int (n + 1) in
    (float_of_int depth.(k) *. nf) +. (nf -. float_of_int rdepth.(k))
  in
  let heap = Msccl_sim.Pqueue.create () in
  for k = 0 to n - 1 do
    if indeg.(k) = 0 then Msccl_sim.Pqueue.add heap ~priority:(priority k) k
  done;
  let nsteps = Array.make nblocks 0 in
  let last_placed = Array.make nblocks (-1) in
  let instr_step = Array.make n (-1) in
  let placed = ref 0 in
  (* Local (no-connection) instructions go to the thread block of the
     dependency that produced their operand, preferring a receiving
     dependency: a local reduce lands in the block that received the data,
     which drops a cross-block sync and keeps placement invariant under
     rank renumbering (the symmetry pass certifies exactly this). Only
     when no same-rank dependency exists do we fall back to the
     least-recently-used block. Every dependency is placed already. *)
  (* Whether dependency [d] beats [b]: (receives, depth, -id),
     lexicographically. *)
  let better d b =
    let rd = Instr.receives (instr v d).Instr.op
    and rb = Instr.receives (instr v b).Instr.op in
    if rd <> rb then rd
    else if depth.(d) <> depth.(b) then depth.(d) > depth.(b)
    else d < b
  in
  let rec best_dep rank best = function
    | [] -> best
    | d :: rest ->
        let d = dense.(d) in
        if block_rank.(instr_block.(d)) = rank && (best < 0 || better d best)
        then best_dep rank d rest
        else best_dep rank best rest
  in
  let pick_local_block (i : Instr.t) =
    let rank = i.Instr.rank in
    let best = best_dep rank (-1) i.Instr.deps in
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
    let head = unreceived.head.(f) in
    if head >= 0 && waiting.(head) >= 0 then begin
      q_add pending 0 waiting.(head);
      waiting.(head) <- -1
    end
  in
  (* Try to place an instruction; defers it when FIFO order on its receive
     connection or FIFO slot back-pressure on its send connection forbids
     placing it yet. *)
  let try_assign k =
    let i = instr v k in
    let recv_fifo = fifo cs.recv_conn.(k) in
    let send_fifo = fifo cs.send_conn.(k) in
    let ready =
      (recv_fifo < 0
      ||
      let sender = dense.(Option.get i.Instr.comm_pred) in
      unreceived.head.(recv_fifo) = sender
      || (waiting.(sender) <- k; false))
      && (send_fifo < 0
         || unreceived.len.(send_fifo) < slots
         || (q_add blocked send_fifo k; false))
    in
    if ready then begin
      let b =
        if instr_block.(k) >= 0 then instr_block.(k) else pick_local_block i
      in
      instr_block.(k) <- b;
      instr_step.(k) <- nsteps.(b);
      nsteps.(b) <- nsteps.(b) + 1;
      last_placed.(b) <- !placed;
      incr placed;
      if recv_fifo >= 0 then begin
        let f = recv_fifo in
        ignore (q_pop unreceived f);
        (* Unblock a deferred receive that is now head-of-line, and a
           send for which a FIFO slot just opened. *)
        wake_head f;
        if blocked.len.(f) > 0 && unreceived.len.(f) < slots then
          q_add pending 0 (q_pop blocked f)
      end;
      if send_fifo >= 0 then begin
        q_add unreceived send_fifo k;
        wake_head send_fifo
      end;
      for e = succ_off.(k) to succ_off.(k + 1) - 1 do
        let s = succ_tgt.(e) in
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then
          Msccl_sim.Pqueue.add heap ~priority:(priority s) s
      done
    end
  in
  let rec drive () =
    if pending.len.(0) > 0 then begin
      try_assign (q_pop pending 0);
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
     the latest step, since semaphores are monotonic) and sorted by tb.
     All are worked out before any step is built, so each step record is
     built once with its final [has_dep]. [latest.(db)] is the latest
     step of block [db] the current step depends on (-1: none), reached
     through instruction [via.(db)]. *)
  let has_dep = Array.make n false in
  let latest = Array.make nblocks (-1) and via = Array.make nblocks 0 in
  (* The other blocks among the dependencies, each once. *)
  let rec note b touched = function
    | [] -> touched
    | d :: rest ->
        let d = dense.(d) in
        let db = instr_block.(d) in
        if db = b then note b touched rest
        else begin
          let touched = if latest.(db) < 0 then db :: touched else touched in
          if instr_step.(d) > latest.(db) then begin
            latest.(db) <- instr_step.(d);
            via.(db) <- d
          end;
          note b touched rest
        end
  in
  (* Blocks of one rank sort as their tb ids do. *)
  let emit acc db =
    has_dep.(via.(db)) <- true;
    let dep = (tb_id db, latest.(db)) in
    latest.(db) <- -1;
    dep :: acc
  in
  let depends = Array.make n [] in
  for k = 0 to n - 1 do
    match note instr_block.(k) [] (instr v k).Instr.deps with
    | [] -> () (* most steps *)
    | touched ->
        depends.(k) <-
          List.fold_left emit []
            (List.sort (fun a b -> Int.compare b a) touched)
  done;
  let steps =
    Array.map
      (fun len ->
        Array.make len
          { Ir.s = 0; op = Instr.Nop; src = None; dst = None; count = 0;
            depends = []; has_dep = false })
      nsteps
  in
  for k = 0 to n - 1 do
    let i = instr v k in
    steps.(instr_block.(k)).(instr_step.(k)) <-
      {
        Ir.s = instr_step.(k);
        op = i.Instr.op;
        src = i.Instr.src;
        dst = i.Instr.dst;
        count = i.Instr.count;
        depends = depends.(k);
        has_dep = has_dep.(k);
      }
  done;
  Array.init num_ranks (fun r ->
      Array.init (first.(r + 1) - first.(r)) (fun k ->
          let b = first.(r) + k in
          {
            Ir.tb_id = k;
            send = tb_send.(b);
            recv = tb_recv.(b);
            chan = tb_chan.(b);
            steps = steps.(b);
          }))

(* The one path from a DAG to each rank's thread blocks: the checked
   graph, the channels (malformed DAGs and conflicting directives raise
   here), then placement of every live instruction as [lift] maps it.
   Placement's errors come back as [Error]. *)
let schedule ~slots ~fifo_ids ?lift (dag : Instr_dag.t) =
  let g = Instr_dag.checked_graph dag in
  let chan = channels { instrs = dag.Instr_dag.instrs; g } in
  let instrs =
    match lift with
    | None -> dag.Instr_dag.instrs
    | Some f ->
        Array.map
          (fun (i : Instr.t) -> if i.Instr.alive then f i else i)
          dag.Instr_dag.instrs
  in
  match
    place ~slots
      ~num_ranks:dag.Instr_dag.collective.Collective.num_ranks
      ~fifo_ids { instrs; g } chan
  with
  | tbs -> Ok tbs
  | exception Scheduling_error m -> Error m

let rank_tbs ~slots ~conn ~lift dag =
  (* FIFO states are numbered in connection order; [conn]'s results are
     compared structurally. *)
  let fifo_ids cs =
    let ids = Hashtbl.create 64 in
    let f =
      Array.init cs.nconn (fun c ->
          let k = conn ~src:cs.c_src.(c) ~dst:cs.c_dst.(c) ~ch:cs.c_ch.(c) in
          match Hashtbl.find_opt ids k with
          | Some f -> f
          | None ->
              let f = Hashtbl.length ids in
              Hashtbl.add ids k f;
              f)
    in
    (f, Hashtbl.length ids)
  in
  schedule ~slots ~fifo_ids ~lift dag

let run ?(proto = Msccl_topology.Protocol.Simple) ?name ?slots
    (dag : Instr_dag.t) =
  let slots =
    match slots with
    | Some s -> s
    | None -> Msccl_topology.Protocol.num_slots proto
  in
  (* Every connection is its own FIFO state. *)
  let fifo_ids cs = (Array.init cs.nconn Fun.id, cs.nconn) in
  let tbs =
    match schedule ~slots ~fifo_ids dag with
    | Ok tbs -> tbs
    | Error m -> raise (Scheduling_error m)
  in
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

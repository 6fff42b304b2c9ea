type t = {
  n : int;
  blocks : int array array;  (* gpu id -> tb id -> block, or -1 *)
  block_of : int array;  (* node -> block: thread blocks in IR order *)
  block_gpu : int array;  (* block -> gpu id *)
  block_tb : int array;  (* block -> tb id *)
  first : int array;
      (* block -> its first node; its steps are first.(b) ..
         first.(b + 1) - 1 *)
  off : int array;
      (* CSR adjacency: the successors of i are tgt.(off.(i)) ..
         tgt.(off.(i + 1) - 1), in insertion order *)
  tgt : int array;
  gpu_lo : int array;  (* gpu id -> [gpu_lo, gpu_hi) node id range *)
  gpu_hi : int array;
  mismatches : (int * int * int * int * int) list;
  idx : Ir.index;  (* the IR's connection index *)
  mutable sorted : bool;  (* Kahn's algorithm has run *)
  mutable order : int array;
      (* the nodes Kahn's algorithm reaches, in pop order — every node iff
         the graph is acyclic *)
  mutable pos : int array;  (* node -> index in [order]; DAGs only *)
  mutable by_gpu : int array;
  mutable by_gpu_start : int array;
      (* DAGs only: [order] grouped by gpu id, stably, so gpu g's nodes in
         topological order are by_gpu.(by_gpu_start.(g)) ..
         by_gpu.(by_gpu_start.(g + 1) - 1); [||] until first needed *)
  mutable local_gpu : int;
  mutable local_rows : Bytes.t;
      (* one GPU's intra-GPU closure: row a - lo is the [local_stride]
         bytes at (a - lo) * local_stride, bit b - lo. Only the most
         recent GPU is kept — race detection visits GPUs one at a time, so
         a single buffer, reused, bounds memory at k^2/8 bytes. *)
  mutable local_stride : int;
  mutable mark : int array;  (* search stamps, allocated by the first search *)
  mutable stack : int array;
  mutable epoch : int;
  mutable q_queries : int;
  mutable q_pos_cutoffs : int;
  mutable q_local_hits : int;
  mutable q_local_builds : int;
  mutable q_dfs : int;
}

type stats = {
  st_nodes : int;
  st_edges : int;
  st_queries : int;
  st_pos_cutoffs : int;
  st_local_hits : int;
  st_local_builds : int;
  st_dfs : int;
}

let num_nodes t = t.n

(* The id of a step, or -1. Checked against its block's length so that
   a step outside its thread block never lands on a neighbouring block's
   node. *)
let find_node t ~gpu ~tb ~step =
  if gpu < 0 || gpu >= Array.length t.blocks then -1
  else
    let ids = t.blocks.(gpu) in
    if tb < 0 || tb >= Array.length ids || ids.(tb) < 0 then -1
    else
      let b = ids.(tb) in
      if step < 0 || step >= t.first.(b + 1) - t.first.(b) then -1
      else t.first.(b) + step

let node t ~gpu ~tb ~step =
  match find_node t ~gpu ~tb ~step with -1 -> raise Not_found | i -> i

let gpu_of t i = t.block_gpu.(t.block_of.(i))

let coords t i =
  let b = t.block_of.(i) in
  (t.block_gpu.(b), t.block_tb.(b), i - t.first.(b))

let succs t i =
  let acc = ref [] in
  for e = t.off.(i + 1) - 1 downto t.off.(i) do
    acc := t.tgt.(e) :: !acc
  done;
  !acc

let mismatched_connections t = t.mismatches

let index t = t.idx

(* An int array filled from the front, sized up front. *)
type ints = { a : int array; mutable len : int }

let ints cap = { a = Array.make cap 0; len = 0 }

let push v x =
  v.a.(v.len) <- x;
  v.len <- v.len + 1

(* Counting sort of the items 0 .. len - 1 by [key i], in [0, k).
   Returns [start] (bucket j is [start.(j), start.(j + 1))) and the
   items' [value]s grouped by key, in item order within a bucket. *)
let group k len ~key ~value =
  let start = Array.make (k + 1) 0 in
  for i = 0 to len - 1 do
    let j = key i + 1 in
    start.(j) <- start.(j) + 1
  done;
  for j = 1 to k do
    start.(j) <- start.(j) + start.(j - 1)
  done;
  let fill = Array.sub start 0 k and out = Array.make len 0 in
  for i = 0 to len - 1 do
    let j = key i in
    out.(fill.(j)) <- value i;
    fill.(j) <- fill.(j) + 1
  done;
  (start, out)

(* Records d -> i for each of step [i]'s depends that names a step of
   gpu [gid]; dangling targets and self-loops are skipped. *)
let rec push_depends t gid i dep_src dep_dst = function
  | [] -> ()
  | (dtb, dstep) :: rest ->
      (if dstep >= 0 then
         match find_node t ~gpu:gid ~tb:dtb ~step:dstep with
         | -1 -> ()
         | d when d <> i ->
             push dep_src d;
             push dep_dst i
         | _ -> ());
      push_depends t gid i dep_src dep_dst rest

let build ?fifo_slots ?idx (ir : Ir.t) =
  let gpus = ir.Ir.gpus in
  (* Node ids are dense over (gpu, tb, step) in IR order; a block is
     found by (gpu id, tb id), a later duplicate taking the key. *)
  let max_gpu =
    Array.fold_left (fun m (g : Ir.gpu) -> Int.max m g.Ir.gpu_id) (-1) gpus
  in
  let max_tb = Array.make (max_gpu + 1) (-1) in
  (* Blocks, steps and depends entries, to size every array exactly. *)
  let nblocks = ref 0 and n = ref 0 and ndeps = ref 0 in
  Array.iter
    (fun (g : Ir.gpu) ->
      Array.iter
        (fun (tb : Ir.tb) ->
          if g.Ir.gpu_id >= 0 then
            max_tb.(g.Ir.gpu_id) <- Int.max max_tb.(g.Ir.gpu_id) tb.Ir.tb_id;
          incr nblocks;
          n := !n + Array.length tb.Ir.steps;
          Array.iter
            (fun (st : Ir.step) ->
              ndeps := !ndeps + List.length st.Ir.depends)
            tb.Ir.steps)
        g.Ir.tbs)
    gpus;
  let n = !n and nblocks = !nblocks in
  let blocks = Array.map (fun m -> Array.make (m + 1) (-1)) max_tb in
  let block_of = Array.make n 0 and first = Array.make (nblocks + 1) n in
  let block_gpu = Array.make nblocks 0 and block_tb = Array.make nblocks 0 in
  let gpu_lo = Array.make (max_gpu + 1) max_int in
  let gpu_hi = Array.make (max_gpu + 1) 0 in
  (* Coordinates come from the block lengths alone, so the one pass over
     the steps below can resolve every depends. *)
  let b = ref 0 and me = ref 0 in
  Array.iter
    (fun (g : Ir.gpu) ->
      let gid = g.Ir.gpu_id in
      Array.iter
        (fun (tb : Ir.tb) ->
          let base = !me and len = Array.length tb.Ir.steps in
          if gid >= 0 && tb.Ir.tb_id >= 0 then blocks.(gid).(tb.Ir.tb_id) <- !b;
          block_gpu.(!b) <- gid;
          block_tb.(!b) <- tb.Ir.tb_id;
          first.(!b) <- base;
          Array.fill block_of base len !b;
          incr b;
          me := base + len;
          if gid >= 0 && len > 0 then begin
            gpu_lo.(gid) <- Int.min gpu_lo.(gid) base;
            gpu_hi.(gid) <- Int.max gpu_hi.(gid) (base + len)
          end)
        g.Ir.tbs)
    gpus;
  let idx = match idx with Some i -> i | None -> Ir.index ir in
  let t0 =
    {
      n;
      blocks;
      block_of;
      block_gpu;
      block_tb;
      first;
      off = [||];
      tgt = [||];
      gpu_lo;
      gpu_hi;
      mismatches = [];
      idx;
      sorted = false;
      order = [||];
      pos = [||];
      by_gpu = [||];
      by_gpu_start = [||];
      local_gpu = -1;
      local_rows = Bytes.empty;
      local_stride = 0;
      mark = [||];
      stack = [||];
      epoch = 0;
      q_queries = 0;
      q_pos_cutoffs = 0;
      q_local_hits = 0;
      q_local_builds = 0;
      q_dfs = 0;
    }
  in
  let dep_src = ints !ndeps and dep_dst = ints !ndeps in
  (* [kind] marks a node that sends (1) or receives (2). One pass over
     the steps collects explicit depends (dangling targets are skipped)
     and the kinds. *)
  let kind = Bytes.make n '\000' in
  let b = ref 0 in
  Array.iter
    (fun (g : Ir.gpu) ->
      let gid = g.Ir.gpu_id in
      Array.iter
        (fun (tb : Ir.tb) ->
          let blk = !b in
          Array.iteri
            (fun si (st : Ir.step) ->
              let i = first.(blk) + si in
              push_depends t0 gid i dep_src dep_dst st.Ir.depends;
              Bytes.unsafe_set kind i
                (Char.unsafe_chr
                   ((if Instr.sends st.Ir.op then 1 else 0)
                   lor if Instr.receives st.Ir.op then 2 else 0)))
            tb.Ir.steps;
          incr b)
        g.Ir.tbs)
    gpus;
  (* Every sending (receiving) node of every block on a connection's
     send (receive) side, in IR order, into [buf]; returns how many. *)
  let nodes bit lo hi buf =
    let k = ref 0 in
    for j = lo to hi - 1 do
      let blk = idx.Ir.ends.(j) in
      for i = first.(blk) to first.(blk + 1) - 1 do
        if Char.code (Bytes.unsafe_get kind i) land bit <> 0 then begin
          buf.(!k) <- i;
          incr k
        end
      done
    done;
    !k
  in
  let most a = Array.fold_left Int.max 0 a in
  let ss = Array.make (most idx.Ir.conn_sends) 0 in
  let rs = Array.make (most idx.Ir.conn_recvs) 0 in
  (* Connections in order of first use, a node's send before its
     receive: the order their matching edges are placed in. *)
  let used = Array.make idx.Ir.conns 0 and nused = ref 0 in
  let seen = Bytes.make idx.Ir.conns '\000' in
  let use c =
    if Bytes.get seen c = '\000' then begin
      Bytes.set seen c '\001';
      used.(!nused) <- c;
      incr nused
    end
  in
  for i = 0 to n - 1 do
    let k = Char.code (Bytes.unsafe_get kind i) in
    if k land 1 <> 0 then use idx.Ir.block_send.(block_of.(i));
    if k land 2 <> 0 then use idx.Ir.block_recv.(block_of.(i))
  done;
  let mismatches = ref [] in
  for c = idx.Ir.conns - 1 downto 0 do
    let ns = idx.Ir.conn_sends.(c) and nr = idx.Ir.conn_recvs.(c) in
    if ns <> nr then
      mismatches :=
        (idx.Ir.conn_src.(c), idx.Ir.conn_dst.(c), idx.Ir.conn_chan.(c), ns, nr)
        :: !mismatches
  done;
  (* Every edge, self-loops left out: program order, depends, then
     matching — the k-th send on a connection delivers the k-th receive,
     and with [s] FIFO slots send k needs the slot freed by receive
     k - s. Run once to count each node's successors, once to place
     them. *)
  let iter_edges f =
    let edge a b = if a <> b then f a b in
    for i = 1 to n - 1 do
      if block_of.(i) = block_of.(i - 1) then f (i - 1) i
    done;
    for e = 0 to dep_src.len - 1 do
      f dep_src.a.(e) dep_dst.a.(e)
    done;
    for u = 0 to !nused - 1 do
      let c = used.(u) in
      let lo = idx.Ir.conn_start.(c) and mid = idx.Ir.conn_mid.(c) in
      let ns = nodes 1 lo mid ss in
      let nr = nodes 2 mid idx.Ir.conn_start.(c + 1) rs in
      for k = 0 to Int.min ns nr - 1 do
        edge ss.(k) rs.(k);
        match fifo_slots with
        | Some slots when k >= slots -> edge rs.(k - slots) ss.(k)
        | Some _ | None -> ()
      done
    done
  in
  (* off.(a + 1) counts a's successors, then (prefix sums) ends a's
     run; placing each edge at off.(a) and advancing it leaves off.(a)
     at a's end, so one shift gives the starts. *)
  let off = Array.make (n + 1) 0 in
  iter_edges (fun a _ -> off.(a + 1) <- off.(a + 1) + 1);
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let tgt = Array.make off.(n) 0 in
  iter_edges (fun a b ->
      tgt.(off.(a)) <- b;
      off.(a) <- off.(a) + 1);
  for i = n downto 1 do
    off.(i) <- off.(i - 1)
  done;
  off.(0) <- 0;
  { t0 with off; tgt; mismatches = !mismatches }

let stats t =
  {
    st_nodes = t.n;
    st_edges = Array.length t.tgt;
    st_queries = t.q_queries;
    st_pos_cutoffs = t.q_pos_cutoffs;
    st_local_hits = t.q_local_hits;
    st_local_builds = t.q_local_builds;
    st_dfs = t.q_dfs;
  }

(* Kahn's algorithm, run once per graph. [order] doubles as the FIFO
   queue: nodes are appended when their in-degree reaches zero and popped
   from [head]. Nodes on or downstream of a cycle never reach in-degree
   zero, so the result is the whole graph iff it is acyclic; on a DAG the
   pop index is each node's topological position. *)
let kahn t =
  if not t.sorted then begin
    let indeg = Array.make t.n 0 in
    Array.iter (fun b -> indeg.(b) <- indeg.(b) + 1) t.tgt;
    let order = Array.make t.n 0 in
    let len = ref 0 in
    for i = 0 to t.n - 1 do
      if indeg.(i) = 0 then begin
        order.(!len) <- i;
        incr len
      end
    done;
    let head = ref 0 in
    while !head < !len do
      let i = order.(!head) in
      incr head;
      for e = t.off.(i) to t.off.(i + 1) - 1 do
        let b = t.tgt.(e) in
        indeg.(b) <- indeg.(b) - 1;
        if indeg.(b) = 0 then begin
          order.(!len) <- b;
          incr len
        end
      done
    done;
    if !len = t.n then begin
      let pos = indeg in
      Array.iteri (fun k v -> pos.(v) <- k) order;
      t.pos <- pos;
      t.order <- order
    end
    else t.order <- Array.sub order 0 !len;
    t.sorted <- true
  end

let acyclic t =
  kahn t;
  Array.length t.order = t.n

let topo_order t = if acyclic t then Some t.order else None

let cycle_size t =
  kahn t;
  t.n - Array.length t.order

(* One DP over the Kahn order: a node's distance is final when it is
   popped, so relaxing its successors then is exact. *)
let weighted_longest_path t ~weight =
  kahn t;
  let dist = Array.init t.n weight in
  Array.fold_left
    (fun best i ->
      for e = t.off.(i) to t.off.(i + 1) - 1 do
        let b = t.tgt.(e) in
        let d = dist.(i) +. weight b in
        if d > dist.(b) then dist.(b) <- d
      done;
      if dist.(i) > best then dist.(i) else best)
    0. t.order

let longest_path t =
  int_of_float (weighted_longest_path t ~weight:(fun _ -> 1.))

(* Reachability. On a cyclic graph there is no topological position to
   prune by, so queries run a plain DFS. On a DAG every edge strictly
   increases topological position, which gives three steps:

   1. pos(a) >= pos(b) answers "no" outright;
   2. a same-GPU pair ordered by intra-GPU edges alone (program order and
      depends, which are same-GPU by construction) is a bit test in that
      GPU's closure — k^2 bits for k local steps, one GPU at a time;
   3. anything else (cross-GPU pairs, ordering routed through another
      GPU) is a search that never expands a node at or past pos(b).

   Race queries compare two steps of one GPU, and in compiler-emitted IR
   their ordering is almost always intra-GPU, so step 3 is rare. None of
   the three allocates once the order, positions and closure exist. *)

(* Depth-first search for [b] from [a]'s successors. With [prune] (DAGs
   only) nodes at or past [b]'s position are not expanded. Visited nodes
   carry the query's stamp, so no per-query set is allocated. *)
let search t ~prune a b =
  if Array.length t.mark < t.n then begin
    t.mark <- Array.make t.n 0;
    t.stack <- Array.make t.n 0
  end;
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch and mark = t.mark and stack = t.stack in
  let bound = if prune then t.pos.(b) else max_int in
  mark.(a) <- epoch;
  stack.(0) <- a;
  let sp = ref 1 and found = ref false in
  while (not !found) && !sp > 0 do
    decr sp;
    let x = stack.(!sp) in
    let e = ref t.off.(x) in
    while (not !found) && !e < t.off.(x + 1) do
      let y = t.tgt.(!e) in
      if y = b then found := true
      else if mark.(y) <> epoch && ((not prune) || t.pos.(y) < bound) then begin
        mark.(y) <- epoch;
        stack.(!sp) <- y;
        incr sp
      end;
      incr e
    done
  done;
  !found

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* [gpu]'s nodes in topological order: by_gpu.(lo) .. by_gpu.(hi - 1). *)
let local_span t gpu =
  if Array.length t.by_gpu_start = 0 then begin
    (* One stable bucket pass over the topological order serves every
       GPU; nodes of a negative gpu id go to a last, unused bucket. *)
    let ngpus = Array.length t.gpu_lo in
    let key j =
      let g = gpu_of t t.order.(j) in
      if g < 0 then ngpus else g
    in
    let start, by_gpu =
      group (ngpus + 1) t.n ~key ~value:(Array.get t.order)
    in
    t.by_gpu <- by_gpu;
    t.by_gpu_start <- start
  end;
  (t.by_gpu_start.(gpu), t.by_gpu_start.(gpu + 1))

let local_order t gpu =
  if not (acyclic t) then
    invalid_arg "Hbgraph.local_order: the graph has a cycle";
  if gpu < 0 || gpu >= Array.length t.gpu_lo then [||]
  else
    let lo, hi = local_span t gpu in
    Array.sub t.by_gpu lo (hi - lo)

(* Builds [gpu]'s closure unless it is the one kept. *)
let local_rows t gpu =
  if t.local_gpu <> gpu then begin
    t.q_local_builds <- t.q_local_builds + 1;
    let lo = t.gpu_lo.(gpu) and hi = t.gpu_hi.(gpu) in
    let k = hi - lo in
    let stride = 8 * ((k + 63) / 64) in
    (* The kept closure's buffer is reused when it is large enough. *)
    if Bytes.length t.local_rows < k * stride then
      t.local_rows <- Bytes.create (k * stride);
    let rows = t.local_rows in
    Bytes.fill rows 0 (k * stride) '\000';
    (* Local nodes in reverse topological order, so each node's row can
       absorb its successors' finished rows. *)
    let first, last = local_span t gpu in
    for j = last - 1 downto first do
        let a = t.by_gpu.(j) in
        let row = (a - lo) * stride in
        for e = t.off.(a) to t.off.(a + 1) - 1 do
          let s = t.tgt.(e) in
          if gpu_of t s = gpu then begin
            let srow = (s - lo) * stride in
            let byte = row + ((s - lo) lsr 3) in
            let bit = 1 lsl ((s - lo) land 7) in
            let old = Char.code (Bytes.unsafe_get rows byte) in
            Bytes.unsafe_set rows byte (Char.unsafe_chr (old lor bit));
            let w = ref 0 in
            while !w < stride do
              set64 rows (row + !w)
                (Int64.logor (get64 rows (row + !w)) (get64 rows (srow + !w)));
              w := !w + 8
            done
          end
        done
    done;
    t.local_gpu <- gpu;
    t.local_stride <- stride
  end

let local_bit t g a b =
  local_rows t g;
  let lo = t.gpu_lo.(g) in
  let byte = ((a - lo) * t.local_stride) + ((b - lo) lsr 3) in
  let bit = 1 lsl ((b - lo) land 7) in
  Char.code (Bytes.unsafe_get t.local_rows byte) land bit <> 0

let reaches t a b =
  t.q_queries <- t.q_queries + 1;
  if not (acyclic t) then begin
    t.q_dfs <- t.q_dfs + 1;
    search t ~prune:false a b
  end
  else if t.pos.(a) >= t.pos.(b) then begin
    t.q_pos_cutoffs <- t.q_pos_cutoffs + 1;
    false
  end
  else
    let g = gpu_of t a in
    if g >= 0 && g = gpu_of t b && local_bit t g a b then begin
      t.q_local_hits <- t.q_local_hits + 1;
      true
    end
    else begin
      t.q_dfs <- t.q_dfs + 1;
      search t ~prune:true a b
    end

let ordered t a b = reaches t a b || reaches t b a

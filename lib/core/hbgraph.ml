type t = {
  n : int;
  base : (int * int, int) Hashtbl.t;  (* (gpu, tb) -> first node id *)
  coords : (int * int * int) array;
  adj : int list array;
  mismatches : (int * int * int * int * int) list;
  mutable kahn : int array option;
      (* memoized Kahn order: the nodes Kahn's algorithm reaches, in pop
         order — every node iff the graph is acyclic *)
  mutable pos : int array option;  (* node -> topo position, for pruning *)
  mutable gpu_range : (int * int) array option;
      (* gpu -> [lo, hi) node id range (nodes are laid out gpu by gpu) *)
  mutable local_rows : (int * Bytes.t array) option;
      (* one GPU's intra-GPU closure: rows.(a - lo) over columns b - lo.
         Only the most recent GPU is kept — race detection visits GPUs one
         at a time, so a single block bounds memory at k^2/8 bytes. *)
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

(* The id of a step, checked against [coords] so that a step outside its
   thread block never lands on a neighbouring block's node. *)
let find_node base coords ~gpu ~tb ~step =
  match Hashtbl.find_opt base (gpu, tb) with
  | None -> None
  | Some b ->
      let i = b + step in
      if i < 0 || i >= Array.length coords then None
      else (
        match coords.(i) with
        | g, t, s when g = gpu && t = tb && s = step -> Some i
        | _ -> None)

let node t ~gpu ~tb ~step =
  match find_node t.base t.coords ~gpu ~tb ~step with
  | Some i -> i
  | None -> raise Not_found

let coords t i = t.coords.(i)

let succs t i = t.adj.(i)

let mismatched_connections t = t.mismatches

let build ?fifo_slots (ir : Ir.t) =
  let base = Hashtbl.create 64 in
  let total = ref 0 in
  Array.iter
    (fun (g : Ir.gpu) ->
      Array.iter
        (fun (tb : Ir.tb) ->
          Hashtbl.add base (g.Ir.gpu_id, tb.Ir.tb_id) !total;
          total := !total + Array.length tb.Ir.steps)
        g.Ir.tbs)
    ir.Ir.gpus;
  let n = !total in
  let coords = Array.make n (0, 0, 0) in
  let adj = Array.make n [] in
  let edge a b = if a <> b then adj.(a) <- b :: adj.(a) in
  (* Per-connection ordered send and receive node lists. *)
  let sends = Hashtbl.create 32 and recvs = Hashtbl.create 32 in
  let push tbl key v =
    Hashtbl.replace tbl key
      (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  Array.iter
    (fun (g : Ir.gpu) ->
      Array.iter
        (fun (tb : Ir.tb) ->
          Array.iteri
            (fun si (st : Ir.step) ->
              let me = Hashtbl.find base (g.Ir.gpu_id, tb.Ir.tb_id) + si in
              coords.(me) <- (g.Ir.gpu_id, tb.Ir.tb_id, si);
              if Instr.sends st.Ir.op then
                push sends (g.Ir.gpu_id, tb.Ir.send, tb.Ir.chan) me;
              if Instr.receives st.Ir.op then
                push recvs (tb.Ir.recv, g.Ir.gpu_id, tb.Ir.chan) me)
            tb.Ir.steps)
        g.Ir.tbs)
    ir.Ir.gpus;
  (* Program order and explicit depends, now that coords are final so
     dangling depends targets can be detected and skipped. *)
  Array.iter
    (fun (g : Ir.gpu) ->
      Array.iter
        (fun (tb : Ir.tb) ->
          Array.iteri
            (fun si (st : Ir.step) ->
              let me = Hashtbl.find base (g.Ir.gpu_id, tb.Ir.tb_id) + si in
              if si > 0 then edge (me - 1) me;
              List.iter
                (fun (dtb, dstep) ->
                  if dstep >= 0 then
                    match find_node base coords ~gpu:g.Ir.gpu_id ~tb:dtb ~step:dstep with
                    | Some d -> edge d me
                    | None -> ())
                st.Ir.depends)
            tb.Ir.steps)
        g.Ir.tbs)
    ir.Ir.gpus;
  let mismatches = ref [] in
  Hashtbl.iter
    (fun key send_nodes ->
      let ss = Array.of_list (List.rev send_nodes) in
      let rs =
        Array.of_list
          (List.rev (Option.value ~default:[] (Hashtbl.find_opt recvs key)))
      in
      let ns = Array.length ss and nr = Array.length rs in
      if ns <> nr then begin
        let src, dst, ch = key in
        mismatches := (src, dst, ch, ns, nr) :: !mismatches
      end;
      for k = 0 to min ns nr - 1 do
        (* Data delivery: k-th send before k-th receive. *)
        edge ss.(k) rs.(k);
        (* FIFO back-pressure: send k needs a slot freed by recv k-s. *)
        match fifo_slots with
        | Some s when k >= s -> edge rs.(k - s) ss.(k)
        | Some _ | None -> ()
      done)
    sends;
  Hashtbl.iter
    (fun key recv_nodes ->
      if not (Hashtbl.mem sends key) then begin
        let src, dst, ch = key in
        mismatches := (src, dst, ch, 0, List.length recv_nodes) :: !mismatches
      end)
    recvs;
  {
    n;
    base;
    coords;
    adj;
    mismatches = List.sort compare !mismatches;
    kahn = None;
    pos = None;
    gpu_range = None;
    local_rows = None;
    q_queries = 0;
    q_pos_cutoffs = 0;
    q_local_hits = 0;
    q_local_builds = 0;
    q_dfs = 0;
  }

let stats t =
  {
    st_nodes = t.n;
    st_edges = Array.fold_left (fun n l -> n + List.length l) 0 t.adj;
    st_queries = t.q_queries;
    st_pos_cutoffs = t.q_pos_cutoffs;
    st_local_hits = t.q_local_hits;
    st_local_builds = t.q_local_builds;
    st_dfs = t.q_dfs;
  }

(* Kahn's algorithm, run once per graph. [order] doubles as the FIFO
   queue: nodes are appended when their in-degree reaches zero and popped
   from [head]. Nodes on or downstream of a cycle never reach in-degree
   zero, so the result is the whole graph iff it is acyclic. *)
let kahn t =
  match t.kahn with
  | Some order -> order
  | None ->
      let indeg = Array.make t.n 0 in
      Array.iter (List.iter (fun b -> indeg.(b) <- indeg.(b) + 1)) t.adj;
      let order = Array.make t.n 0 in
      let len = ref 0 in
      let push i =
        order.(!len) <- i;
        incr len
      in
      Array.iteri (fun i d -> if d = 0 then push i) indeg;
      let head = ref 0 in
      while !head < !len do
        let i = order.(!head) in
        incr head;
        List.iter
          (fun b ->
            indeg.(b) <- indeg.(b) - 1;
            if indeg.(b) = 0 then push b)
          t.adj.(i)
      done;
      let order = if !len = t.n then order else Array.sub order 0 !len in
      t.kahn <- Some order;
      order

let topo_order t =
  let order = kahn t in
  if Array.length order = t.n then Some order else None

let cycle_size t = t.n - Array.length (kahn t)

(* One DP over the Kahn order: a node's distance is final when it is
   popped, so relaxing its successors then is exact. *)
let weighted_longest_path t ~weight =
  let dist = Array.init t.n weight in
  Array.fold_left
    (fun best i ->
      List.iter
        (fun b ->
          let d = dist.(i) +. weight b in
          if d > dist.(b) then dist.(b) <- d)
        t.adj.(i);
      if dist.(i) > best then dist.(i) else best)
    0. (kahn t)

let longest_path t = int_of_float (weighted_longest_path t ~weight:(fun _ -> 1.))

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
   their ordering is almost always intra-GPU, so step 3 is rare. *)

(* Depth-first search for [b] from [a]'s successors, expanding only the
   nodes [live] accepts. *)
let search t ~live a b =
  let seen = Hashtbl.create 64 in
  let rec go x =
    x = b
    || live x
       && (not (Hashtbl.mem seen x))
       && begin
            Hashtbl.add seen x ();
            List.exists go t.adj.(x)
          end
  in
  List.exists go t.adj.(a)

let pos_of t order =
  match t.pos with
  | Some p -> p
  | None ->
      let p = Array.make t.n 0 in
      Array.iteri (fun k v -> p.(v) <- k) order;
      t.pos <- Some p;
      p

let test_bit row b = Char.code (Bytes.get row (b lsr 3)) land (1 lsl (b land 7)) <> 0

let set_bit row b =
  Bytes.set row (b lsr 3)
    (Char.chr (Char.code (Bytes.get row (b lsr 3)) lor (1 lsl (b land 7))))

let gpu_range_of t =
  match t.gpu_range with
  | Some r -> r
  | None ->
      let ngpus =
        Array.fold_left (fun m (g, _, _) -> max m (g + 1)) 0 t.coords
      in
      let lo = Array.make ngpus max_int and hi = Array.make ngpus 0 in
      Array.iteri
        (fun i (g, _, _) ->
          if i < lo.(g) then lo.(g) <- i;
          if i + 1 > hi.(g) then hi.(g) <- i + 1)
        t.coords;
      let r = Array.init ngpus (fun g -> (lo.(g), hi.(g))) in
      t.gpu_range <- Some r;
      r

let local_rows_of t pos gpu =
  match t.local_rows with
  | Some (g, rows) when g = gpu -> rows
  | _ ->
      t.q_local_builds <- t.q_local_builds + 1;
      let lo, hi = (gpu_range_of t).(gpu) in
      let k = hi - lo in
      let stride = (k + 7) / 8 in
      let rows = Array.init k (fun _ -> Bytes.make stride '\000') in
      (* Local ids in reverse topological order, so each node's row can
         absorb its successors' finished rows. *)
      let order = Array.init k (fun i -> lo + i) in
      Array.sort (fun a b -> compare pos.(b) pos.(a)) order;
      let or_into dst src =
        for i = 0 to stride - 1 do
          let d = Char.code (Bytes.unsafe_get dst i) in
          let s = Char.code (Bytes.unsafe_get src i) in
          if s land lnot d <> 0 then
            Bytes.unsafe_set dst i (Char.unsafe_chr (d lor s))
        done
      in
      Array.iter
        (fun a ->
          let row = rows.(a - lo) in
          List.iter
            (fun s ->
              if s >= lo && s < hi then begin
                set_bit row (s - lo);
                or_into row rows.(s - lo)
              end)
            t.adj.(a))
        order;
      t.local_rows <- Some (gpu, rows);
      rows

let reaches t a b =
  t.q_queries <- t.q_queries + 1;
  match topo_order t with
  | None ->
      t.q_dfs <- t.q_dfs + 1;
      search t ~live:(fun _ -> true) a b
  | Some order ->
      let pos = pos_of t order in
      let ga, _, _ = t.coords.(a) and gb, _, _ = t.coords.(b) in
      if pos.(a) >= pos.(b) then begin
        t.q_pos_cutoffs <- t.q_pos_cutoffs + 1;
        false
      end
      else if
        ga = gb
        &&
        let lo, _ = (gpu_range_of t).(ga) in
        test_bit (local_rows_of t pos ga).(a - lo) (b - lo)
      then begin
        t.q_local_hits <- t.q_local_hits + 1;
        true
      end
      else begin
        t.q_dfs <- t.q_dfs + 1;
        search t ~live:(fun x -> pos.(x) < pos.(b)) a b
      end

let ordered t a b = reaches t a b || reaches t b a

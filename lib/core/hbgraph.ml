type t = {
  n : int;
  base : (int * int, int) Hashtbl.t;  (* (gpu, tb) -> first node id *)
  coords : (int * int * int) array;
  adj : int list array;
  mismatches : (int * int * int * int * int) list;
  mutable topo : int array option option;  (* memoized topo_order *)
  mutable closure : Bytes.t array option;
  mutable pos : int array option;  (* node -> topo position, for pruning *)
  row_cache : (int, Bytes.t) Hashtbl.t;
      (* per-source reachable-set bitsets for sources whose queries
         proved expensive; bounded, FIFO-evicted *)
  row_order : int Queue.t;
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
  mutable q_row_hits : int;
  mutable q_rows_built : int;
  mutable q_dfs : int;
}

type stats = {
  st_nodes : int;
  st_edges : int;
  st_small_closure : bool;  (* full n^2-bit closure materialized *)
  st_queries : int;
  st_pos_cutoffs : int;
  st_local_hits : int;
  st_local_builds : int;
  st_row_hits : int;
  st_rows_built : int;
  st_dfs : int;
}

(* Above this many nodes the n^2-bit closure is not worth its memory;
   reachability queries fall back to DFS. *)
let closure_limit = 16_384

let num_nodes t = t.n

let node t ~gpu ~tb ~step = Hashtbl.find t.base (gpu, tb) + step

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
  let node gpu tb step =
    match Hashtbl.find_opt base (gpu, tb) with
    | None -> None
    | Some b ->
        let i = b + step in
        if i < 0 || i >= n then None
        else (
          match coords.(i) with
          | g, t, s when g = gpu && t = tb && s = step -> Some i
          | _ -> None)
  in
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
                    match node g.Ir.gpu_id dtb dstep with
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
    topo = None;
    closure = None;
    pos = None;
    row_cache = Hashtbl.create 16;
    row_order = Queue.create ();
    gpu_range = None;
    local_rows = None;
    q_queries = 0;
    q_pos_cutoffs = 0;
    q_local_hits = 0;
    q_local_builds = 0;
    q_row_hits = 0;
    q_rows_built = 0;
    q_dfs = 0;
  }

let stats t =
  {
    st_nodes = t.n;
    st_edges = Array.fold_left (fun n l -> n + List.length l) 0 t.adj;
    st_small_closure = t.closure <> None;
    st_queries = t.q_queries;
    st_pos_cutoffs = t.q_pos_cutoffs;
    st_local_hits = t.q_local_hits;
    st_local_builds = t.q_local_builds;
    st_row_hits = t.q_row_hits;
    st_rows_built = t.q_rows_built;
    st_dfs = t.q_dfs;
  }

let compute_topo t =
  let indeg = Array.make t.n 0 in
  Array.iter (List.iter (fun b -> indeg.(b) <- indeg.(b) + 1)) t.adj;
  let q = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
  let order = Array.make t.n 0 in
  let seen = ref 0 in
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    order.(!seen) <- i;
    incr seen;
    List.iter
      (fun b ->
        indeg.(b) <- indeg.(b) - 1;
        if indeg.(b) = 0 then Queue.add b q)
      t.adj.(i)
  done;
  if !seen = t.n then Some order else None

let topo_order t =
  match t.topo with
  | Some cached -> cached
  | None ->
      let r = compute_topo t in
      t.topo <- Some r;
      r

let cycle_size t =
  match topo_order t with
  | Some _ -> 0
  | None ->
      (* Re-run Kahn to count the unreached tail. *)
      let indeg = Array.make t.n 0 in
      Array.iter (List.iter (fun b -> indeg.(b) <- indeg.(b) + 1)) t.adj;
      let q = Queue.create () in
      Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
      let seen = ref 0 in
      while not (Queue.is_empty q) do
        let i = Queue.pop q in
        incr seen;
        List.iter
          (fun b ->
            indeg.(b) <- indeg.(b) - 1;
            if indeg.(b) = 0 then Queue.add b q)
          t.adj.(i)
      done;
      t.n - !seen

let longest_path t =
  if t.n = 0 then 0
  else begin
    let indeg = Array.make t.n 0 in
    Array.iter (List.iter (fun b -> indeg.(b) <- indeg.(b) + 1)) t.adj;
    let q = Queue.create () in
    Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
    let dist = Array.make t.n 1 in
    let best = ref 0 in
    while not (Queue.is_empty q) do
      let i = Queue.pop q in
      if dist.(i) > !best then best := dist.(i);
      List.iter
        (fun b ->
          if dist.(i) + 1 > dist.(b) then dist.(b) <- dist.(i) + 1;
          indeg.(b) <- indeg.(b) - 1;
          if indeg.(b) = 0 then Queue.add b q)
        t.adj.(i)
    done;
    !best
  end

let weighted_longest_path t ~weight =
  if t.n = 0 then 0.
  else begin
    let indeg = Array.make t.n 0 in
    Array.iter (List.iter (fun b -> indeg.(b) <- indeg.(b) + 1)) t.adj;
    let q = Queue.create () in
    Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
    let dist = Array.init t.n (fun i -> weight i) in
    let best = ref 0. in
    while not (Queue.is_empty q) do
      let i = Queue.pop q in
      if dist.(i) > !best then best := dist.(i);
      List.iter
        (fun b ->
          let d = dist.(i) +. weight b in
          if d > dist.(b) then dist.(b) <- d;
          indeg.(b) <- indeg.(b) - 1;
          if indeg.(b) = 0 then Queue.add b q)
        t.adj.(i)
    done;
    !best
  end

(* Transitive closure as one bitset row per node, filled in reverse
   topological order: row a = union over successors s of ({s} ∪ row s). *)
let compute_closure t order =
  let stride = (t.n + 7) / 8 in
  let rows = Array.init t.n (fun _ -> Bytes.make stride '\000') in
  let set_bit row b =
    let i = b lsr 3 in
    Bytes.unsafe_set row i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get row i) lor (1 lsl (b land 7))))
  in
  let or_into dst src =
    for i = 0 to stride - 1 do
      let d = Char.code (Bytes.unsafe_get dst i) in
      let s = Char.code (Bytes.unsafe_get src i) in
      if s land lnot d <> 0 then Bytes.unsafe_set dst i (Char.unsafe_chr (d lor s))
    done
  in
  for k = t.n - 1 downto 0 do
    let a = order.(k) in
    List.iter
      (fun s ->
        set_bit rows.(a) s;
        or_into rows.(a) rows.(s))
      t.adj.(a)
  done;
  rows

let dfs_reaches t a b =
  let seen = Hashtbl.create 64 in
  let rec go x =
    x = b
    || (not (Hashtbl.mem seen x))
       && begin
            Hashtbl.add seen x ();
            List.exists go t.adj.(x)
          end
  in
  List.exists go t.adj.(a)

(* Large-graph reachability (above [closure_limit], where the n^2-bit
   closure would not fit): every edge strictly increases topological
   position, so pos(a) >= pos(b) answers "no" outright and the search
   never expands a node past pos(b). Sources whose pruned search still
   visited many nodes get a full reachable-set bitset computed once and
   kept in a memory-bounded FIFO cache, so repeated queries against hub
   nodes are bit tests. *)

let pos_of t order =
  match t.pos with
  | Some p -> p
  | None ->
      let p = Array.make t.n 0 in
      Array.iteri (fun k v -> p.(v) <- k) order;
      t.pos <- Some p;
      p

let row_visit_threshold = 512

let row_budget_bytes = 32 * 1024 * 1024

let max_cached_rows t = max 4 (row_budget_bytes / max 1 ((t.n + 7) / 8))

let test_bit row b = Char.code (Bytes.get row (b lsr 3)) land (1 lsl (b land 7)) <> 0

let set_bit row b =
  Bytes.set row (b lsr 3)
    (Char.chr (Char.code (Bytes.get row (b lsr 3)) lor (1 lsl (b land 7))))

let full_row t a =
  match Hashtbl.find_opt t.row_cache a with
  | Some row -> row
  | None ->
      let row = Bytes.make ((t.n + 7) / 8) '\000' in
      let stack = ref t.adj.(a) in
      let continue = ref true in
      while !continue do
        match !stack with
        | [] -> continue := false
        | x :: rest ->
            stack := rest;
            if not (test_bit row x) then begin
              set_bit row x;
              stack := t.adj.(x) @ !stack
            end
      done;
      if Hashtbl.length t.row_cache >= max_cached_rows t then (
        match Queue.take_opt t.row_order with
        | Some old -> Hashtbl.remove t.row_cache old
        | None -> ());
      Hashtbl.add t.row_cache a row;
      Queue.add a t.row_order;
      row

let pruned_reaches t pos a b =
  let seen = Hashtbl.create 64 in
  let visits = ref 0 in
  let rec go x =
    x = b
    || pos.(x) < pos.(b)
       && (not (Hashtbl.mem seen x))
       && begin
            Hashtbl.add seen x ();
            incr visits;
            List.exists go t.adj.(x)
          end
  in
  let r = List.exists go t.adj.(a) in
  (r, !visits)

(* Intra-GPU closure: race queries always compare two nodes of the same
   GPU, and in compiler-emitted IR their ordering is almost always
   established by intra-GPU edges alone (program order and depends, which
   are same-GPU by construction). The closure over one GPU's contiguous
   node range is k^2 bits for k local steps — cheap — and answers those
   queries positively in O(1); only a local miss falls back to the global
   search, which also covers ordering routed through another GPU. *)

let gpu_range_of t (* gpu *) =
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

let large_reaches t a b =
  match topo_order t with
  | None ->
      t.q_dfs <- t.q_dfs + 1;
      dfs_reaches t a b (* cyclic: conservative unpruned search *)
  | Some order ->
      let pos = pos_of t order in
      if pos.(a) >= pos.(b) then begin
        t.q_pos_cutoffs <- t.q_pos_cutoffs + 1;
        false
      end
      else begin
        let ga, _, _ = t.coords.(a) and gb, _, _ = t.coords.(b) in
        let locally_ordered =
          ga = gb
          &&
          let lo, _ = (gpu_range_of t).(ga) in
          let fresh = match t.local_rows with
            | Some (g, _) when g = ga -> false
            | Some _ | None -> true
          in
          if fresh then t.q_local_builds <- t.q_local_builds + 1;
          test_bit (local_rows_of t pos ga).(a - lo) (b - lo)
        in
        if locally_ordered then t.q_local_hits <- t.q_local_hits + 1;
        locally_ordered
        ||
        match Hashtbl.find_opt t.row_cache a with
        | Some row ->
            t.q_row_hits <- t.q_row_hits + 1;
            test_bit row b
        | None ->
            t.q_dfs <- t.q_dfs + 1;
            let r, visits = pruned_reaches t pos a b in
            if visits > row_visit_threshold then begin
              t.q_rows_built <- t.q_rows_built + 1;
              ignore (full_row t a)
            end;
            r
      end

let reaches t a b =
  t.q_queries <- t.q_queries + 1;
  if t.n > closure_limit then large_reaches t a b
  else
    match t.closure with
    | Some rows ->
        Char.code (Bytes.get rows.(a) (b lsr 3)) land (1 lsl (b land 7)) <> 0
    | None -> (
        match topo_order t with
        | None ->
            t.q_dfs <- t.q_dfs + 1;
            dfs_reaches t a b
        | Some order ->
            let rows = compute_closure t order in
            t.closure <- Some rows;
            Char.code (Bytes.get rows.(a) (b lsr 3)) land (1 lsl (b land 7))
            <> 0)

let ordered t a b = reaches t a b || reaches t b a

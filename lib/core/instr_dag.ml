type t = {
  name : string;
  collective : Collective.t;
  mutable instrs : Instr.t array;
  scratch_sizes : int array;
}

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(* Last-writer/reader tracking. Every tracked cell is a slot: [lw.(slot)]
   is its last writer (-1 for none) and [rd.(slot)] the instructions that
   read it since. Slots are dense per-rank buffer ranges when the DAG
   plausibly touches most of the machine, and handed out on first touch
   through a table when it covers a vanishing fraction (the
   symmetry-aware path lowers a single representative slice of an
   O(ranks^2)-cell machine, which must stay O(slice)). Identical
   semantics either way. *)
type tracks = {
  lw : int array;
  rd : int list array;
  bases : int array;
      (* dense: slot of index 0 of buffer tag [t] on rank [r] at
         [bases.(3 * r + t)]; empty when sparse *)
  tbl : (int, int) Hashtbl.t;  (* sparse: (rank, tag, index) key -> slot *)
}

(* Output shares Input's tag when the collective is in place. *)
let buf_tag coll = function
  | Buffer_id.Input -> 0
  | Buffer_id.Output -> if coll.Collective.inplace then 0 else 1
  | Buffer_id.Scratch -> 2

let dense_tracks coll scratch_sizes =
  let ranks = coll.Collective.num_ranks in
  let in_size = Collective.input_buffer_size coll in
  let out_size =
    if coll.Collective.inplace then 0 else Collective.output_buffer_size coll
  in
  let bases = Array.make (3 * ranks) 0 in
  let total = ref 0 in
  for r = 0 to ranks - 1 do
    bases.(3 * r) <- !total;
    bases.((3 * r) + 1) <- !total + in_size;
    bases.((3 * r) + 2) <- !total + in_size + out_size;
    total := !total + in_size + out_size + scratch_sizes.(r)
  done;
  {
    lw = Array.make !total (-1);
    rd = Array.make !total [];
    bases;
    tbl = Hashtbl.create 1;
  }

(* [footprint] (the cells all locations cover, with repeats) bounds the
   distinct cells, so the slot arrays never grow. *)
let sparse_tracks footprint =
  {
    lw = Array.make footprint (-1);
    rd = Array.make footprint [];
    bases = [||];
    tbl = Hashtbl.create (2 * footprint);
  }

(* The slot of index [k] of buffer tag [tag] on [rank]. *)
let slot tr ~rank ~tag k =
  if Array.length tr.bases > 0 then tr.bases.((3 * rank) + tag) + k
  else
    let key = (((rank * 3) + tag) lsl 31) lor k in
    match Hashtbl.find tr.tbl key with
    | s -> s
    | exception Not_found ->
        let s = Hashtbl.length tr.tbl in
        Hashtbl.add tr.tbl key s;
        s

let of_chunk_dag (dag : Chunk_dag.t) =
  let coll = dag.Chunk_dag.collective in
  let nodes = dag.Chunk_dag.nodes in
  let footprint =
    Array.fold_left
      (fun acc (n : Chunk_dag.node) ->
        acc + n.Chunk_dag.src.Loc.count + n.Chunk_dag.dst.Loc.count)
      0 nodes
  in
  let tr =
    let dense_cells =
      coll.Collective.num_ranks
      * (Collective.input_buffer_size coll
        + (if coll.Collective.inplace then 0
           else Collective.output_buffer_size coll))
      + Array.fold_left ( + ) 0 dag.Chunk_dag.scratch_sizes
    in
    if dense_cells > (4 * footprint) + 4096 then sparse_tracks footprint
    else dense_tracks coll dag.Chunk_dag.scratch_sizes
  in
  let n =
    Array.fold_left
      (fun acc n -> acc + if Chunk_dag.is_remote n then 2 else 1)
      0 nodes
  in
  let some_rank = Array.init coll.Collective.num_ranks Option.some in
  let dummy =
    {
      Instr.id = -1; rank = 0; op = Instr.Nop; src = None; dst = None;
      send_peer = None; recv_peer = None; ch = None; count = 0; deps = [];
      comm_pred = None; alive = false;
    }
  in
  let instrs = Array.make n dummy in
  (* [stamp.(d) = id] once [d] is among [id]'s dependencies. *)
  let stamp = Array.make n (-1) in
  let dep_buf = ref (Array.make 8 0) and ndeps = ref 0 in
  let dep id d =
    if d >= 0 && stamp.(d) <> id then begin
      stamp.(d) <- id;
      if !ndeps = Array.length !dep_buf then begin
        let bigger = Array.make (2 * !ndeps) 0 in
        Array.blit !dep_buf 0 bigger 0 !ndeps;
        dep_buf := bigger
      end;
      !dep_buf.(!ndeps) <- d;
      incr ndeps
    end
  in
  (* Reads first (true dependencies; the reader joins the cell), then
     writes (output and anti dependencies; the writer clears the cell's
     readers). An instruction's own id never enters its set, so a cell
     both read and written ends up as if the reads came first. *)
  let read id (l : Loc.t) =
    let rank = l.Loc.rank and tag = buf_tag coll l.Loc.buf in
    for k = l.Loc.index to l.Loc.index + l.Loc.count - 1 do
      let s = slot tr ~rank ~tag k in
      dep id tr.lw.(s);
      tr.rd.(s) <- id :: tr.rd.(s)
    done
  in
  let rec readers id = function
    | [] -> ()
    | r :: rest ->
        dep id r;
        readers id rest
  in
  let write id (l : Loc.t) =
    let rank = l.Loc.rank and tag = buf_tag coll l.Loc.buf in
    for k = l.Loc.index to l.Loc.index + l.Loc.count - 1 do
      let s = slot tr ~rank ~tag k in
      dep id tr.lw.(s);
      readers id tr.rd.(s);
      tr.lw.(s) <- id;
      tr.rd.(s) <- []
    done
  in
  (* The collected set as a sorted list (insertion sort: a handful). *)
  let sorted_deps () =
    let buf = !dep_buf and m = !ndeps in
    for i = 1 to m - 1 do
      let x = buf.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && buf.(!j) > x do
        buf.(!j + 1) <- buf.(!j);
        decr j
      done;
      buf.(!j + 1) <- x
    done;
    let l = ref [] in
    for i = m - 1 downto 0 do
      l := buf.(i) :: !l
    done;
    ndeps := 0;
    !l
  in
  let next = ref 0 in
  let emit ~rank ~op ~src ~dst ~send_peer ~recv_peer ~ch ~count ~comm_pred
      ~reads ~reads2 ~writes =
    let id = !next in
    incr next;
    stamp.(id) <- id;
    (match reads with Some l -> read id l | None -> ());
    (match reads2 with Some l -> read id l | None -> ());
    (match writes with Some l -> write id l | None -> ());
    instrs.(id) <-
      {
        Instr.id;
        rank;
        op;
        src;
        dst;
        send_peer;
        recv_peer;
        ch;
        count;
        deps = sorted_deps ();
        comm_pred;
        alive = true;
      };
    id
  in
  Array.iter
    (fun (nd : Chunk_dag.node) ->
      let src = nd.Chunk_dag.src and dst = nd.Chunk_dag.dst in
      let ch = nd.Chunk_dag.ch in
      let count = src.Loc.count in
      let some_src = Some src and some_dst = Some dst in
      if Chunk_dag.is_remote nd then begin
        let send =
          emit ~rank:src.Loc.rank ~op:Instr.Send ~src:some_src ~dst:None
            ~send_peer:some_rank.(dst.Loc.rank) ~recv_peer:None ~ch ~count
            ~comm_pred:None ~reads:some_src ~reads2:None ~writes:None
        in
        (* A receive writes its destination; an rrc also reads it as the
           accumuland. *)
        let op, recv_src =
          match nd.Chunk_dag.op with
          | Chunk_dag.Copy_op -> (Instr.Recv, None)
          | Chunk_dag.Reduce_op -> (Instr.Recv_reduce_copy, some_dst)
        in
        ignore
          (emit ~rank:dst.Loc.rank ~op ~src:recv_src ~dst:some_dst
             ~send_peer:None ~recv_peer:some_rank.(src.Loc.rank) ~ch ~count
             ~comm_pred:(Some send) ~reads:recv_src ~reads2:None
             ~writes:some_dst)
      end
      else
        (* A local reduce reads its destination as the accumuland. *)
        let op, reads2 =
          match nd.Chunk_dag.op with
          | Chunk_dag.Copy_op -> (Instr.Copy, None)
          | Chunk_dag.Reduce_op -> (Instr.Reduce, some_dst)
        in
        ignore
          (emit ~rank:dst.Loc.rank ~op ~src:some_src ~dst:some_dst
             ~send_peer:None ~recv_peer:None ~ch ~count ~comm_pred:None
             ~reads:some_src ~reads2 ~writes:some_dst))
    nodes;
  {
    name = dag.Chunk_dag.name;
    collective = coll;
    instrs;
    scratch_sizes = dag.Chunk_dag.scratch_sizes;
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let live t =
  Array.to_list t.instrs |> List.filter (fun i -> i.Instr.alive)

let num_live t =
  Array.fold_left (fun n i -> if i.Instr.alive then n + 1 else n) 0 t.instrs

(* Flat forward adjacency in compressed-sparse-row form, rebuilt from the
   current deps/comm_pred of live instructions. Everything is an int
   array, so traversals touch no pointers — at a million instructions the
   cons-cell version was the hottest part of compilation. Returns
   [(off, targets)]: successors of [id] are
   [targets.(off.(id)) .. targets.(off.(id + 1) - 1)]. *)
let successors_csr t =
  let n = Array.length t.instrs in
  let off = Array.make (n + 1) 0 in
  Array.iter
    (fun (i : Instr.t) ->
      if i.Instr.alive then begin
        List.iter (fun d -> off.(d) <- off.(d) + 1) i.Instr.deps;
        match i.Instr.comm_pred with
        | Some s -> off.(s) <- off.(s) + 1
        | None -> ()
      end)
    t.instrs;
  let total = ref 0 in
  for id = 0 to n do
    let c = if id < n then off.(id) else 0 in
    off.(id) <- !total;
    total := !total + c
  done;
  let fill = Array.make n 0 in
  Array.iteri (fun id o -> if id < n then fill.(id) <- o) off;
  let targets = Array.make !total 0 in
  Array.iter
    (fun (i : Instr.t) ->
      if i.Instr.alive then begin
        let add p =
          targets.(fill.(p)) <- i.Instr.id;
          fill.(p) <- fill.(p) + 1
        in
        List.iter add i.Instr.deps;
        match i.Instr.comm_pred with Some s -> add s | None -> ()
      end)
    t.instrs;
  (off, targets)

type graph = {
  live : int array;
  dense : int array;
  off : int array;
  tgt : int array;
  indeg : int array;
  depth : int array;
  rdepth : int array;
}

let graph t =
  let instrs = t.instrs in
  let dense = Array.make (Array.length instrs) (-1) in
  let m = ref 0 in
  Array.iteri
    (fun id (i : Instr.t) ->
      if i.Instr.alive then begin
        dense.(id) <- !m;
        incr m
      end)
    instrs;
  let m = !m in
  let live = Array.make m 0 in
  Array.iteri (fun id k -> if k >= 0 then live.(k) <- id) dense;
  let dense_of d =
    let k = dense.(d) in
    if k < 0 then invalid_arg "Instr_dag: dep on dead" else k
  in
  (* Two passes over every edge p -> k: count, then place. *)
  let off = Array.make (m + 1) 0 and indeg = Array.make m 0 in
  let count k p =
    off.(p) <- off.(p) + 1;
    indeg.(k) <- indeg.(k) + 1
  in
  let fill = Array.make m 0 and tgt = ref [||] in
  let place k p =
    !tgt.(fill.(p)) <- k;
    fill.(p) <- fill.(p) + 1
  in
  let edges f =
    let rec deps k = function
      | [] -> ()
      | d :: rest ->
          f k (dense_of d);
          deps k rest
    in
    for k = 0 to m - 1 do
      let i = instrs.(live.(k)) in
      deps k i.Instr.deps;
      match i.Instr.comm_pred with Some s -> f k (dense_of s) | None -> ()
    done
  in
  edges count;
  let total = ref 0 in
  for k = 0 to m do
    let c = off.(k) in
    off.(k) <- !total;
    total := !total + c
  done;
  Array.blit off 0 fill 0 m;
  tgt := Array.make !total 0;
  edges place;
  let tgt = !tgt in
  (* Kahn's algorithm; [order] doubles as the work queue, and [fill]
     counts each instruction's predecessors still unvisited. *)
  let left = fill in
  Array.blit indeg 0 left 0 m;
  let order = Array.make m 0 and tail = ref 0 in
  for k = 0 to m - 1 do
    if left.(k) = 0 then begin
      order.(!tail) <- k;
      incr tail
    end
  done;
  let depth = Array.make m 0 in
  let seen = ref 0 in
  while !seen < !tail do
    let k = order.(!seen) in
    incr seen;
    for e = off.(k) to off.(k + 1) - 1 do
      let s = tgt.(e) in
      if depth.(s) < depth.(k) + 1 then depth.(s) <- depth.(k) + 1;
      left.(s) <- left.(s) - 1;
      if left.(s) = 0 then begin
        order.(!tail) <- s;
        incr tail
      end
    done
  done;
  if !seen <> m then invalid_arg "Instr_dag: dependency cycle detected";
  let rdepth = Array.make m 0 in
  for j = m - 1 downto 0 do
    let k = order.(j) in
    for e = off.(k) to off.(k + 1) - 1 do
      let s = tgt.(e) in
      if rdepth.(k) < rdepth.(s) + 1 then rdepth.(k) <- rdepth.(s) + 1
    done
  done;
  { live; dense; off; tgt; indeg; depth; rdepth }

let depths t =
  let g = graph t in
  let by_id a =
    Array.map (fun k -> if k < 0 then 0 else a.(k)) g.dense
  in
  (by_id g.depth, by_id g.rdepth)

let checked_graph t =
  let n = Array.length t.instrs in
  Array.iteri
    (fun idx (i : Instr.t) ->
      if i.Instr.id <> idx then invalid_arg "Instr_dag: id mismatch";
      if i.Instr.alive then begin
        List.iter
          (fun d ->
            if d < 0 || d >= n then invalid_arg "Instr_dag: dep out of range";
            let p = t.instrs.(d) in
            if not p.Instr.alive then invalid_arg "Instr_dag: dep on dead";
            if p.Instr.rank <> i.Instr.rank then
              invalid_arg "Instr_dag: cross-rank processing dep")
          i.Instr.deps;
        (match i.Instr.comm_pred with
        | Some s ->
            if not (Instr.receives i.Instr.op) then
              invalid_arg "Instr_dag: comm_pred on non-receiving instr";
            let p = t.instrs.(s) in
            if not (Instr.sends p.Instr.op) then
              invalid_arg "Instr_dag: comm_pred not a send";
            if p.Instr.send_peer <> Some i.Instr.rank then
              invalid_arg "Instr_dag: send peer mismatch";
            if i.Instr.recv_peer <> Some p.Instr.rank then
              invalid_arg "Instr_dag: recv peer mismatch"
        | None ->
            if Instr.receives i.Instr.op then
              invalid_arg "Instr_dag: receiving instr without comm_pred");
        if Instr.sends i.Instr.op && i.Instr.send_peer = None then
          invalid_arg "Instr_dag: sending instr without peer"
      end)
    t.instrs;
  graph t

let validate t = ignore (checked_graph t)

let pp fmt t =
  Format.fprintf fmt "@[<v>instr-dag %s, %d live instr(s)@," t.name
    (num_live t);
  Array.iter
    (fun i ->
      if i.Instr.alive then Format.fprintf fmt "  %a@," Instr.pp i)
    t.instrs;
  Format.fprintf fmt "@]"

(* Lowering and fusion as they were before their working state moved
   onto int arrays: last writers as [int option] cells (a record per
   cell, in dense per-rank arrays or an on-demand table), dependency sets
   deduplicated with [List.mem], and fusion over a list-of-successors
   adjacency merged with [List.sort_uniq] at every rewrite. Kept only as
   the reference the differential tests hold [Instr_dag.of_chunk_dag]
   and [Fusion.fuse] to: field-for-field equal instructions and equal
   [Fusion.stats].

   [chunk_deps] is the tracer's dependency rule as [Program] applied it
   then (an [int option] last writer and a reader list per cell,
   [List.mem] dedup), replayed over a finished Chunk DAG's nodes, so the
   tests can hold [Program.trace]'s [deps] to it. *)

open Msccl_core

(* ------------------------------------------------------------------ *)
(* Tracer dependencies                                                 *)
(* ------------------------------------------------------------------ *)

type cell = { mutable last_writer : int option; mutable readers : int list }

let chunk_deps (dag : Chunk_dag.t) =
  let coll = dag.Chunk_dag.collective in
  let cells = Hashtbl.create 64 in
  let cell (l : Loc.t) k =
    let buf =
      match l.Loc.buf with
      | Buffer_id.Output when coll.Collective.inplace -> Buffer_id.Input
      | b -> b
    in
    let key = (l.Loc.rank, buf, l.Loc.index + k) in
    match Hashtbl.find_opt cells key with
    | Some c -> c
    | None ->
        let c = { last_writer = None; readers = [] } in
        Hashtbl.add cells key c;
        c
  in
  let span (l : Loc.t) = Array.init l.Loc.count (cell l) in
  Array.map
    (fun (n : Chunk_dag.node) ->
      let id = n.Chunk_dag.id in
      let src_cells = span n.Chunk_dag.src
      and dst_cells = span n.Chunk_dag.dst in
      let deps = ref [] in
      let dep = function
        | Some w when w <> id ->
            if not (List.mem w !deps) then deps := w :: !deps
        | Some _ | None -> ()
      in
      Array.iter (fun c -> dep c.last_writer) src_cells;
      Array.iter
        (fun c ->
          dep c.last_writer;
          List.iter (fun rid -> dep (Some rid)) c.readers)
        dst_cells;
      Array.iter (fun c -> c.readers <- id :: c.readers) src_cells;
      Array.iter
        (fun c ->
          c.last_writer <- Some id;
          c.readers <- [])
        dst_cells;
      List.sort Int.compare !deps)
    dag.Chunk_dag.nodes

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

type track_cell = { mutable lw : int option; mutable readers : int list }

type track = {
  t_in : track_cell array;
  t_out : track_cell array;  (* == t_in when in-place *)
  t_scr : track_cell array;
}

let fresh_track n = Array.init n (fun _ -> { lw = None; readers = [] })

(* Last-writer/reader tracking cells: dense per-rank arrays when the DAG
   plausibly touches most of the machine, an on-demand table when it
   covers a vanishing fraction (the symmetry-aware path lowers a single
   representative slice of an O(ranks^2)-cell machine). Identical
   semantics either way. *)
type tracks =
  | Dense_tracks of track array
  | Sparse_tracks of (int, track_cell) Hashtbl.t  (* (rank,buf,idx) key *)

let make_tracks coll scratch_sizes =
  let in_size = Collective.input_buffer_size coll in
  let out_size = Collective.output_buffer_size coll in
  Array.init coll.Collective.num_ranks (fun r ->
      let t_in = fresh_track in_size in
      let t_out =
        if coll.Collective.inplace then t_in else fresh_track out_size
      in
      { t_in; t_out; t_scr = fresh_track scratch_sizes.(r) })

(* Iterate the cells a location covers in place — lowering visits every
   instruction's cells several times, so avoid an Array.sub per visit. *)
let iter_track_cells tracks coll (l : Loc.t) f =
  match tracks with
  | Dense_tracks tracks ->
      let tr = tracks.(l.Loc.rank) in
      let arr =
        match l.Loc.buf with
        | Buffer_id.Input -> tr.t_in
        | Buffer_id.Output ->
            if coll.Collective.inplace then tr.t_in else tr.t_out
        | Buffer_id.Scratch -> tr.t_scr
      in
      for k = l.Loc.index to l.Loc.index + l.Loc.count - 1 do
        f arr.(k)
      done
  | Sparse_tracks tbl ->
      let tag =
        match l.Loc.buf with
        | Buffer_id.Input -> 0
        | Buffer_id.Output -> if coll.Collective.inplace then 0 else 1
        | Buffer_id.Scratch -> 2
      in
      let base = ((l.Loc.rank * 3) + tag) lsl 31 in
      for k = l.Loc.index to l.Loc.index + l.Loc.count - 1 do
        let key = base lor k in
        match Hashtbl.find_opt tbl key with
        | Some c -> f c
        | None ->
            let c = { lw = None; readers = [] } in
            Hashtbl.add tbl key c;
            f c
      done

let of_chunk_dag (dag : Chunk_dag.t) =
  let coll = dag.Chunk_dag.collective in
  let tracks =
    let dense_cells =
      coll.Collective.num_ranks
      * (Collective.input_buffer_size coll
        + (if coll.Collective.inplace then 0
           else Collective.output_buffer_size coll))
      + Array.fold_left ( + ) 0 dag.Chunk_dag.scratch_sizes
    in
    let footprint =
      Array.fold_left
        (fun acc (n : Chunk_dag.node) ->
          acc + n.Chunk_dag.src.Loc.count + n.Chunk_dag.dst.Loc.count)
        0 dag.Chunk_dag.nodes
    in
    if dense_cells > (4 * footprint) + 4096 then
      Sparse_tracks (Hashtbl.create (2 * footprint))
    else Dense_tracks (make_tracks coll dag.Chunk_dag.scratch_sizes)
  in
  let acc = ref [] in
  let next = ref 0 in
  let new_instr ~rank ~op ~src ~dst ~send_peer ~recv_peer ~ch ~count
      ~comm_pred =
    let id = !next in
    incr next;
    let deps = ref [] in
    let dep = function
      | Some d when d <> id ->
          if not (List.mem d !deps) then deps := d :: !deps
      | Some _ | None -> ()
    in
    let reads =
      (if Instr.reads_local op then Option.to_list src else [])
      @ (if op = Instr.Reduce then Option.to_list dst else [])
    in
    let writes = if Instr.writes_local op then Option.to_list dst else [] in
    List.iter
      (fun l -> iter_track_cells tracks coll l (fun c -> dep c.lw))
      reads;
    List.iter
      (fun l ->
        iter_track_cells tracks coll l (fun c ->
            dep c.lw;
            List.iter (fun r -> dep (Some r)) c.readers))
      writes;
    List.iter
      (fun l ->
        iter_track_cells tracks coll l (fun c -> c.readers <- id :: c.readers))
      reads;
    List.iter
      (fun l ->
        iter_track_cells tracks coll l (fun c ->
            c.lw <- Some id;
            c.readers <- []))
      writes;
    let deps = List.sort Int.compare !deps in
    let i =
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
        deps;
        comm_pred;
        alive = true;
      }
    in
    acc := i :: !acc;
    i
  in
  Chunk_dag.iter dag (fun n ->
      let src = n.Chunk_dag.src and dst = n.Chunk_dag.dst in
      let ch = n.Chunk_dag.ch in
      let count = src.Loc.count in
      if Chunk_dag.is_remote n then begin
        let send =
          new_instr ~rank:src.Loc.rank ~op:Instr.Send ~src:(Some src)
            ~dst:None ~send_peer:(Some dst.Loc.rank) ~recv_peer:None ~ch
            ~count ~comm_pred:None
        in
        let recv_op =
          match n.Chunk_dag.op with
          | Chunk_dag.Copy_op -> Instr.Recv
          | Chunk_dag.Reduce_op -> Instr.Recv_reduce_copy
        in
        (* An rrc reads its own destination as the accumuland. *)
        let recv_src =
          match recv_op with
          | Instr.Recv_reduce_copy -> Some dst
          | Instr.Recv | Instr.Send | Instr.Copy | Instr.Reduce
          | Instr.Recv_copy_send | Instr.Recv_reduce_send
          | Instr.Recv_reduce_copy_send | Instr.Nop ->
              None
        in
        ignore
          (new_instr ~rank:dst.Loc.rank ~op:recv_op ~src:recv_src
             ~dst:(Some dst) ~send_peer:None ~recv_peer:(Some src.Loc.rank)
             ~ch ~count ~comm_pred:(Some send.Instr.id))
      end
      else
        let op =
          match n.Chunk_dag.op with
          | Chunk_dag.Copy_op -> Instr.Copy
          | Chunk_dag.Reduce_op -> Instr.Reduce
        in
        ignore
          (new_instr ~rank:dst.Loc.rank ~op ~src:(Some src) ~dst:(Some dst)
             ~send_peer:None ~recv_peer:None ~ch ~count ~comm_pred:None));
  {
    Instr_dag.name = dag.Chunk_dag.name;
    collective = coll;
    instrs = Array.of_list (List.rev !acc);
    scratch_sizes = dag.Chunk_dag.scratch_sizes;
  }

(* ------------------------------------------------------------------ *)
(* Fusion                                                              *)
(* ------------------------------------------------------------------ *)

let successors (t : Instr_dag.t) =
  let n = Array.length t.Instr_dag.instrs in
  let succ = Array.make n [] in
  Array.iter
    (fun (i : Instr.t) ->
      if i.Instr.alive then begin
        List.iter (fun d -> succ.(d) <- i.Instr.id :: succ.(d)) i.Instr.deps;
        match i.Instr.comm_pred with
        | Some s -> succ.(s) <- i.Instr.id :: succ.(s)
        | None -> ()
      end)
    t.Instr_dag.instrs;
  succ

(* Channels are compatible when equal or when at least one is yet
   unassigned; the fused instruction takes the specified one. *)
let unify_ch a b =
  match (a, b) with
  | None, c | c, None -> Some c
  | Some x, Some y -> if x = y then Some a else None

(* Rewire references to the dead instruction [old_id] to [fresh]. Only the
   successors of [old_id] can mention it, so [succ] keeps this linear. The
   merged successor list is deduplicated (an instruction may have depended
   on both [old_id] and [fresh]) so that [succ] remains a valid adjacency
   for topological traversals across fusion passes. *)
let redirect (dag : Instr_dag.t) succ ~old_id ~fresh =
  List.iter
    (fun jid ->
      let j = dag.Instr_dag.instrs.(jid) in
      if j.Instr.alive then begin
        if List.mem old_id j.Instr.deps then
          j.Instr.deps <-
            List.sort_uniq Int.compare
              (List.map (fun d -> if d = old_id then fresh else d) j.Instr.deps);
        if j.Instr.comm_pred = Some old_id then j.Instr.comm_pred <- Some fresh
      end)
    succ.(old_id);
  succ.(fresh) <- List.sort_uniq Int.compare (succ.(old_id) @ succ.(fresh));
  succ.(old_id) <- []

(* Fuse receives of opcode [recv_op] with a dependent send of the same
   chunks, rewriting the receive to [fused_op]. *)
let fuse_recv_send ?succ:succ0 (dag : Instr_dag.t) ~recv_op ~fused_op =
  let fired = ref 0 in
  let succ =
    match succ0 with Some s -> s | None -> successors dag
  in
  (* Depth is only consulted to tie-break between several candidate sends,
     which is rare (ring/tree patterns have at most one); computing it
     eagerly would cost a full topological pass per fusion pass. *)
  let rdepth = lazy (snd (Instr_dag.depths dag)) in
  Array.iter
    (fun (r : Instr.t) ->
      if r.Instr.alive && r.Instr.op = recv_op then begin
        let dst = match r.Instr.dst with Some d -> d | None -> assert false in
        let candidates =
          List.filter_map
            (fun sid ->
              let s = dag.Instr_dag.instrs.(sid) in
              if
                s.Instr.alive && s.Instr.op = Instr.Send
                && s.Instr.rank = r.Instr.rank
                && List.mem r.Instr.id s.Instr.deps
                && (match s.Instr.src with
                   | Some src -> Loc.equal src dst
                   | None -> false)
                && unify_ch r.Instr.ch s.Instr.ch <> None
                && not
                     (List.exists
                        (fun j ->
                          j <> r.Instr.id
                          &&
                          let w = dag.Instr_dag.instrs.(j) in
                          Instr.writes_local w.Instr.op
                          &&
                          match w.Instr.dst with
                          | Some l -> Loc.overlaps l dst
                          | None -> false)
                        s.Instr.deps)
              then Some s
              else None)
            succ.(r.Instr.id)
        in
        let best =
          match candidates with
          | [] -> None
          | [ s ] -> Some s
          | _ ->
              let rdepth = Lazy.force rdepth in
              List.fold_left
                (fun acc (s : Instr.t) ->
                  match acc with
                  | None -> Some s
                  | Some b ->
                      if rdepth.(s.Instr.id) > rdepth.(b.Instr.id) then Some s
                      else Some b)
                None candidates
        in
        match best with
        | None -> ()
        | Some s ->
            incr fired;
            r.Instr.op <- fused_op;
            r.Instr.send_peer <- s.Instr.send_peer;
            (match unify_ch r.Instr.ch s.Instr.ch with
            | Some c -> r.Instr.ch <- c
            | None -> assert false);
            let merged =
              List.filter (fun d -> d <> r.Instr.id) s.Instr.deps
              @ r.Instr.deps
            in
            r.Instr.deps <- List.sort_uniq Int.compare merged;
            s.Instr.alive <- false;
            redirect dag succ ~old_id:s.Instr.id ~fresh:r.Instr.id
      end)
    dag.Instr_dag.instrs;
  !fired

let fuse_rcs ?succ dag =
  fuse_recv_send ?succ dag ~recv_op:Instr.Recv ~fused_op:Instr.Recv_copy_send

let fuse_rrcs ?succ dag =
  fuse_recv_send ?succ dag ~recv_op:Instr.Recv_reduce_copy
    ~fused_op:Instr.Recv_reduce_copy_send

(* Locations an instruction reads: its src (when the opcode reads locally)
   plus, for plain reduce, its destination (the accumuland). *)
let reads_of (j : Instr.t) =
  (if Instr.reads_local j.Instr.op then Option.to_list j.Instr.src else [])
  @ if j.Instr.op = Instr.Reduce then Option.to_list j.Instr.dst else []

let writes_of (j : Instr.t) =
  if Instr.writes_local j.Instr.op then Option.to_list j.Instr.dst else []

let fuse_rrs ?succ:succ0 (dag : Instr_dag.t) =
  let fired = ref 0 in
  let succ =
    match succ0 with Some s -> s | None -> successors dag
  in
  Array.iter
    (fun (f : Instr.t) ->
      if f.Instr.alive && f.Instr.op = Instr.Recv_reduce_copy_send then begin
        let dst = match f.Instr.dst with Some d -> d | None -> assert false in
        let dependents =
          List.filter_map
            (fun id ->
              let j = dag.Instr_dag.instrs.(id) in
              if j.Instr.alive && List.mem f.Instr.id j.Instr.deps then Some j
              else None)
            succ.(f.Instr.id)
        in
        let read_here =
          List.exists
            (fun j -> List.exists (Loc.overlaps dst) (reads_of j))
            dependents
        in
        (* The store may be dropped only when the result is never read and
           every covered index is overwritten later anyway. *)
        let covered = Array.make dst.Loc.count false in
        List.iter
          (fun j ->
            List.iter
              (fun (w : Loc.t) ->
                if Loc.overlaps w dst then
                  List.iter
                    (fun i ->
                      if i >= dst.Loc.index && i < dst.Loc.index + dst.Loc.count
                      then covered.(i - dst.Loc.index) <- true)
                    (Loc.indices w))
              (writes_of j))
          dependents;
        let fully_overwritten = Array.for_all (fun b -> b) covered in
        if (not read_here) && fully_overwritten then begin
          incr fired;
          f.Instr.op <- Instr.Recv_reduce_send;
          (* The accumuland is still read through [src]; only the local
             store disappears. *)
          f.Instr.src <- Some dst;
          f.Instr.dst <- None
        end
      end)
    dag.Instr_dag.instrs;
  !fired

(* The adjacency is built once and kept current by [redirect]; rebuilding
   it per pass (plus once per topological sort) dominated fusion time on
   large rings. *)
let fuse dag =
  let succ = successors dag in
  let rcs = fuse_rcs ~succ dag in
  let rrcs = fuse_rrcs ~succ dag in
  let rrs = fuse_rrs ~succ dag in
  { Fusion.rcs; rrcs; rrs }

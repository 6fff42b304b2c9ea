type stats = {
  rcs : int;
  rrcs : int;
  rrs : int;
}

let total s = s.rcs + s.rrcs + s.rrs

let pp_stats fmt s =
  Format.fprintf fmt "rcs=%d rrcs=%d rrs=%d" s.rcs s.rrcs s.rrs

(* Channels are compatible when equal or when at least one is yet
   unassigned; the fused instruction takes the specified one. *)
let ch_compatible a b =
  match (a, b) with
  | None, _ | _, None -> true
  | Some x, Some y -> x = y

let unify_ch a b = match a with None -> b | Some _ -> a

(* The successor index fusion reads: the forward adjacency (dependency and
   communication edges of live instructions) in compressed-sparse-row form
   as the DAG stood when the index was built, plus [absorbed.(r)], the
   send a fused receive [r] swallowed since (-1 for none). The successors
   of [r] are its own row and, once it absorbed [s], [s]'s row, whose
   instructions the rewrite hands to [r]. A row keeps the ids of
   instructions that later died or whose dependency on it was rewired,
   so readers filter on [alive] and on current [deps]. *)
type index = { off : int array; tgt : int array; absorbed : int array }

let index (dag : Instr_dag.t) =
  let off, tgt = Instr_dag.successors_csr dag in
  { off; tgt; absorbed = Array.make (Array.length dag.Instr_dag.instrs) (-1) }

(* Sorted-unique int lists (every [deps] is one). *)
let rec remove x = function
  | [] -> []
  | y :: rest as l ->
      if y = x then rest else if y > x then l else y :: remove x rest

let rec insert x = function
  | [] -> [ x ]
  | y :: rest as l ->
      if y = x then l else if y > x then x :: l else y :: insert x rest

(* The sorted union of two sorted-unique lists, without [skip]; shares
   the tail left over once one side runs out. *)
let rec merge ~skip a b =
  match (a, b) with
  | [], l | l, [] -> if List.mem skip l then remove skip l else l
  | x :: a', y :: b' ->
      if x = skip then merge ~skip a' b
      else if y = skip then merge ~skip a b'
      else if x < y then x :: merge ~skip a' b
      else if y < x then y :: merge ~skip a b'
      else x :: merge ~skip a' b'

(* Rewire references to the dead send [old_id] to [fresh]. Only the
   successors of [old_id] can mention it, so its row keeps this linear. *)
let redirect (dag : Instr_dag.t) idx ~old_id ~fresh =
  for k = idx.off.(old_id) to idx.off.(old_id + 1) - 1 do
    let j = dag.Instr_dag.instrs.(idx.tgt.(k)) in
    if j.Instr.alive then begin
      if List.mem old_id j.Instr.deps then
        j.Instr.deps <- insert fresh (remove old_id j.Instr.deps);
      match j.Instr.comm_pred with
      | Some p when p = old_id -> j.Instr.comm_pred <- Some fresh
      | Some _ | None -> ()
    end
  done;
  idx.absorbed.(fresh) <- old_id

(* Fuse receives of opcode [recv_op] with a dependent send of the same
   chunks, rewriting the receive to [fused_op]. *)
let fuse_recv_send idx (dag : Instr_dag.t) ~recv_op ~fused_op =
  let fired = ref 0 in
  let instrs = dag.Instr_dag.instrs in
  (* Depth is only consulted to tie-break between several candidate sends,
     which is rare (ring/tree patterns have at most one); computing it
     eagerly would cost a full topological pass per fusion pass. *)
  let rdepth = lazy (snd (Instr_dag.depths dag)) in
  Array.iter
    (fun (r : Instr.t) ->
      if r.Instr.alive && r.Instr.op = recv_op then begin
        let dst = match r.Instr.dst with Some d -> d | None -> assert false in
        let id = r.Instr.id in
        (* Candidates in descending id order; the first on the longest
           path wins. A receive absorbs at most one send, after this, so
           its row is still the one the index was built with. *)
        let best = ref (-1) in
        for k = idx.off.(id + 1) - 1 downto idx.off.(id) do
          let s = instrs.(idx.tgt.(k)) in
          if
            s.Instr.alive && s.Instr.op = Instr.Send
            && s.Instr.rank = r.Instr.rank
            && List.mem id s.Instr.deps
            && (match s.Instr.src with
               | Some src -> Loc.equal src dst
               | None -> false)
            && ch_compatible r.Instr.ch s.Instr.ch
          then
            if !best < 0 then best := s.Instr.id
            else
              let rdepth = Lazy.force rdepth in
              if rdepth.(s.Instr.id) > rdepth.(!best) then best := s.Instr.id
        done;
        if !best >= 0 then begin
          let s = instrs.(!best) in
          incr fired;
          r.Instr.op <- fused_op;
          r.Instr.send_peer <- s.Instr.send_peer;
          r.Instr.ch <- unify_ch r.Instr.ch s.Instr.ch;
          r.Instr.deps <- merge ~skip:id s.Instr.deps r.Instr.deps;
          s.Instr.alive <- false;
          redirect dag idx ~old_id:s.Instr.id ~fresh:id
        end
      end)
    instrs;
  !fired

let fuse_rcs_idx idx dag =
  fuse_recv_send idx dag ~recv_op:Instr.Recv ~fused_op:Instr.Recv_copy_send

let fuse_rrcs_idx idx dag =
  fuse_recv_send idx dag ~recv_op:Instr.Recv_reduce_copy
    ~fused_op:Instr.Recv_reduce_copy_send

(* Whether [j] reads a location overlapping [dst]: its src (when the
   opcode reads locally) or, for plain reduce, its destination (the
   accumuland). *)
let reads_overlap (j : Instr.t) dst =
  (Instr.reads_local j.Instr.op
  && match j.Instr.src with Some l -> Loc.overlaps dst l | None -> false)
  || j.Instr.op = Instr.Reduce
     && match j.Instr.dst with Some l -> Loc.overlaps dst l | None -> false

let fuse_rrs_idx idx (dag : Instr_dag.t) =
  let fired = ref 0 in
  let instrs = dag.Instr_dag.instrs in
  (* Which indices of the candidate's destination a dependent overwrites;
     reused across candidates. *)
  let covered = ref (Array.make 8 false) in
  for id = 0 to Array.length instrs - 1 do
    let f = instrs.(id) in
    if f.Instr.alive && f.Instr.op = Instr.Recv_reduce_copy_send then begin
      let dst = match f.Instr.dst with Some d -> d | None -> assert false in
      let lo = dst.Loc.index and hi = dst.Loc.index + dst.Loc.count in
      if Array.length !covered < dst.Loc.count then
        covered := Array.make dst.Loc.count false
      else Array.fill !covered 0 dst.Loc.count false;
      let covered = !covered in
      let uncovered = ref dst.Loc.count and read_here = ref false in
      (* Dependents: live successors (own row, then the absorbed send's)
         that still depend on [f]. A repeat visit changes nothing. *)
      for pass = 0 to 1 do
        let row = if pass = 0 then id else idx.absorbed.(id) in
        if row >= 0 then
          for k = idx.off.(row) to idx.off.(row + 1) - 1 do
            let j = instrs.(idx.tgt.(k)) in
            if j.Instr.alive && List.mem id j.Instr.deps then begin
              if reads_overlap j dst then read_here := true;
              if Instr.writes_local j.Instr.op then
                match j.Instr.dst with
                | Some w when Loc.overlaps w dst ->
                    for i = max lo w.Loc.index
                        to min hi (w.Loc.index + w.Loc.count) - 1 do
                      if not covered.(i - lo) then begin
                        covered.(i - lo) <- true;
                        decr uncovered
                      end
                    done
                | Some _ | None -> ()
            end
          done
      done;
      (* The store may be dropped only when the result is never read and
         every covered index is overwritten later anyway. *)
      if (not !read_here) && !uncovered = 0 then begin
        incr fired;
        f.Instr.op <- Instr.Recv_reduce_send;
        (* The accumuland is still read through [src]; only the local
           store disappears. *)
        f.Instr.src <- f.Instr.dst;
        f.Instr.dst <- None
      end
    end
  done;
  !fired

let fuse_rcs dag = fuse_rcs_idx (index dag) dag
let fuse_rrcs dag = fuse_rrcs_idx (index dag) dag
let fuse_rrs dag = fuse_rrs_idx (index dag) dag

(* The index is built once and kept current by [redirect]; rebuilding it
   per pass (plus once per topological sort) dominated fusion time on
   large rings. *)
let fuse dag =
  let idx = index dag in
  let rcs = fuse_rcs_idx idx dag in
  let rrcs = fuse_rrcs_idx idx dag in
  let rrs = fuse_rrs_idx idx dag in
  { rcs; rrcs; rrs }

type step = {
  s : int;
  op : Instr.opcode;
  src : Loc.t option;
  dst : Loc.t option;
  count : int;
  depends : (int * int) list;
  has_dep : bool;
}

type tb = {
  tb_id : int;
  send : int;
  recv : int;
  chan : int;
  steps : step array;
}

type gpu = {
  gpu_id : int;
  input_chunks : int;
  output_chunks : int;
  scratch_chunks : int;
  tbs : tb array;
}

type t = {
  name : string;
  collective : Collective.t;
  proto : Msccl_topology.Protocol.t;
  gpus : gpu array;
}

let num_ranks t = Array.length t.gpus

let num_thread_blocks t =
  Array.fold_left (fun n g -> n + Array.length g.tbs) 0 t.gpus

let num_steps t =
  Array.fold_left
    (fun n g ->
      Array.fold_left (fun n tb -> n + Array.length tb.steps) n g.tbs)
    0 t.gpus

let num_channels t =
  1
  + Array.fold_left
      (fun m g -> Array.fold_left (fun m tb -> max m tb.chan) m g.tbs)
      0 t.gpus

let iter_steps t f =
  Array.iter
    (fun g -> Array.iter (fun tb -> Array.iter (fun st -> f g tb st) tb.steps) g.tbs)
    t.gpus

let with_proto t proto = { t with proto }

let fail fmt = Format.kasprintf invalid_arg fmt

(* [depends] of a step of [tb] on [g]; a plain loop, so a step without
   dependencies costs no allocation. *)
let rec check_depends g tb = function
  | [] -> ()
  | (dtb, dstep) :: rest ->
      if dtb < 0 || dtb >= Array.length g.tbs then
        fail "Ir: dependency on unknown tb %d (gpu %d)" dtb g.gpu_id;
      if dstep < 0 || dstep >= Array.length g.tbs.(dtb).steps then
        fail "Ir: dependency on unknown step";
      if dtb = tb.tb_id then fail "Ir: same-tb dependency should be implicit";
      if not g.tbs.(dtb).steps.(dstep).has_dep then
        fail "Ir: dependency target not marked has_dep";
      check_depends g tb rest

(* ---- The connection index ---------------------------------------- *)

type index = {
  conns : int;
  conn_src : int array;
  conn_dst : int array;
  conn_chan : int array;
  conn_sends : int array;
  conn_recvs : int array;
  conn_start : int array;
  conn_mid : int array;
  ends : int array;
  block_send : int array;
  block_recv : int array;
  gpu_block : int array;
}

(* [perm] stably sorted by [key.(e)]. A counting sort when the keys span
   at most 4n + 256 values, a merge sort otherwise. The bound caps the
   counting array at four times the endpoints plus a constant, so memory
   stays O(blocks) whatever the keys, and it admits every well-formed IR:
   peers are ranks, fewer than the endpoints, and channels are small.
   Wider spans (huge channels, stray peers; a span of arbitrary ints may
   even overflow) take the merge sort. The counting path is the faster
   one (DESIGN.md, "The connection index"). *)
let sort_by key perm =
  let n = Array.length perm in
  let lo = Array.fold_left (fun m e -> Int.min m key.(e)) max_int perm in
  let span = Array.fold_left (fun m e -> Int.max m key.(e)) min_int perm - lo + 1 in
  if n = 0 || span = 1 then perm
  else if span > 0 && span <= (4 * n) + 256 then begin
    let start = Array.make (span + 1) 0 and out = Array.make n 0 in
    Array.iter (fun e -> start.(key.(e) - lo + 1) <- start.(key.(e) - lo + 1) + 1) perm;
    for j = 1 to span do
      start.(j) <- start.(j) + start.(j - 1)
    done;
    Array.iter
      (fun e ->
        out.(start.(key.(e) - lo)) <- e;
        start.(key.(e) - lo) <- start.(key.(e) - lo) + 1)
      perm;
    out
  end
  else begin
    let out = Array.copy perm in
    Array.stable_sort (fun a b -> Int.compare key.(a) key.(b)) out;
    out
  end

let index_of_gpus ?canon gpus =
  let ng = Array.length gpus in
  let gpu_block = Array.make (ng + 1) 0 in
  Array.iteri (fun gi g -> gpu_block.(gi + 1) <- gpu_block.(gi) + Array.length g.tbs) gpus;
  let nb = gpu_block.(ng) in
  (* Endpoint 2b is block b's send side and 2b + 1 its receive side: its
     key and step count, the count -1 for a side whose peer the block
     neither names nor uses. *)
  let e_src = Array.make (2 * nb) 0 and e_dst = Array.make (2 * nb) 0 in
  let e_ch = Array.make (2 * nb) 0 and e_n = Array.make (2 * nb) (-1) in
  let set e ~src ~dst ~chan ~peer n =
    if peer >= 0 || n > 0 then begin
      (match canon with
      | None ->
          e_src.(e) <- src;
          e_dst.(e) <- dst
      | Some f ->
          let s, d = f ~src ~dst in
          e_src.(e) <- s;
          e_dst.(e) <- d);
      e_ch.(e) <- chan;
      e_n.(e) <- n
    end
  in
  Array.iteri
    (fun gi g ->
      Array.iteri
        (fun ti tb ->
          let b = gpu_block.(gi) + ti and ns = ref 0 and nr = ref 0 in
          for si = 0 to Array.length tb.steps - 1 do
            let op = tb.steps.(si).op in
            if Instr.sends op then incr ns;
            if Instr.receives op then incr nr
          done;
          set (2 * b) ~src:g.gpu_id ~dst:tb.send ~chan:tb.chan ~peer:tb.send !ns;
          set ((2 * b) + 1) ~src:tb.recv ~dst:g.gpu_id ~chan:tb.chan ~peer:tb.recv
            !nr)
        g.tbs)
    gpus;
  (* Sending endpoints in block order, then receiving ones, stably sorted
     by (src, dst, chan): each connection's senders, then its receivers,
     each in block order. *)
  let ne = Array.fold_left (fun n c -> if c >= 0 then n + 1 else n) 0 e_n in
  let perm = Array.make ne 0 and k = ref 0 in
  for side = 0 to 1 do
    for b = 0 to nb - 1 do
      if e_n.((2 * b) + side) >= 0 then begin
        perm.(!k) <- (2 * b) + side;
        incr k
      end
    done
  done;
  let ends = sort_by e_src (sort_by e_dst (sort_by e_ch perm)) in
  let same a e =
    e_src.(a) = e_src.(e) && e_dst.(a) = e_dst.(e) && e_ch.(a) = e_ch.(e)
  in
  let conns = ref 0 in
  Array.iteri (fun k e -> if k = 0 || not (same ends.(k - 1) e) then incr conns) ends;
  let conns = !conns in
  let ints () = Array.make conns 0 in
  let conn_src = ints () and conn_dst = ints () and conn_chan = ints () in
  let conn_sends = ints () and conn_recvs = ints () and conn_mid = ints () in
  let conn_start = Array.make (conns + 1) ne in
  let block_send = Array.make nb (-1) and block_recv = Array.make nb (-1) in
  (* One walk numbers the connections; [ends] becomes their blocks in
     place, so the previous endpoint is kept aside. *)
  let c = ref (-1) and prev = ref (-1) in
  for k = 0 to ne - 1 do
    let e = ends.(k) in
    if k = 0 || not (same !prev e) then begin
      incr c;
      conn_src.(!c) <- e_src.(e);
      conn_dst.(!c) <- e_dst.(e);
      conn_chan.(!c) <- e_ch.(e);
      conn_start.(!c) <- k;
      conn_mid.(!c) <- k
    end;
    prev := e;
    let c = !c and b = e / 2 in
    ends.(k) <- b;
    if e land 1 = 0 then begin
      block_send.(b) <- c;
      conn_sends.(c) <- conn_sends.(c) + e_n.(e);
      conn_mid.(c) <- k + 1
    end
    else begin
      block_recv.(b) <- c;
      conn_recvs.(c) <- conn_recvs.(c) + e_n.(e)
    end
  done;
  { conns; conn_src; conn_dst; conn_chan; conn_sends; conn_recvs; conn_start;
    conn_mid; ends; block_send; block_recv; gpu_block }

let index t = index_of_gpus t.gpus

let find_conn idx ~src ~dst ~chan =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let c = (lo + hi) / 2 in
      let d =
        match Int.compare src idx.conn_src.(c) with
        | 0 -> (
            match Int.compare dst idx.conn_dst.(c) with
            | 0 -> Int.compare chan idx.conn_chan.(c)
            | d -> d)
        | d -> d
      in
      if d = 0 then c else if d < 0 then go lo c else go (c + 1) hi
  in
  go 0 idx.conns

let validate t =
  let ranks = num_ranks t in
  if ranks <> t.collective.Collective.num_ranks then
    fail "Ir: %d gpus but collective wants %d" ranks
      t.collective.Collective.num_ranks;
  let idx = index t in
  Array.iteri
    (fun gi g ->
      if g.gpu_id <> gi then fail "Ir: gpu id mismatch";
      if g.input_chunks < Collective.input_buffer_size t.collective then
        fail "Ir: gpu %d input buffer too small" gi;
      if g.output_chunks < Collective.output_buffer_size t.collective then
        fail "Ir: gpu %d output buffer too small" gi;
      (* Each connection has exactly one owning thread block per side:
         the first in block order. *)
      Array.iteri
        (fun ti tb ->
          let b = idx.gpu_block.(gi) + ti in
          if tb.tb_id <> ti then fail "Ir: tb id mismatch on gpu %d" gi;
          if tb.chan < 0 then fail "Ir: negative channel";
          if tb.send >= ranks || tb.recv >= ranks then
            fail "Ir: peer out of range on gpu %d" gi;
          if tb.send = gi || tb.recv = gi then
            fail "Ir: gpu %d connected to itself" gi;
          if tb.send >= 0
             && idx.ends.(idx.conn_start.(idx.block_send.(b))) <> b
          then
            fail "Ir: two thread blocks send on connection %d->%d ch%d" gi
              tb.send tb.chan;
          if tb.recv >= 0 && idx.ends.(idx.conn_mid.(idx.block_recv.(b))) <> b
          then
            fail "Ir: two thread blocks receive on connection %d<-%d ch%d" gi
              tb.recv tb.chan;
          for si = 0 to Array.length tb.steps - 1 do
            let st = tb.steps.(si) in
            if st.s <> si then fail "Ir: step index mismatch";
            if st.count <= 0 then fail "Ir: nonpositive count";
            if Instr.sends st.op && tb.send < 0 then
              fail "Ir: sending step in tb without send peer (gpu %d)" gi;
            if Instr.receives st.op && tb.recv < 0 then
              fail "Ir: receiving step in tb without recv peer (gpu %d)" gi;
            (match st.src with
            | Some l when l.Loc.rank <> gi ->
                fail "Ir: step src on foreign rank"
            | Some _ | None -> ());
            (match st.dst with
            | Some l when l.Loc.rank <> gi ->
                fail "Ir: step dst on foreign rank"
            | Some _ | None -> ());
            check_depends g tb st.depends
          done)
        g.tbs)
    t.gpus;
  (* Per-connection send and receive counts, which must match; the lowest
     unbalanced connection is named. *)
  for c = 0 to idx.conns - 1 do
    let n = idx.conn_sends.(c) and m = idx.conn_recvs.(c) in
    if n <> m then
      if n = 0 then
        fail "Ir: connection %d->%d ch%d receives without sends"
          idx.conn_src.(c) idx.conn_dst.(c) idx.conn_chan.(c)
      else
        fail "Ir: connection %d->%d ch%d sends %d but receives %d"
          idx.conn_src.(c) idx.conn_dst.(c) idx.conn_chan.(c) n m
  done

let equal_step (x : step) (y : step) =
  x.s = y.s && x.op = y.op && x.count = y.count && x.depends = y.depends
  && x.has_dep = y.has_dep
  && Option.equal Loc.equal x.src y.src
  && Option.equal Loc.equal x.dst y.dst

let equal_tb (x : tb) (y : tb) =
  x.tb_id = y.tb_id && x.send = y.send && x.recv = y.recv && x.chan = y.chan
  && Array.length x.steps = Array.length y.steps
  && Array.for_all2 equal_step x.steps y.steps

let equal_gpu (x : gpu) (y : gpu) =
  x.gpu_id = y.gpu_id
  && x.input_chunks = y.input_chunks
  && x.output_chunks = y.output_chunks
  && x.scratch_chunks = y.scratch_chunks
  && Array.length x.tbs = Array.length y.tbs
  && Array.for_all2 equal_tb x.tbs y.tbs

let equal a b =
  a.name = b.name && a.proto = b.proto
  && Collective.equal_shape a.collective b.collective
  && num_ranks a = num_ranks b
  && Array.for_all2 equal_gpu a.gpus b.gpus

let pp_loc_opt fmt = function
  | None -> Format.pp_print_string fmt "-"
  | Some l ->
      Format.fprintf fmt "%s[%d]" (Buffer_id.name l.Loc.buf) l.Loc.index

let pp fmt t =
  Format.fprintf fmt "@[<v>%s: %a proto=%a@," t.name Collective.pp
    t.collective Msccl_topology.Protocol.pp t.proto;
  Array.iter
    (fun g ->
      Format.fprintf fmt "gpu %d (i=%d o=%d s=%d):@," g.gpu_id g.input_chunks
        g.output_chunks g.scratch_chunks;
      Array.iter
        (fun tb ->
          Format.fprintf fmt "  tb %d send=%d recv=%d ch=%d@," tb.tb_id
            tb.send tb.recv tb.chan;
          Array.iter
            (fun st ->
              let deps_str =
                match st.depends with
                | [] -> ""
                | ds ->
                    " deps="
                    ^ String.concat ","
                        (List.map
                           (fun (tb, s) -> Printf.sprintf "(%d,%d)" tb s)
                           ds)
              in
              let dep_mark = if st.has_dep then " <dep>" else "" in
              Format.fprintf fmt "    %2d: %-4s src=%a dst=%a cnt=%d%s%s@,"
                st.s
                (Instr.opcode_name st.op)
                pp_loc_opt st.src pp_loc_opt st.dst st.count deps_str dep_mark)
            tb.steps)
        g.tbs)
    t.gpus;
  Format.fprintf fmt "@]"

let summary t =
  Printf.sprintf "%s: %d gpus, %d tbs, %d steps, %d channels" t.name
    (num_ranks t) (num_thread_blocks t) (num_steps t) (num_channels t)

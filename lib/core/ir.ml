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

let validate t =
  let ranks = num_ranks t in
  if ranks <> t.collective.Collective.num_ranks then
    fail "Ir: %d gpus but collective wants %d" ranks
      t.collective.Collective.num_ranks;
  (* Channels of the blocks seen so far on the current gpu, per send and
     per receive peer; emptied again after each gpu, so the tables cost
     O(ranks) once rather than per gpu. *)
  let send_chans = Array.make ranks [] and recv_chans = Array.make ranks [] in
  let claim chans peer chan =
    let seen = chans.(peer) in
    chans.(peer) <- chan :: seen;
    List.exists (Int.equal chan) seen
  in
  (* Per-connection send and receive counts, which must match. Every step
     of a block uses the block's one connection per direction, so each
     block adds its totals once. *)
  let sends = Hashtbl.create 32 and recvs = Hashtbl.create 32 in
  let add tbl key n =
    if n > 0 then
      Hashtbl.replace tbl key
        (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  Array.iteri
    (fun gi g ->
      if g.gpu_id <> gi then fail "Ir: gpu id mismatch";
      if g.input_chunks < Collective.input_buffer_size t.collective then
        fail "Ir: gpu %d input buffer too small" gi;
      if g.output_chunks < Collective.output_buffer_size t.collective then
        fail "Ir: gpu %d output buffer too small" gi;
      (* Each connection has exactly one owning thread block per side. *)
      Array.iteri
        (fun ti tb ->
          if tb.tb_id <> ti then fail "Ir: tb id mismatch on gpu %d" gi;
          if tb.chan < 0 then fail "Ir: negative channel";
          if tb.send >= ranks || tb.recv >= ranks then
            fail "Ir: peer out of range on gpu %d" gi;
          if tb.send = gi || tb.recv = gi then
            fail "Ir: gpu %d connected to itself" gi;
          if tb.send >= 0 && claim send_chans tb.send tb.chan then
            fail "Ir: two thread blocks send on connection %d->%d ch%d" gi
              tb.send tb.chan;
          if tb.recv >= 0 && claim recv_chans tb.recv tb.chan then
            fail "Ir: two thread blocks receive on connection %d<-%d ch%d" gi
              tb.recv tb.chan;
          let ns = ref 0 and nr = ref 0 in
          for si = 0 to Array.length tb.steps - 1 do
            let st = tb.steps.(si) in
            if st.s <> si then fail "Ir: step index mismatch";
            if st.count <= 0 then fail "Ir: nonpositive count";
            if Instr.sends st.op then begin
              if tb.send < 0 then
                fail "Ir: sending step in tb without send peer (gpu %d)" gi;
              incr ns
            end;
            if Instr.receives st.op then begin
              if tb.recv < 0 then
                fail "Ir: receiving step in tb without recv peer (gpu %d)" gi;
              incr nr
            end;
            (match st.src with
            | Some l when l.Loc.rank <> gi ->
                fail "Ir: step src on foreign rank"
            | Some _ | None -> ());
            (match st.dst with
            | Some l when l.Loc.rank <> gi ->
                fail "Ir: step dst on foreign rank"
            | Some _ | None -> ());
            check_depends g tb st.depends
          done;
          add sends (gi, tb.send, tb.chan) !ns;
          add recvs (tb.recv, gi, tb.chan) !nr)
        g.tbs;
      Array.iter
        (fun tb ->
          if tb.send >= 0 then send_chans.(tb.send) <- [];
          if tb.recv >= 0 then recv_chans.(tb.recv) <- [])
        g.tbs)
    t.gpus;
  Hashtbl.iter
    (fun (src, dst, ch) n ->
      let m = Option.value ~default:0 (Hashtbl.find_opt recvs (src, dst, ch)) in
      if n <> m then
        fail "Ir: connection %d->%d ch%d sends %d but receives %d" src dst ch
          n m)
    sends;
  Hashtbl.iter
    (fun (src, dst, ch) _ ->
      if not (Hashtbl.mem sends (src, dst, ch)) then
        fail "Ir: connection %d->%d ch%d receives without sends" src dst ch)
    recvs

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

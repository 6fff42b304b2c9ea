(* Replicated (symmetry-aware) compilation.

   Given a ring-shift Sym_hint, the full program is the union of P
   slices, slice k = pi^k(slice 0). Instead of tracing and scheduling all
   P slices (O(P^2) instructions for ring-like programs), we:

   1. trace, lower and fuse only slice 0 (O(P) instructions, spread over
      all ranks);
   2. *lift* every slice-0 instruction to the representative rank 0: the
      instruction of rank r in slice 0 is, under pi^(-r), an instruction
      of rank 0 in slice (-r) — rank 0's full program is exactly the
      lifted multiset;
   3. schedule the lifted instructions on Schedule.run's own path
      (Schedule.rank_tbs: the fused slice's one checked graph and its
      channels, then the same thread-block formation, priorities and
      FIFO back-pressure), keying each connection's FIFO state by its
      *orbit* ((dst - src) mod P, channel) instead of the connection
      itself. The slice is read in place and lifted as it is placed. A
      lifted receive's matching send lives on a peer rank, but the
      peer's program is a rotation of rank 0's, so the peer's k-th send
      on the orbit is rank 0's k-th send on the same orbit — FIFO
      matching against rank 0's own sends reproduces the global
      schedule;
   4. instantiate gpus 1..P-1 from gpu 0 by index arithmetic (peers by
      +g mod P, chunk indices by the hint's per-slice deltas), renumbering
      each rank's thread blocks with Schedule.tb_order, the order the
      scheduler numbers them in.

   The construction is unsound if the hint lies (the slices are not
   dep-closed, or the deltas are wrong) or if the global scheduler would
   have interleaved orbit members inconsistently. Both are caught
   downstream: certification (Symmetry.verify_candidate) and the
   differential mode assert the result; any failure here raises
   [Fallback], which callers translate into the full pipeline. *)

exception Fallback of string

let bail fmt = Format.kasprintf (fun s -> raise (Fallback s)) fmt

type result = {
  r_ir : Ir.t Lazy.t;
  r_rep : Ir.gpu;  (* the representative rank program (gpu 0) *)
  r_gpu : int -> Ir.gpu;  (* materialize one rank on demand *)
  r_num_ranks : int;
  r_proto : Msccl_topology.Protocol.t;
  r_chunk_ops : int;  (* slice-0 chunk ops actually traced *)
  r_instrs_before_fusion : int;
  r_fusion : Fusion.stats;
  r_instrs_after_fusion : int;
}

(* gcd / modular inverse for the shift arithmetic. *)
let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let mod_inv s p =
  (* s and p coprime; extended Euclid. *)
  let rec go r0 r1 t0 t1 = if r1 = 0 then t0 else go r1 (r0 mod r1) t1 (t0 - (r0 / r1 * t1)) in
  ((go p s 0 1 mod p) + p) mod p

let run ?(proto = Msccl_topology.Protocol.Simple) ?name
    ~(hint : Sym_hint.t) ?(fuse = true) coll =
  let p = coll.Collective.num_ranks in
  let shift = Sym_hint.shift_mod hint ~num_ranks:p in
  if shift = 0 then bail "hint shift is the identity";
  if gcd shift p <> 1 then
    bail "hint shift %d not coprime with %d ranks" shift p;
  let s_inv = mod_inv shift p in
  (* 1. Trace / lower / fuse the representative slice. *)
  let dag0 =
    try Program.trace ?name ~sparse:true coll hint.Sym_hint.trace_rep
    with Program.Trace_error m -> bail "representative slice: %s" m
  in
  let idag = Instr_dag.of_chunk_dag dag0 in
  let before = Instr_dag.num_live idag in
  let fusion =
    if fuse then Fusion.fuse idag else { Fusion.rcs = 0; rrcs = 0; rrs = 0 }
  in
  let after = Instr_dag.num_live idag in
  if after = 0 then bail "representative slice is empty";
  (* 2. Lift to rank 0. *)
  let m_in = Collective.input_buffer_size coll in
  let m_out = Collective.output_buffer_size coll in
  let m_scr = hint.Sym_hint.scratch_chunks in
  (* Per-slice chunk-index delta and size of a buffer. *)
  let delta_size = function
    | Buffer_id.Input -> (hint.Sym_hint.d_input, m_in)
    | Buffer_id.Output -> (hint.Sym_hint.d_output, m_out)
    | Buffer_id.Scratch -> (hint.Sym_hint.d_scratch, m_scr)
  in
  (* Moves a location [k] slices along its buffer, onto [rank]. *)
  let move_loc ~rank k (l : Loc.t) =
    let d, m = delta_size l.Loc.buf in
    if m <= 0 then bail "hint declares no %s buffer" (Buffer_id.name l.Loc.buf);
    let index = (l.Loc.index + (k * d)) mod m in
    if index + l.Loc.count > m then
      bail "slice footprint wraps the %s buffer" (Buffer_id.name l.Loc.buf);
    Loc.make ~rank ~buf:l.Loc.buf ~index ~count:l.Loc.count
  in
  let lift (i : Instr.t) =
    (* translation amount in ranks, then in slices *)
    let j = (p - i.Instr.rank) mod p in
    let move = move_loc ~rank:0 (j * s_inv mod p) in
    let peer = Option.map (fun q -> (q + j) mod p) in
    {
      i with
      Instr.rank = 0;
      send_peer = peer i.Instr.send_peer;
      recv_peer = peer i.Instr.recv_peer;
      src = Option.map move i.Instr.src;
      dst = Option.map move i.Instr.dst;
    }
  in
  (* 3. Schedule the lifted instructions with orbit-keyed connections. *)
  let gpu0_tbs =
    match
      Schedule.rank_tbs
        ~slots:(Msccl_topology.Protocol.num_slots proto)
        ~conn:(fun ~src ~dst ~ch -> ((dst - src + p) mod p, ch))
        ~lift idag
    with
    | Ok tbs -> tbs.(0)
    | Error m -> bail "quotient schedule: %s" m
  in
  let gpu0 =
    {
      Ir.gpu_id = 0;
      input_chunks = m_in;
      output_chunks = m_out;
      scratch_chunks = m_scr;
      tbs = gpu0_tbs;
    }
  in
  (* 4. Instantiate gpus 1..P-1 by index arithmetic. *)
  let translate_gpu g =
    let move = move_loc ~rank:g (g * s_inv mod p) in
    let peer q = if q < 0 then -1 else (q + g) mod p in
    (* Translated peers change the blocks' MSCCL-IR order: the per-rank
       block numbering is not shift-invariant. *)
    let order =
      Schedule.tb_order
        (Array.map
           (fun (tb : Ir.tb) -> (tb.Ir.chan, peer tb.Ir.send, peer tb.Ir.recv))
           gpu0_tbs)
    in
    let sigma = Array.make (Array.length order) (-1) in
    Array.iteri (fun new_id old_id -> sigma.(old_id) <- new_id) order;
    let tbs =
      Array.mapi
        (fun new_id old_id ->
          let tb = gpu0_tbs.(old_id) in
          {
            Ir.tb_id = new_id;
            send = peer tb.Ir.send;
            recv = peer tb.Ir.recv;
            chan = tb.Ir.chan;
            steps =
              Array.map
                (fun (st : Ir.step) ->
                  {
                    st with
                    Ir.src = Option.map move st.Ir.src;
                    dst = Option.map move st.Ir.dst;
                    depends =
                      List.map (fun (dtb, ds) -> (sigma.(dtb), ds)) st.Ir.depends
                      |> List.sort compare;
                  })
                tb.Ir.steps;
          })
        order
    in
    {
      Ir.gpu_id = g;
      input_chunks = gpu0.Ir.input_chunks;
      output_chunks = gpu0.Ir.output_chunks;
      scratch_chunks = gpu0.Ir.scratch_chunks;
      tbs;
    }
  in
  (* Translation never wraps a span: counts of 1 always fit, and wider
     spans must stay aligned to strides of the per-slice delta. Checked
     here, at construction, so the lazy instantiation below cannot fail. *)
  Array.iter
    (fun (tb : Ir.tb) ->
      Array.iter
        (fun (st : Ir.step) ->
          let check = function
            | None -> ()
            | Some (l : Loc.t) ->
                if l.Loc.count > 1 then begin
                  let d, m = delta_size l.Loc.buf in
                  if
                    l.Loc.index mod l.Loc.count <> 0
                    || d mod l.Loc.count <> 0
                    || m mod l.Loc.count <> 0
                  then
                    bail "instance footprint may wrap the %s buffer"
                      (Buffer_id.long_name l.Loc.buf)
                end
          in
          check st.Ir.src;
          check st.Ir.dst)
        tb.Ir.steps)
    gpu0_tbs;
  let ir =
    lazy
      {
        Ir.name = dag0.Chunk_dag.name;
        collective = coll;
        proto;
        gpus =
          Array.init p (fun g -> if g = 0 then gpu0 else translate_gpu g);
      }
  in
  (* Cheap structural sanity on the representative (the full Ir.validate is
     O(total steps) and the instances are images of gpu 0 by construction;
     certification and the differential mode guard the rest). *)
  Array.iter
    (fun (tb : Ir.tb) ->
      Array.iteri
        (fun si (st : Ir.step) ->
          if st.Ir.s <> si then bail "rep: step index mismatch";
          List.iter
            (fun (dtb, ds) ->
              if dtb < 0 || dtb >= Array.length gpu0_tbs then
                bail "rep: dependency on unknown tb";
              if ds < 0 || ds >= Array.length gpu0_tbs.(dtb).Ir.steps then
                bail "rep: dependency on unknown step";
              if not gpu0_tbs.(dtb).Ir.steps.(ds).Ir.has_dep then
                bail "rep: dependency target not marked")
            st.Ir.depends)
        tb.Ir.steps)
    gpu0_tbs;
  {
    r_ir = ir;
    r_rep = gpu0;
    r_gpu = (fun g -> if g = 0 then gpu0 else translate_gpu g);
    r_num_ranks = p;
    r_proto = proto;
    r_chunk_ops = Chunk_dag.num_nodes dag0;
    r_instrs_before_fusion = before;
    r_fusion = fusion;
    r_instrs_after_fusion = after;
  }

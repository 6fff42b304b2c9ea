exception Exec_error of string

let error fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

module type VALUE = sig
  type v

  val reduce : v -> v -> v
  val copy : v -> v
end

module type S = sig
  type v

  type state

  val run :
    ?slots:int ->
    ?on_deliver:
      (state ->
      src:int * int * int ->
      dst:int * int * int ->
      op:Instr.opcode ->
      payload:v array ->
      unit) ->
    ?on_write:(writer:int * int * int -> loc:Loc.t -> unit) ->
    init:(rank:int -> index:int -> v option) ->
    Ir.t ->
    state

  val input : state -> rank:int -> v option array
  val output : state -> rank:int -> v option array
  val scratch : state -> rank:int -> v option array

  val steps_executed : state -> int
end

module Make (V : VALUE) = struct
  type v = V.v

  type rank_buffers = {
    b_input : v option array;
    b_output : v option array;  (* == b_input when in-place *)
    b_scratch : v option array;
  }

  type state = {
    buffers : rank_buffers array;
    mutable executed : int;
  }

  let input st ~rank = st.buffers.(rank).b_input
  let output st ~rank = st.buffers.(rank).b_output
  let scratch st ~rank = st.buffers.(rank).b_scratch
  let steps_executed st = st.executed

  let buffer_of st ~inplace (l : Loc.t) =
    let b = st.buffers.(l.Loc.rank) in
    match l.Loc.buf with
    | Buffer_id.Input -> b.b_input
    | Buffer_id.Output -> if inplace then b.b_input else b.b_output
    | Buffer_id.Scratch -> b.b_scratch

  (* [ctx] names the executing instruction — "rank R tb T step S (op)" —
     so a failure in a large fuzzed or shrunk IR is diagnosable without a
     debugger. *)
  let read st ~inplace ~ctx (l : Loc.t) =
    let arr = buffer_of st ~inplace l in
    Array.init l.Loc.count (fun k ->
        let idx = l.Loc.index + k in
        if idx >= Array.length arr then
          error "%s: read past end of %s buffer at %a" ctx
            (Buffer_id.long_name l.Loc.buf) Loc.pp l;
        match arr.(idx) with
        | Some v -> v
        | None ->
            error "%s: reading uninitialized chunk at rank %d %s[%d]" ctx
              l.Loc.rank
              (Buffer_id.long_name l.Loc.buf) idx)

  let write st ~inplace ~ctx (l : Loc.t) vals =
    let arr = buffer_of st ~inplace l in
    if l.Loc.index + l.Loc.count > Array.length arr then
      error "%s: write past end of %s buffer at rank %d" ctx
        (Buffer_id.long_name l.Loc.buf) l.Loc.rank;
    Array.iteri (fun k v -> arr.(l.Loc.index + k) <- Some (V.copy v)) vals

  (* Ingestion accepts a step without the operand its opcode uses (an rcs
     with no destination); that is an execution error at the step, like a
     read past the end. *)
  let operand ~ctx what = function
    | Some l -> l
    | None -> error "%s: no %s operand" ctx what

  let run ?slots ?on_deliver ?on_write ~init (ir : Ir.t) =
    let slots =
      match slots with
      | Some s -> s
      | None -> Msccl_topology.Protocol.num_slots ir.Ir.proto
    in
    if slots < 1 then error "need at least one FIFO slot";
    let inplace = ir.Ir.collective.Collective.inplace in
    let st =
      {
        buffers =
          Array.map
            (fun (g : Ir.gpu) ->
              let b_input =
                Array.init g.Ir.input_chunks (fun index ->
                    init ~rank:g.Ir.gpu_id ~index)
              in
              {
                b_input;
                b_output =
                  (if inplace then b_input
                   else Array.make g.Ir.output_chunks None);
                b_scratch = Array.make g.Ir.scratch_chunks None;
              })
            ir.Ir.gpus;
        executed = 0;
      }
    in
    (* Connection FIFOs: (src, dst, ch) -> queued messages, each tagged
       with the sending step's (gpu, tb, step) for observers. *)
    let queues :
        (int * int * int, (v array * (int * int * int)) Queue.t) Hashtbl.t =
      Hashtbl.create 32
    in
    let queue key =
      match Hashtbl.find_opt queues key with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.add queues key q;
          q
    in
    (* Per-thread-block progress: number of completed steps (the runtime's
       semaphores, §6.2). *)
    let sem =
      Array.map (fun (g : Ir.gpu) -> Array.make (Array.length g.Ir.tbs) 0)
        ir.Ir.gpus
    in
    let total_steps = Ir.num_steps ir in
    let blocked_reason (g : Ir.gpu) (tb : Ir.tb) (step : Ir.step) =
      let dep =
        List.find_opt
          (fun (dtb, dstep) -> sem.(g.Ir.gpu_id).(dtb) <= dstep)
          step.Ir.depends
      in
      match dep with
      | Some (dtb, dstep) ->
          Printf.sprintf "waiting on semaphore (tb %d, step %d)" dtb dstep
      | None ->
          if
            Instr.receives step.Ir.op
            && Queue.is_empty (queue (tb.Ir.recv, g.Ir.gpu_id, tb.Ir.chan))
          then Printf.sprintf "waiting for data from rank %d" tb.Ir.recv
          else if
            Instr.sends step.Ir.op
            && Queue.length (queue (g.Ir.gpu_id, tb.Ir.send, tb.Ir.chan))
               >= slots
          then
            Printf.sprintf "all %d FIFO slots to rank %d are full" slots
              tb.Ir.send
          else "unknown"
    in
    let try_step (g : Ir.gpu) (tb : Ir.tb) =
      let rank = g.Ir.gpu_id in
      let done_steps = sem.(rank).(tb.Ir.tb_id) in
      if done_steps >= Array.length tb.Ir.steps then false
      else begin
        let step = tb.Ir.steps.(done_steps) in
        let deps_ok =
          List.for_all
            (fun (dtb, dstep) -> sem.(rank).(dtb) > dstep)
            step.Ir.depends
        in
        let recv_key = (tb.Ir.recv, rank, tb.Ir.chan) in
        let send_key = (rank, tb.Ir.send, tb.Ir.chan) in
        let recv_ok =
          (not (Instr.receives step.Ir.op))
          || not (Queue.is_empty (queue recv_key))
        in
        let send_ok =
          (not (Instr.sends step.Ir.op))
          || Queue.length (queue send_key) < slots
        in
        if deps_ok && recv_ok && send_ok then begin
          let push vals =
            Queue.add
              (Array.map V.copy vals, (rank, tb.Ir.tb_id, done_steps))
              (queue send_key)
          in
          let pop () =
            let vals, sender = Queue.pop (queue recv_key) in
            (match on_deliver with
            | Some f ->
                f st ~src:sender
                  ~dst:(rank, tb.Ir.tb_id, done_steps)
                  ~op:step.Ir.op ~payload:vals
            | None -> ());
            vals
          in
          let ctx =
            Printf.sprintf "rank %d tb %d step %d (%s)" rank tb.Ir.tb_id
              done_steps
              (Instr.opcode_name step.Ir.op)
          in
          let rd l = read st ~inplace ~ctx l in
          let wr l vals =
            write st ~inplace ~ctx l vals;
            match on_write with
            | Some f -> f ~writer:(rank, tb.Ir.tb_id, done_steps) ~loc:l
            | None -> ()
          in
          let src () = operand ~ctx "source" step.Ir.src in
          let dst () = operand ~ctx "destination" step.Ir.dst in
          (match step.Ir.op with
          | Instr.Nop -> ()
          | Instr.Send -> push (rd (src ()))
          | Instr.Recv -> wr (dst ()) (pop ())
          | Instr.Copy -> wr (dst ()) (rd (src ()))
          | Instr.Reduce ->
              wr (dst ()) (Array.map2 V.reduce (rd (dst ())) (rd (src ())))
          | Instr.Recv_reduce_copy ->
              wr (dst ()) (Array.map2 V.reduce (rd (src ())) (pop ()))
          | Instr.Recv_copy_send ->
              let msg = pop () in
              wr (dst ()) msg;
              push msg
          | Instr.Recv_reduce_send ->
              push (Array.map2 V.reduce (rd (src ())) (pop ()))
          | Instr.Recv_reduce_copy_send ->
              let res = Array.map2 V.reduce (rd (src ())) (pop ()) in
              wr (dst ()) res;
              push res);
          sem.(rank).(tb.Ir.tb_id) <- done_steps + 1;
          st.executed <- st.executed + 1;
          true
        end
        else false
      end
    in
    let rec loop () =
      if st.executed < total_steps then begin
        let progress = ref false in
        Array.iter
          (fun (g : Ir.gpu) ->
            Array.iter
              (fun tb -> while try_step g tb do progress := true done)
              g.Ir.tbs)
          ir.Ir.gpus;
        if not !progress then begin
          let blocked = Buffer.create 128 in
          Array.iter
            (fun (g : Ir.gpu) ->
              Array.iter
                (fun (tb : Ir.tb) ->
                  let d = sem.(g.Ir.gpu_id).(tb.Ir.tb_id) in
                  if d < Array.length tb.Ir.steps then
                    Buffer.add_string blocked
                      (Printf.sprintf "\n  gpu %d tb %d at step %d (%s): %s"
                         g.Ir.gpu_id tb.Ir.tb_id d
                         (Instr.opcode_name tb.Ir.steps.(d).Ir.op)
                         (blocked_reason g tb tb.Ir.steps.(d))))
                g.Ir.tbs)
            ir.Ir.gpus;
          error "deadlock: no thread block can make progress%s"
            (Buffer.contents blocked)
        end;
        loop ()
      end
    in
    loop ();
    Hashtbl.iter
      (fun (s, d, c) q ->
        if not (Queue.is_empty q) then
          let _, (sg, stb, sstep) = Queue.peek q in
          error
            "%d message(s) left in flight on connection %d->%d ch%d (first \
             sent by rank %d tb %d step %d)"
            (Queue.length q) s d c sg stb sstep)
      queues;
    st
end

module Chunk_value = struct
  type v = Chunk.t

  let reduce = Chunk.reduce
  let copy c = c
end

module Symbolic = struct
  include Make (Chunk_value)

  let run_collective ?slots ?on_deliver ?on_write (ir : Ir.t) =
    let coll = ir.Ir.collective in
    let in_size = Collective.input_buffer_size coll in
    let init ~rank ~index =
      if index >= in_size then None
      else
        let c = Collective.precondition coll ~rank ~index in
        if Chunk.is_uninit c then None else Some c
    in
    run ?slots ?on_deliver ?on_write ~init ir
end

module Float_value = struct
  type v = float array

  let reduce a b = Array.map2 ( +. ) a b
  let copy = Array.copy
end

module Data = struct
  include Make (Float_value)

  (* Cheap deterministic hash-based pseudo-random chunk contents. *)
  let random_input ~elems_per_chunk ~seed ~rank ~index =
    Array.init elems_per_chunk (fun e ->
        let h =
          (seed * 1000003) + (rank * 7919) + (index * 104729) + (e * 31)
        in
        let h = h lxor (h lsr 13) in
        let h = h * 0x5DEECE6 in
        let h = h lxor (h lsr 17) in
        float_of_int (h land 0xFFFF) /. 65536.)

  let init_of_precondition ~elems_per_chunk ~seed (ir : Ir.t) ~rank ~index =
    let coll = ir.Ir.collective in
    if index >= Collective.input_buffer_size coll then None
    else
      let c = Collective.precondition coll ~rank ~index in
      match Chunk.inputs c with
      | None -> None
      | Some [ (r, i) ] ->
          Some (random_input ~elems_per_chunk ~seed ~rank:r ~index:i)
      | Some _ ->
          (* Preconditions only ever place plain input chunks. *)
          assert false

  let run_random ?slots ?(elems_per_chunk = 4) ?(seed = 42) (ir : Ir.t) =
    run ?slots
      ~init:(fun ~rank ~index ->
        init_of_precondition ~elems_per_chunk ~seed ir ~rank ~index)
      ir

  let reference ~elems_per_chunk ~seed (ir : Ir.t) ~rank ~index =
    match Collective.postcondition ir.Ir.collective ~rank ~index with
    | None -> None
    | Some c -> (
        match Chunk.inputs c with
        | None -> None
        | Some ids ->
            let acc = Array.make elems_per_chunk 0. in
            List.iter
              (fun (r, i) ->
                let v = random_input ~elems_per_chunk ~seed ~rank:r ~index:i in
                Array.iteri (fun e x -> acc.(e) <- acc.(e) +. x) v)
              ids;
            Some acc)
end

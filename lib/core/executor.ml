exception Exec_error of string

let error fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

(* ------------------------------------------------------------------ *)
(* The runtime's scheduling rules, generic over the value domain       *)
(* ------------------------------------------------------------------ *)

type at = int * int * int

type fault =
  | No_operand of string
  | Message_size of { sent : int; expected : int; sender : at }

type 'v interp = {
  read : at -> Loc.t -> 'v array;
  write : at -> Loc.t -> 'v array -> unit;
  reduce : 'v -> 'v -> 'v;
  fault : at -> fault -> 'v;
  received : at -> sender:at -> 'v array -> unit;
}

type 'v port = {
  recv_ready : unit -> bool;
  pop : unit -> 'v array * at;
  send_ready : unit -> bool;
  push : 'v array * at -> unit;
}

type 'v comm = int -> int -> 'v port

type wait = Semaphore of (int * int) | Data_from of int | Slots_to of int
type outcome = { executed : int; stuck : (at * wait) list }

(* What keeps [step], the next step of [tb], from running now; [sem]
   holds the completed-step counts of its GPU's thread blocks. Out-of-range
   [depends] entries count as satisfied, so no checker raises on them;
   [Ir.validate] rejects such IR before [Verify.check] executes it. *)
let rec unmet sem = function
  | [] -> None
  | ((dtb, dstep) as d) :: rest ->
      if dtb >= 0 && dtb < Array.length sem && sem.(dtb) <= dstep then Some d
      else unmet sem rest

let wait_of port sem (tb : Ir.tb) (step : Ir.step) =
  match unmet sem step.Ir.depends with
  | Some d -> Some (Semaphore d)
  | None ->
      if Instr.receives step.Ir.op && not (port.recv_ready ()) then
        Some (Data_from tb.Ir.recv)
      else if Instr.sends step.Ir.op && not (port.send_ready ()) then
        Some (Slots_to tb.Ir.send)
      else None

(* Runs one step whose waits are all satisfied: a receive pops first,
   then sources are read, then the result is written and forwarded. A
   popped message must carry exactly the step's [count] chunks; otherwise
   [it.fault] stands in for every chunk, which keeps the FIFOs balanced. *)
let operand it at count what = function
  | Some l -> it.read at l
  | None -> Array.make count (it.fault at (No_operand what))

let exec it port (step : Ir.step) at =
  let count = step.Ir.count in
  let msg =
    if not (Instr.receives step.Ir.op) then [||]
    else begin
      let vals, sender = port.pop () in
      let sent = Array.length vals in
      let vals =
        if sent = count then vals
        else
          Array.make count
            (it.fault at (Message_size { sent; expected = count; sender }))
      in
      it.received at ~sender vals;
      vals
    end
  in
  let vals =
    match step.Ir.op with
    | Instr.Nop -> [||]
    | Instr.Send | Instr.Copy -> operand it at count "source" step.Ir.src
    | Instr.Recv | Instr.Recv_copy_send -> msg
    | Instr.Reduce ->
        let s = operand it at count "source" step.Ir.src in
        Array.map2 it.reduce (operand it at count "destination" step.Ir.dst) s
    | Instr.Recv_reduce_copy | Instr.Recv_reduce_send
    | Instr.Recv_reduce_copy_send ->
        Array.map2 it.reduce (operand it at count "source" step.Ir.src) msg
  in
  if Instr.writes_local step.Ir.op then begin
    match step.Ir.dst with
    | Some l -> it.write at l vals
    | None -> ignore (it.fault at (No_operand "destination"))
  end;
  if Instr.sends step.Ir.op then port.push (vals, at)

let schedule it comm (gpus : Ir.gpu array) =
  (* Per-thread-block progress: number of completed steps (the runtime's
     semaphores, §6.2), indexed like [gpus]. *)
  let sems =
    Array.map (fun (g : Ir.gpu) -> Array.make (Array.length g.Ir.tbs) 0) gpus
  in
  (* Each thread block's connections, resolved once. *)
  let ports =
    Array.mapi (fun i (g : Ir.gpu) -> Array.init (Array.length g.Ir.tbs) (comm i)) gpus
  in
  let executed = ref 0 in
  let try_step sem port (g : Ir.gpu) (tb : Ir.tb) =
    let d = sem.(tb.Ir.tb_id) in
    d < Array.length tb.Ir.steps
    && Option.is_none (wait_of port sem tb tb.Ir.steps.(d))
    && begin
         exec it port tb.Ir.steps.(d) (g.Ir.gpu_id, tb.Ir.tb_id, d);
         sem.(tb.Ir.tb_id) <- d + 1;
         incr executed;
         true
       end
  in
  let rec loop () =
    let progress = ref false in
    Array.iteri
      (fun i (g : Ir.gpu) ->
        Array.iteri
          (fun t tb ->
            while try_step sems.(i) ports.(i).(t) g tb do
              progress := true
            done)
          g.Ir.tbs)
      gpus;
    if !progress then loop ()
  in
  loop ();
  let stuck = ref [] in
  Array.iteri
    (fun i (g : Ir.gpu) ->
      Array.iteri
        (fun t (tb : Ir.tb) ->
          let d = sems.(i).(tb.Ir.tb_id) in
          if d < Array.length tb.Ir.steps then
            match wait_of ports.(i).(t) sems.(i) tb tb.Ir.steps.(d) with
            | Some w -> stuck := ((g.Ir.gpu_id, tb.Ir.tb_id, d), w) :: !stuck
            | None -> ())
        g.Ir.tbs)
    gpus;
  { executed = !executed; stuck = List.rev !stuck }

(* Connection FIFOs, one per id of [idx], each message tagged with the
   sending step. Leftovers are listed in id order, ascending (src, dst,
   ch). *)
let fifos ~slots (idx : Ir.index) =
  let queues = Array.make idx.Ir.conns None in
  let queue c =
    if c < 0 then Queue.create ()
    else
      match queues.(c) with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          queues.(c) <- Some q;
          q
  in
  let port ~inbox ~outbox =
    let inbox = queue inbox and outbox = queue outbox in
    {
      recv_ready = (fun () -> not (Queue.is_empty inbox));
      pop = (fun () -> Queue.pop inbox);
      send_ready = (fun () -> Queue.length outbox < slots);
      push = (fun m -> Queue.add m outbox);
    }
  in
  let in_flight () =
    let acc = ref [] in
    for c = idx.Ir.conns - 1 downto 0 do
      match queues.(c) with
      | Some q when not (Queue.is_empty q) ->
          acc :=
            ( (idx.Ir.conn_src.(c), idx.Ir.conn_dst.(c), idx.Ir.conn_chan.(c)),
              Queue.length q,
              snd (Queue.peek q) )
            :: !acc
      | Some _ | None -> ()
    done;
    !acc
  in
  (port, in_flight)

let own_ports (idx : Ir.index) port i t =
  let b = idx.Ir.gpu_block.(i) + t in
  port ~inbox:idx.Ir.block_recv.(b) ~outbox:idx.Ir.block_send.(b)

let step_op (ir : Ir.t) (r, t, s) = ir.Ir.gpus.(r).Ir.tbs.(t).Ir.steps.(s).Ir.op

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
    ?idx:Ir.index ->
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

  let run ?slots ?idx ?on_deliver ?on_write ~init (ir : Ir.t) =
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
    let buffer_of (l : Loc.t) =
      let b = st.buffers.(l.Loc.rank) in
      match l.Loc.buf with
      | Buffer_id.Input -> b.b_input
      | Buffer_id.Output -> if inplace then b.b_input else b.b_output
      | Buffer_id.Scratch -> b.b_scratch
    in
    (* Names the executing instruction — "rank R tb T step S (op)" — so a
       failure in a large fuzzed or shrunk IR is diagnosable without a
       debugger. Built only when an error is raised. *)
    let ctx ((r, t, s) as at) =
      Printf.sprintf "rank %d tb %d step %d (%s)" r t s
        (Instr.opcode_name (step_op ir at))
    in
    let chunk_at at (l : Loc.t) arr idx =
      if idx >= Array.length arr then
        error "%s: read past end of %s buffer at %a" (ctx at)
          (Buffer_id.long_name l.Loc.buf) Loc.pp l;
      match arr.(idx) with
      | Some v -> v
      | None ->
          error "%s: reading uninitialized chunk at rank %d %s[%d]" (ctx at)
            l.Loc.rank
            (Buffer_id.long_name l.Loc.buf)
            idx
    in
    (* Chunk by chunk in index order, so the first bad index is the one
       reported. *)
    let read at (l : Loc.t) =
      let arr = buffer_of l in
      let vals = Array.make l.Loc.count (chunk_at at l arr l.Loc.index) in
      for k = 1 to l.Loc.count - 1 do
        vals.(k) <- chunk_at at l arr (l.Loc.index + k)
      done;
      vals
    in
    let write at (l : Loc.t) vals =
      let arr = buffer_of l in
      if l.Loc.index + l.Loc.count > Array.length arr then
        error "%s: write past end of %s buffer at rank %d" (ctx at)
          (Buffer_id.long_name l.Loc.buf) l.Loc.rank;
      for k = 0 to Array.length vals - 1 do
        arr.(l.Loc.index + k) <- Some (V.copy vals.(k))
      done;
      match on_write with Some f -> f ~writer:at ~loc:l | None -> ()
    in
    (* Ingestion accepts a step without the operand its opcode uses (an rcs
       with no destination) and a receive whose count differs from the
       matching send's; both are execution errors at the step, like a
       read past the end. *)
    let fault at = function
      | No_operand what -> error "%s: no %s operand" (ctx at) what
      | Message_size { sent; expected; sender = sg, stb, ss } ->
          error
            "%s: received %d chunk(s) sent by rank %d tb %d step %d, expected \
             %d"
            (ctx at) sent sg stb ss expected
    in
    let received at ~sender payload =
      match on_deliver with
      | Some f -> f st ~src:sender ~dst:at ~op:(step_op ir at) ~payload
      | None -> ()
    in
    let idx = match idx with Some i -> i | None -> Ir.index ir in
    let port, in_flight = fifos ~slots idx in
    let o =
      schedule
        { read; write; reduce = V.reduce; fault; received }
        (own_ports idx port) ir.Ir.gpus
    in
    st.executed <- o.executed;
    if o.stuck <> [] then
      error "deadlock: no thread block can make progress%s"
        (String.concat ""
           (List.map
              (fun (((r, t, s) as at), wait) ->
                Printf.sprintf "\n  gpu %d tb %d at step %d (%s): %s" r t s
                  (Instr.opcode_name (step_op ir at))
                  (match wait with
                  | Semaphore (dtb, dstep) ->
                      Printf.sprintf "waiting on semaphore (tb %d, step %d)"
                        dtb dstep
                  | Data_from p ->
                      Printf.sprintf "waiting for data from rank %d" p
                  | Slots_to p ->
                      Printf.sprintf "all %d FIFO slots to rank %d are full"
                        slots p))
              o.stuck));
    (match in_flight () with
    | ((s, d, c), n, (sg, stb, sstep)) :: _ ->
        error
          "%d message(s) left in flight on connection %d->%d ch%d (first \
           sent by rank %d tb %d step %d)"
          n s d c sg stb sstep
    | [] -> ());
    st
end

module Chunk_value = struct
  type v = Chunk.t

  let reduce = Chunk.reduce
  let copy c = c
end

module Symbolic = struct
  include Make (Chunk_value)

  let run_collective ?slots ?idx ?on_deliver ?on_write (ir : Ir.t) =
    let coll = ir.Ir.collective in
    let in_size = Collective.input_buffer_size coll in
    let init ~rank ~index =
      if index >= in_size then None
      else
        let c = Collective.precondition coll ~rank ~index in
        if Chunk.is_uninit c then None else Some c
    in
    run ?slots ?idx ?on_deliver ?on_write ~init ir
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

type mismatch = {
  m_rank : int;
  m_index : int;
  m_expected : Chunk.t;
  m_actual : Chunk.t option;
  m_writer : (int * int * int) option;
}

let pp_mismatch fmt m =
  Format.fprintf fmt "rank %d output[%d]: expected %a, got %a%a" m.m_rank
    m.m_index Chunk.pp m.m_expected
    (fun fmt -> function
      | None -> Format.pp_print_string fmt "uninitialized"
      | Some c -> Chunk.pp fmt c)
    m.m_actual
    (fun fmt -> function
      | None -> Format.pp_print_string fmt " (never written)"
      | Some (r, tb, s) ->
          Format.fprintf fmt " (last written by rank %d tb %d step %d)" r tb s)
    m.m_writer

let postcondition ?idx (ir : Ir.t) =
  let coll = ir.Ir.collective in
  let out_size = Collective.output_buffer_size coll in
  (* Track the last instruction to write each output slot so a mismatch
     names its root cause, not just its position. In-place collectives
     alias the output onto the input buffer, so Input-loc writes land in
     the observed output there. *)
  let writers =
    Array.init (Ir.num_ranks ir) (fun _ -> Array.make out_size None)
  in
  let on_write ~writer ~loc:(l : Loc.t) =
    let lands_in_output =
      match l.Loc.buf with
      | Buffer_id.Output -> true
      | Buffer_id.Input -> coll.Collective.inplace
      | Buffer_id.Scratch -> false
    in
    if lands_in_output then
      for k = 0 to l.Loc.count - 1 do
        let idx = l.Loc.index + k in
        if idx < out_size then writers.(l.Loc.rank).(idx) <- Some writer
      done
  in
  let st = Executor.Symbolic.run_collective ?idx ~on_write ir in
  let post = Collective.postcondition_fn coll in
  let mismatches = ref [] in
  for rank = Ir.num_ranks ir - 1 downto 0 do
    let out = Executor.Symbolic.output st ~rank in
    for index = out_size - 1 downto 0 do
      match post ~rank ~index with
      | None -> ()
      | Some expected -> (
          match out.(index) with
          | Some actual when Chunk.equal actual expected -> ()
          | actual ->
              mismatches :=
                { m_rank = rank; m_index = index; m_expected = expected;
                  m_actual = actual; m_writer = writers.(rank).(index) }
                :: !mismatches)
    done
  done;
  match !mismatches with [] -> Ok () | ms -> Error ms

(* ------------------------------------------------------------------ *)
(* Static deadlock-freedom                                             *)
(* ------------------------------------------------------------------ *)

(* The waiting graph (program order, depends, send/receive matching, FIFO
   back-pressure) is built by the shared Hbgraph module; deadlock-freedom
   is its acyclicity. *)
let deadlock_free ?slots ?idx (ir : Ir.t) =
  let slots =
    match slots with
    | Some s -> s
    | None -> Msccl_topology.Protocol.num_slots ir.Ir.proto
  in
  let hb = Hbgraph.build ~fifo_slots:slots ?idx ir in
  match Hbgraph.mismatched_connections hb with
  | (src, dst, ch, ns, nr) :: _ ->
      Error
        (Printf.sprintf "connection %d->%d ch%d: %d sends vs %d receives" src
           dst ch ns nr)
  | [] -> (
      match Hbgraph.cycle_size hb with
      | 0 -> Ok ()
      | k ->
          Error
            (Printf.sprintf
               "dependency cycle through %d step(s) (with %d FIFO slots)" k
               slots))

let check_postcondition ir = postcondition ir
let check_deadlock_free ?slots ir = deadlock_free ?slots ir

(* One connection index serves validation, the graph and execution. *)
let check (ir : Ir.t) =
  let idx = Ir.index ir in
  match Ir.validate ~idx ir with
  | () -> (
      match deadlock_free ~idx ir with
      | Error msg -> Error ("deadlock check failed: " ^ msg)
      | Ok () -> (
          match postcondition ~idx ir with
          | Ok () -> Ok ()
          | Error (m :: _ as ms) ->
              Error
                (Format.asprintf "postcondition failed at %d position(s); first: %a"
                   (List.length ms) pp_mismatch m)
          | Error [] -> assert false
          | exception Executor.Exec_error msg ->
              Error ("symbolic execution failed: " ^ msg)))
  | exception Invalid_argument msg -> Error ("structural check failed: " ^ msg)

let check_exn ir =
  match check ir with Ok () -> () | Error msg -> failwith msg

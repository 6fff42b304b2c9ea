(* Shared helpers for the test suites. *)

open Msccl_core

let check_verified name ir =
  match Verify.check ir with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: verification failed: %s" name msg

(* Numeric end-to-end check: run the IR on pseudo-random float data and
   compare every constrained output position with the collective's
   reference value. *)
let check_numeric ?(elems = 3) ?(seed = 11) name ir =
  let st = Executor.Data.run_random ~elems_per_chunk:elems ~seed ir in
  for rank = 0 to Ir.num_ranks ir - 1 do
    let out = Executor.Data.output st ~rank in
    Array.iteri
      (fun index v ->
        match
          Executor.Data.reference ~elems_per_chunk:elems ~seed ir ~rank ~index
        with
        | None -> ()
        | Some want -> (
            match v with
            | None ->
                Alcotest.failf "%s: rank %d out[%d] uninitialized" name rank
                  index
            | Some got ->
                Array.iteri
                  (fun e x ->
                    if abs_float (x -. want.(e)) > 1e-9 then
                      Alcotest.failf
                        "%s: rank %d out[%d][%d] = %f, expected %f" name rank
                        index e x want.(e))
                  got))
      out
  done

(* Strict decoding is ingestion that draws no diagnostic at all: the
   repo's own printer output must decode this way. *)
let reingest ?(file = "<string>") doc =
  let module I = Msccl_interop.Ingest in
  match I.of_string ~file doc with
  | Ok (ir, []) -> ir
  | Ok (_, ds) | Error ds ->
      Alcotest.failf "%s does not ingest cleanly:\n%s" file
        (I.diags_to_string ds)

(* [ir] with the first [op] step of rank 0 stripped of its destination:
   a program Ingest accepts but no runtime can execute. Returns the
   stripped step's (tb, step) coordinates too. *)
let strip_first_dst op (ir : Ir.t) =
  let g = ir.Ir.gpus.(0) in
  let tb, step =
    let rec find t =
      if t >= Array.length g.Ir.tbs then
        Alcotest.failf "no %s step on rank 0" (Instr.opcode_name op)
      else
        let steps = g.Ir.tbs.(t).Ir.steps in
        let rec go i =
          if i >= Array.length steps then find (t + 1)
          else if steps.(i).Ir.op = op then (t, i)
          else go (i + 1)
        in
        go 0
    in
    find 0
  in
  let tbs = Array.copy g.Ir.tbs in
  let steps = Array.copy tbs.(tb).Ir.steps in
  steps.(step) <- { (steps.(step)) with Ir.dst = None };
  tbs.(tb) <- { (tbs.(tb)) with Ir.steps };
  let gpus = Array.copy ir.Ir.gpus in
  gpus.(0) <- { g with Ir.tbs };
  ({ ir with Ir.gpus }, tb, step)

(* A two-rank allgather in which rank 1 sends two chunks where rank 0's
   receive at tb 0 step 2 — [op], a plain [r] or a reducing [rrc] —
   expects one. Ingest accepts such a program; every checker must report
   it at that step. *)
let count_mismatch_ir op =
  let loc rank buf index count = Loc.make ~rank ~buf ~index ~count in
  let step s op ?src ?dst ?(count = 1) () =
    { Ir.s; op; src; dst; count; depends = []; has_dep = false }
  in
  let i r = loc r Buffer_id.Input 0 1 and o r k = loc r Buffer_id.Output k 1 in
  let recv =
    match op with
    | Instr.Recv -> step 2 op ~dst:(o 0 1) ()
    | _ -> step 2 op ~src:(i 0) ~dst:(o 0 1) ()
  in
  let gpu id ~scratch steps =
    {
      Ir.gpu_id = id;
      input_chunks = 1;
      output_chunks = 2;
      scratch_chunks = scratch;
      tbs =
        [| { Ir.tb_id = 0; send = 1 - id; recv = 1 - id; chan = 0; steps } |];
    }
  in
  {
    Ir.name = "allgather-count-mismatch";
    collective = Collective.make Collective.Allgather ~num_ranks:2 ();
    proto = Msccl_topology.Protocol.Simple;
    gpus =
      [|
        gpu 0 ~scratch:0
          [| step 0 Instr.Copy ~src:(i 0) ~dst:(o 0 0) ();
             step 1 Instr.Send ~src:(o 0 0) (); recv |];
        gpu 1 ~scratch:2
          [| step 0 Instr.Copy ~src:(i 1) ~dst:(o 1 1) ();
             step 1 Instr.Copy ~src:(i 1) ~dst:(loc 1 Buffer_id.Scratch 0 1) ();
             step 2 Instr.Copy ~src:(i 1) ~dst:(loc 1 Buffer_id.Scratch 1 1) ();
             step 3 Instr.Send ~src:(loc 1 Buffer_id.Scratch 0 2) ~count:2 ();
             step 4 Instr.Recv ~dst:(o 1 0) () |];
      |];
  }

(* Accepted [Mangle] corruptions of ring AllReduce@16, as (seed, index),
   in which a receive's count differs from its sender's. *)
let ring16_count_mangles = [ (1, 2440); (2, 376); (2, 386) ]

let ring16_doc =
  lazy
    (Xml.to_string
       (Msccl_algorithms.Ring_allreduce.ir ~verify:false ~num_ranks:16 ()))

let ring16_mangle ~seed ~index =
  let doc, _ =
    Msccl_interop.Mangle.mangle ~seed ~index (Lazy.force ring16_doc)
  in
  match Msccl_interop.Ingest.of_string doc with
  | Ok (ir, _) -> ir
  | Error _ -> Alcotest.failf "ring@16 mangle %d/%d was rejected" seed index

(* Structural IR equality (ignores the collective's closures). *)
let ir_equal (a : Ir.t) (b : Ir.t) =
  let step_eq (x : Ir.step) (y : Ir.step) =
    x.Ir.s = y.Ir.s && x.Ir.op = y.Ir.op && x.Ir.count = y.Ir.count
    && x.Ir.depends = y.Ir.depends
    && x.Ir.has_dep = y.Ir.has_dep
    && Option.equal Loc.equal x.Ir.src y.Ir.src
    && Option.equal Loc.equal x.Ir.dst y.Ir.dst
  in
  let tb_eq (x : Ir.tb) (y : Ir.tb) =
    x.Ir.tb_id = y.Ir.tb_id && x.Ir.send = y.Ir.send && x.Ir.recv = y.Ir.recv
    && x.Ir.chan = y.Ir.chan
    && Array.length x.Ir.steps = Array.length y.Ir.steps
    && Array.for_all2 step_eq x.Ir.steps y.Ir.steps
  in
  let gpu_eq (x : Ir.gpu) (y : Ir.gpu) =
    x.Ir.gpu_id = y.Ir.gpu_id
    && x.Ir.input_chunks = y.Ir.input_chunks
    && x.Ir.output_chunks = y.Ir.output_chunks
    && x.Ir.scratch_chunks = y.Ir.scratch_chunks
    && Array.length x.Ir.tbs = Array.length y.Ir.tbs
    && Array.for_all2 tb_eq x.Ir.tbs y.Ir.tbs
  in
  a.Ir.name = b.Ir.name && a.Ir.proto = b.Ir.proto
  && Ir.num_ranks a = Ir.num_ranks b
  && Array.for_all2 gpu_eq a.Ir.gpus b.Ir.gpus

(* Compare the full symbolic memory state of two executions. *)
let symbolic_states_equal ir1 ir2 =
  let st1 = Executor.Symbolic.run_collective ir1 in
  let st2 = Executor.Symbolic.run_collective ir2 in
  let buf_eq a b =
    Array.length a = Array.length b
    && Array.for_all2 (Option.equal Chunk.equal) a b
  in
  let ok = ref true in
  for rank = 0 to Ir.num_ranks ir1 - 1 do
    if
      not
        (buf_eq
           (Executor.Symbolic.output st1 ~rank)
           (Executor.Symbolic.output st2 ~rank)
        && buf_eq
             (Executor.Symbolic.input st1 ~rank)
             (Executor.Symbolic.input st2 ~rank))
    then ok := false
  done;
  !ok

(* Random-but-valid chunk-routing programs over three ranks: random copies
   and reduces between random initialized locations. Fusion can force two
   receive connections into one thread block, which the scheduler rejects
   with a channel-directive error. *)
module Random_routing = struct
  let num_ranks = 3

  let in_chunks = 3

  (* Deterministic random program from an integer seed. With [channels],
     every copy and reduce also gets a random channel directive below it,
     so fused chains and shared connections can be forced onto
     conflicting channels. *)
  let build_program ?channels seed (p : Program.t) =
    let rng = Random.State.make [| seed |] in
    let pick n = Random.State.int rng n in
    (* Track which (rank, buf, index) hold data, mirroring the program. *)
    let initialized = Hashtbl.create 32 in
    for r = 0 to num_ranks - 1 do
      for i = 0 to in_chunks - 1 do
        Hashtbl.replace initialized (r, Buffer_id.Input, i) ()
      done
    done;
    let scratch_hwm = Array.make num_ranks 0 in
    let random_src () =
      let candidates =
        Hashtbl.fold (fun k () acc -> k :: acc) initialized []
        |> List.sort compare
      in
      List.nth candidates (pick (List.length candidates))
    in
    let buf_size rank = function
      | Buffer_id.Input -> in_chunks
      | Buffer_id.Output -> in_chunks
      | Buffer_id.Scratch -> max 4 scratch_hwm.(rank)
    in
    let ops = 6 + pick 18 in
    for _ = 1 to ops do
      let sr, sb, si = random_src () in
      let dr = pick num_ranks in
      let db =
        match pick 3 with
        | 0 -> Buffer_id.Output
        | 1 -> Buffer_id.Scratch
        | _ -> Buffer_id.Input
      in
      let di = pick (buf_size dr db) in
      (* The collective is out-of-place, so cells alias only when rank,
         buffer and index all match. *)
      let same_cell (r1, b1, i1) (r2, b2, i2) =
        r1 = r2 && i1 = i2 && Buffer_id.equal b1 b2
      in
      if not (same_cell (sr, sb, si) (dr, db, di)) then begin
        let ch = Option.map pick channels in
        let src = Program.chunk p ~rank:sr sb ~index:si () in
        let reduce_ok = Hashtbl.mem initialized (dr, db, di) in
        if reduce_ok && pick 3 = 0 then begin
          let dst = Program.chunk p ~rank:dr db ~index:di () in
          ignore (Program.reduce dst src ?ch ())
        end
        else ignore (Program.copy src ~rank:dr db ~index:di ?ch ());
        Hashtbl.replace initialized (dr, db, di) ();
        if db = Buffer_id.Scratch && di + 1 > scratch_hwm.(dr) then
          scratch_hwm.(dr) <- di + 1
      end
    done

  let collective =
    Collective.make
      (Collective.Custom
         {
           Collective.custom_name = "random-routing";
           input_chunks = in_chunks;
           output_chunks = in_chunks;
           expected = (fun ~rank:_ ~index:_ -> None);
           initial = None;
         })
      ~num_ranks ()

  let dag ?channels seed =
    Program.trace collective (build_program ?channels seed)
end

module F = Msccl_fuzz

(* [gen_ir rng] draws a single-GPU IR whose only edges are program order
   and depends on a strictly smaller step index: a DAG by construction.
   [~multi:true] draws 2-4 GPUs whose thread blocks also send to and
   receive from other GPUs on two channels, so data-delivery and FIFO
   edges can order two steps of one GPU through another GPU, and may close
   a cycle. [~cyclic:true] also lets a depends point at any step of the
   other block, including later ones. [~footprints:true] also gives every
   step but a [nop] random source and destination locations (counts 1-3
   over input, output and scratch; one in eight far out, at index 1000
   or more), adds local [cpy] and [re] steps, and
   makes the collective in-place half of the time, so input and output
   alias. *)
let gen_ir ?(multi = false) ?(cyclic = false) ?(footprints = false) rng =
  let ngpus = if multi then 2 + F.Rng.int rng 3 else 1 in
  let gpu g =
    let ntbs = 1 + F.Rng.int rng 4 in
    let steps_of = Array.init ntbs (fun _ -> 1 + F.Rng.int rng 6) in
    let peer () =
      if multi && F.Rng.int rng 4 > 0 then
        (g + 1 + F.Rng.int rng (ngpus - 1)) mod ngpus
      else -1
    in
    let deps = Hashtbl.create 16 in
    let tbs =
      Array.init ntbs (fun tb_id ->
          let send = peer () and recv = peer () in
          let ops =
            Instr.Nop
            :: List.concat
                 [
                   (if footprints then [ Instr.Copy; Instr.Reduce ] else []);
                   (if send >= 0 then [ Instr.Send ] else []);
                   (if recv >= 0 then [ Instr.Recv ] else []);
                   (if send >= 0 && recv >= 0 then [ Instr.Recv_copy_send ]
                    else []);
                 ]
          in
          let steps =
            Array.init steps_of.(tb_id) (fun s ->
                let depends = ref [] in
                Array.iteri
                  (fun otb osteps ->
                    if otb <> tb_id && (s > 0 || cyclic) && F.Rng.int rng 3 = 0
                    then begin
                      let target =
                        F.Rng.int rng (if cyclic then osteps else min osteps s)
                      in
                      depends := (otb, target) :: !depends;
                      Hashtbl.replace deps (otb, target) ()
                    end)
                  steps_of;
                let op = F.Rng.pick rng ops in
                let loc () =
                  if footprints && op <> Instr.Nop then
                    Some
                      (Loc.make ~rank:g
                         ~buf:(F.Rng.pick rng Buffer_id.all)
                         ~index:
                           ((if F.Rng.int rng 8 = 0 then 1000 else 0)
                           + F.Rng.int rng 6)
                         ~count:(1 + F.Rng.int rng 3))
                  else None
                in
                let src = loc () in
                let dst = loc () in
                {
                  Ir.s;
                  op;
                  src;
                  dst;
                  count = 1;
                  depends = !depends;
                  has_dep = false;
                })
          in
          let chan = if multi then F.Rng.int rng 2 else tb_id in
          { Ir.tb_id; send; recv; chan; steps })
    in
    (* Mark every depends target so the IR passes validation rules. *)
    Array.iter
      (fun (tb : Ir.tb) ->
        Array.iteri
          (fun s (st : Ir.step) ->
            if Hashtbl.mem deps (tb.Ir.tb_id, s) then
              tb.Ir.steps.(s) <- { st with Ir.has_dep = true })
          tb.Ir.steps)
      tbs;
    {
      Ir.gpu_id = g;
      input_chunks = 1;
      output_chunks = 1;
      scratch_chunks = 0;
      tbs;
    }
  in
  {
    Ir.name = "hbgraph-random";
    collective =
      Collective.make Collective.Allreduce ~num_ranks:ngpus
        ~inplace:(footprints && F.Rng.int rng 2 = 0)
        ();
    proto = Msccl_topology.Protocol.Simple;
    gpus = Array.init ngpus gpu;
  }

(* The race detector's reference: every pair of accesses of a GPU, same
   policy (least witness record per (step pair, hazard, buffer) key). *)
let naive_find (ir : Ir.t) =
  let hb =
    Hbgraph.build ~fifo_slots:(Msccl_topology.Protocol.num_slots ir.Ir.proto) ir
  in
  let races = ref [] in
  Array.iter
    (fun (g : Ir.gpu) ->
      let accs = ref [] in
      Array.iter
        (fun (tb : Ir.tb) ->
          Array.iter
            (fun (st : Ir.step) ->
              let id =
                Hbgraph.node hb ~gpu:g.Ir.gpu_id ~tb:tb.Ir.tb_id ~step:st.Ir.s
              in
              List.iter
                (fun (w, l) -> accs := (tb.Ir.tb_id, st.Ir.s, id, w, l) :: !accs)
                (Static_ref.footprint ir st))
            tb.Ir.steps)
        g.Ir.tbs;
      let accs = Array.of_list !accs in
      let seen = Hashtbl.create 16 in
      let m = Array.length accs in
      for i = 0 to m - 1 do
        let tb1, s1, n1, w1, (l1 : Loc.t) = accs.(i) in
        for j = i + 1 to m - 1 do
          let tb2, s2, n2, w2, (l2 : Loc.t) = accs.(j) in
          if
            tb1 <> tb2 && (w1 || w2)
            && Buffer_id.equal l1.Loc.buf l2.Loc.buf
            && l1.Loc.index < l2.Loc.index + l2.Loc.count
            && l2.Loc.index < l1.Loc.index + l1.Loc.count
            && not (Hbgraph.ordered hb n1 n2)
          then begin
            let (tb1, s1, w1, l1), (tb2, s2, w2, l2) =
              if (tb1, s1) <= (tb2, s2) then
                ((tb1, s1, w1, l1), (tb2, s2, w2, l2))
              else ((tb2, s2, w2, l2), (tb1, s1, w1, l1))
            in
            let hazard =
              match (w1, w2) with
              | true, true -> Races.Waw
              | true, false -> Races.Raw
              | false, true -> Races.War
              | false, false -> assert false
            in
            let race =
              {
                Races.r_gpu = g.Ir.gpu_id;
                r_tb1 = tb1;
                r_step1 = s1;
                r_tb2 = tb2;
                r_step2 = s2;
                r_hazard = hazard;
                r_buf = l1.Loc.buf;
                r_lo = max l1.Loc.index l2.Loc.index;
                r_hi =
                  min (l1.Loc.index + l1.Loc.count)
                    (l2.Loc.index + l2.Loc.count)
                  - 1;
              }
            in
            let key = (tb1, s1, tb2, s2, hazard, l1.Loc.buf) in
            match Hashtbl.find_opt seen key with
            | Some prev -> if compare race prev < 0 then Hashtbl.replace seen key race
            | None -> Hashtbl.replace seen key race
          end
        done
      done;
      Hashtbl.iter (fun _ r -> races := r :: !races) seen)
    ir.Ir.gpus;
  List.sort compare !races

(* [orbit_blocks ir sym] maps each rank [m] and block [t] of [m]'s orbit
   representative to the block of [m] that [t] corresponds to, following
   the certified generators outward from each representative. One
   generator step pairs blocks by (channel, π send, π recv), equal
   triples in block order, as [Symmetry.verify_candidate] matches them. *)
let orbit_blocks (ir : Ir.t) (sym : Msccl_analysis.Symmetry.t) =
  let module S = Msccl_analysis.Symmetry in
  let p = Ir.num_ranks ir in
  (* block index at rank [r] -> block index at rank [perm.(r)] *)
  let image perm r =
    let pi q = if q >= 0 && q < p then perm.(q) else q in
    let moved (tb : Ir.tb) = (tb.Ir.chan, pi tb.Ir.send, pi tb.Ir.recv) in
    let src = ir.Ir.gpus.(r).Ir.tbs and dst = ir.Ir.gpus.(perm.(r)).Ir.tbs in
    Array.mapi
      (fun i tb ->
        let want = moved tb in
        let nth = ref 0 in
        for j = 0 to i - 1 do
          if moved src.(j) = want then incr nth
        done;
        let found = ref (-1) and seen = ref 0 in
        Array.iteri
          (fun j (u : Ir.tb) ->
            if !found < 0 && (u.Ir.chan, u.Ir.send, u.Ir.recv) = want then begin
              if !seen = !nth then found := j;
              incr seen
            end)
          dst;
        !found)
      src
  in
  let blocks = Array.make p [||] and built = Array.make p false in
  let queue = Queue.create () in
  Array.iteri
    (fun r v ->
      if v = r then begin
        blocks.(r) <- Array.init (Array.length ir.Ir.gpus.(r).Ir.tbs) Fun.id;
        built.(r) <- true;
        Queue.add r queue
      end)
    sym.S.s_orbit.Orbit.rep;
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    List.iter
      (fun (g : S.generator) ->
        let y = g.S.g_perm.(x) in
        if not built.(y) then begin
          let step = image g.S.g_perm x in
          blocks.(y) <- Array.map (fun t -> step.(t)) blocks.(x);
          built.(y) <- true;
          Queue.add y queue
        end)
      sym.S.s_generators
  done;
  blocks

(* Rewrite step [step] of block [tb] of each representative, and of the
   block it corresponds to on every member of its orbit, with [f]. *)
let rewrite_along_orbit (ir : Ir.t) sym ~tb ~step f =
  let blocks = orbit_blocks ir sym in
  let gpus =
    Array.mapi
      (fun m (g : Ir.gpu) ->
        let mtb = blocks.(m).(tb) in
        {
          g with
          Ir.tbs =
            Array.map
              (fun (t : Ir.tb) ->
                if t.Ir.tb_id <> mtb then t
                else
                  {
                    t with
                    Ir.steps =
                      Array.map
                        (fun (st : Ir.step) ->
                          if st.Ir.s = step then f st else st)
                        t.Ir.steps;
                  })
              g.Ir.tbs;
        })
      ir.Ir.gpus
  in
  { ir with Ir.gpus }

(* [Races.find] lists exactly the naive reference's races. *)
(* Registry shapes the compile and simulate digests pin: every
   registered algorithm at 1, 2 and 8 nodes of 8 GPUs (sccl-allgather at
   one only), plus multi-channel, multi-instance and LL/LL128 shapes.
   Each is (name, nodes, channels, instances, protocol). *)
let registry_shapes =
  let names =
    List.map (fun (s : Msccl_harness.Registry.spec) -> s.name)
      Msccl_harness.Registry.all
  in
  List.concat_map
    (fun name ->
      if name = "sccl-allgather" then [ (name, 1, 1, 1, "Simple") ]
      else List.map (fun n -> (name, n, 1, 1, "Simple")) [ 1; 2; 8 ])
    names
  @ [
      ("ring-allreduce", 1, 2, 2, "Simple");
      ("ring-allreduce", 2, 2, 1, "LL128");
      ("allpairs-allreduce", 1, 1, 1, "LL128");
      ("hierarchical-allreduce", 2, 1, 1, "LL");
    ]

(* "name -n N -g 8 -c C -r R -p PROTO", as [msccl compile] takes it. *)
let shape_label (name, nodes, channels, instances, proto) =
  Printf.sprintf "%s -n %d -g 8 -c %d -r %d -p %s" name nodes channels
    instances proto

(* The unverified IR of one registry shape. *)
let registry_ir (name, nodes, channels, instances, proto) =
  let module R = Msccl_harness.Registry in
  let spec = Option.get (R.find name) in
  spec.build
    {
      R.default_params with
      nodes;
      channels;
      instances;
      proto = Option.get (Msccl_topology.Protocol.of_string proto);
      verify = false;
    }

(* The Chunk DAG behind one registry shape: the collective, program and
   name each algorithm's [ir] compiles, at the registry's 8 GPUs per node
   and chunk factor 1. test_fusion checks that compiling it reproduces
   [registry_ir]. *)
let registry_dag (name, nodes, channels, _instances, _proto) =
  let module A = Msccl_algorithms in
  let g = 8 in
  let n = nodes * g in
  let make ?chunk_factor ?inplace kind =
    Collective.make kind ~num_ranks:n ?chunk_factor ?inplace ()
  in
  let allreduce = make ~chunk_factor:n ~inplace:true Collective.Allreduce in
  let chd fmt = Printf.sprintf fmt channels in
  let trace name coll f = Program.trace ~name coll f in
  match name with
  | "ring-allreduce" ->
      trace (chd "ring-allreduce-ch%d") allreduce
        (A.Ring_allreduce.program ~num_ranks:n ~channels)
  | "allpairs-allreduce" ->
      trace "allpairs-allreduce" allreduce
        (A.Allpairs_allreduce.program ~num_ranks:n)
  | "hierarchical-allreduce" ->
      trace "hierarchical-allreduce" allreduce
        (A.Hierarchical_allreduce.program ~nodes ~gpus_per_node:g
           ~intra_parallel:nodes)
  | "two-step-alltoall" ->
      trace "two-step-alltoall" (make Collective.Alltoall)
        (A.Two_step_alltoall.program ~nodes ~gpus_per_node:g)
  | "naive-alltoall" ->
      trace "naive-alltoall" (make Collective.Alltoall)
        (A.Alltoall_naive.program ~num_ranks:n)
  | "alltonext" ->
      trace "alltonext"
        (make ~chunk_factor:g Collective.Alltonext)
        (A.Alltonext.program ~nodes ~gpus_per_node:g)
  | "ring-allgather" ->
      trace (chd "ring-allgather-ch%d") (make Collective.Allgather)
        (A.Allgather_ring.program ~num_ranks:n ~chunk_factor:1 ~channels)
  | "ring-reducescatter" ->
      trace (chd "ring-reducescatter-ch%d") (make Collective.Reduce_scatter)
        (A.Reduce_scatter_ring.program ~num_ranks:n ~chunk_factor:1 ~channels)
  | "ring-broadcast" ->
      trace (chd "ring-broadcast-ch%d") (make (Collective.Broadcast 0))
        (A.Broadcast_ring.program ~num_ranks:n ~root:0 ~chunk_factor:1
           ~channels)
  | "tree-allreduce" ->
      trace (chd "tree-allreduce-ch%d")
        (make ~chunk_factor:1 ~inplace:true Collective.Allreduce)
        (A.Tree_allreduce.program ~num_ranks:n ~chunk_factor:1 ~channels)
  | "halving-doubling" ->
      trace "halving-doubling-allreduce" allreduce
        (A.Halving_doubling.program ~num_ranks:n)
  | "recursive-doubling-allgather" ->
      trace "recursive-doubling-allgather" (make Collective.Allgather)
        (A.Recursive_doubling.program ~num_ranks:n)
  | "double-binary-tree" ->
      trace "double-binary-tree-allreduce"
        (make ~chunk_factor:2 ~inplace:true Collective.Allreduce)
        (A.Double_binary_tree.program ~num_ranks:n ~chunks_per_tree:1)
  | "hierarchical-allgather" ->
      trace "hierarchical-allgather" (make Collective.Allgather)
        (A.Hierarchical_allgather.program ~nodes ~gpus_per_node:g)
  | "synth-allgather" ->
      let sched =
        A.Synthesis.plan ~num_ranks:8
          ~link_count:Msccl_topology.Presets.dgx1_nvlink_count
          ~connected:Msccl_topology.Presets.dgx1_connected ()
      in
      trace
        (Printf.sprintf "synth-allgather-%dr"
           (List.length sched.A.Synthesis.rounds))
        (Collective.make Collective.Allgather ~num_ranks:8 ())
        (A.Synthesis.lower sched)
  | "sccl-allgather" ->
      trace "sccl-allgather-122"
        (Collective.make Collective.Allgather ~num_ranks:8 ())
        A.Allgather_sccl.program
  | other -> invalid_arg ("Testutil.registry_dag: " ^ other)

let races_agree ir = Races.find ir = naive_find ir

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let tc name f = Alcotest.test_case name `Quick f

(* ---- Static output digests ----------------------------------------- *)

(* [ir] with every [depends] of its first GPU dropped: that GPU's
   cross-block orderings go, so its lint text carries race records. *)
let strip_first_gpu_depends (ir : Ir.t) =
  {
    ir with
    Ir.gpus =
      Array.mapi
        (fun i (g : Ir.gpu) ->
          if i > 0 then g
          else
            {
              g with
              Ir.tbs =
                Array.map
                  (fun (t : Ir.tb) ->
                    {
                      t with
                      Ir.steps =
                        Array.map
                          (fun (st : Ir.step) -> { st with Ir.depends = [] })
                          t.Ir.steps;
                    })
                  g.Ir.tbs;
            })
        ir.Ir.gpus;
  }

(* The MD5s of what the static passes print for [ir], in this order:
   [Lint.to_json] of [Lint.run], the [Races.pp_race] lines,
   [Symmetry.report_json] and [Symmetry.report] of [Symmetry.infer],
   [Verify.check]'s verdict, the lint JSON of
   [strip_first_gpu_depends ir], and the symmetry report of
   [Mutate.break_symmetry ir] (rejection texts and positions). *)
let static_digests (ir : Ir.t) =
  let module S = Msccl_analysis.Symmetry in
  let md5 s = Digest.to_hex (Digest.string s) in
  let races =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Races.pp_race) (Races.find ir))
  in
  let sym = S.infer ir in
  let verdict =
    match Verify.check ir with Ok () -> "ok" | Error m -> "error: " ^ m
  in
  List.map md5
    [
      Lint.to_json (Lint.run ir);
      races;
      S.report_json sym;
      S.report sym;
      verdict;
      Lint.to_json (Lint.run (strip_first_gpu_depends ir));
      S.report (S.infer (F.Mutate.break_symmetry ir));
    ]

(* [f] under test/: dune runtest runs tests in the test directory, dune
   exec from the repo root. *)
let in_test f = if Sys.file_exists f then f else Filename.concat "test" f

(* The registry shapes and the fuzz corpus cases the static digests
   cover, as (label, IR). *)
let static_digest_subjects () =
  let corpus = in_test "corpus" in
  let cases =
    Sys.readdir corpus |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".case")
    |> List.sort compare
  in
  List.map (fun shape -> (shape_label shape, lazy (registry_ir shape)))
    registry_shapes
  @ List.map
      (fun f ->
        ( "corpus/" ^ f,
          lazy
            (match F.Case.load (Filename.concat corpus f) with
            | Ok c -> F.Case.compile c
            | Error m -> failwith (f ^ ": " ^ m)) ))
      cases

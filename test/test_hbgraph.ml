(* Hbgraph property tests: on random dependency DAGs the transitive-
   closure machinery must agree with a naive DFS reference for every
   reachability query, and the longest-path/topological-order answers
   must match a direct dynamic program. The graphs are single-GPU IRs
   whose only edges are program order and cross-thread-block [depends]
   (every depends target has a strictly smaller step index, which makes
   acyclicity a potential-function argument — so the generator can never
   accidentally build a cyclic "DAG"). *)

open Msccl_core
module F = Msccl_fuzz

let coll1 = Collective.make Collective.Allreduce ~num_ranks:1 ()

(* ------------------------------------------------------------------ *)
(* Random IR generation                                                *)
(* ------------------------------------------------------------------ *)

(* [gen_ir rng] draws a single-GPU IR whose only edges are program order
   and depends on a strictly smaller step index: a DAG by construction.
   [~multi:true] draws 2-4 GPUs whose thread blocks also send to and
   receive from other GPUs on two channels, so data-delivery and FIFO
   edges can order two steps of one GPU through another GPU, and may close
   a cycle. [~cyclic:true] also lets a depends point at any step of the
   other block, including later ones. *)
let gen_ir ?(multi = false) ?(cyclic = false) rng =
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
                {
                  Ir.s;
                  op = F.Rng.pick rng ops;
                  src = None;
                  dst = None;
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
    collective = Collective.make Collective.Allreduce ~num_ranks:ngpus ();
    proto = Msccl_topology.Protocol.Simple;
    gpus = Array.init ngpus gpu;
  }

(* ------------------------------------------------------------------ *)
(* Naive reference: explicit adjacency + DFS + longest-path DP         *)
(* ------------------------------------------------------------------ *)

(* The edges, straight from the definition in hbgraph.mli: program
   order, depends, the k-th send on a connection before its k-th
   receive, and with [s] FIFO slots the (k-s)-th receive before the k-th
   send. *)
let adjacency ?fifo_slots h (ir : Ir.t) =
  let n = Hbgraph.num_nodes h in
  let succs = Array.make n [] in
  let edge u v = succs.(u) <- v :: succs.(u) in
  let sends = Hashtbl.create 8 and recvs = Hashtbl.create 8 in
  let push tbl key v =
    Hashtbl.replace tbl key
      (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  Array.iter
    (fun (g : Ir.gpu) ->
      let gpu = g.Ir.gpu_id in
      let node ~tb ~step = Hbgraph.node h ~gpu ~tb ~step in
      Array.iter
        (fun (tb : Ir.tb) ->
          Array.iteri
            (fun s (st : Ir.step) ->
              let v = node ~tb:tb.Ir.tb_id ~step:s in
              if s > 0 then edge (node ~tb:tb.Ir.tb_id ~step:(s - 1)) v;
              List.iter
                (fun (dtb, dstep) -> edge (node ~tb:dtb ~step:dstep) v)
                st.Ir.depends;
              if Instr.sends st.Ir.op then
                push sends (gpu, tb.Ir.send, tb.Ir.chan) v;
              if Instr.receives st.Ir.op then
                push recvs (tb.Ir.recv, gpu, tb.Ir.chan) v)
            tb.Ir.steps)
        g.Ir.tbs)
    ir.Ir.gpus;
  Hashtbl.iter
    (fun key ss ->
      let ss = Array.of_list (List.rev ss) in
      let rs =
        Array.of_list
          (List.rev (Option.value ~default:[] (Hashtbl.find_opt recvs key)))
      in
      for k = 0 to min (Array.length ss) (Array.length rs) - 1 do
        edge ss.(k) rs.(k);
        match fifo_slots with
        | Some s when k >= s -> edge rs.(k - s) ss.(k)
        | Some _ | None -> ()
      done)
    sends;
  succs

let naive_reaches succs a b =
  let n = Array.length succs in
  let seen = Array.make n false in
  let rec go v =
    List.exists
      (fun w ->
        w = b
        ||
        if seen.(w) then false
        else begin
          seen.(w) <- true;
          go w
        end)
      succs.(v)
  in
  go a

(* Longest path by a memoized DP over the nodes [keep] selects, which must
   induce an acyclic subgraph; integer-valued weights keep the float sums
   exact in any association order. *)
let naive_longest_path ?(keep = fun _ -> true) ?(weight = fun _ -> 1.) succs =
  let n = Array.length succs in
  let memo = Array.make n (-1.) in
  let rec lp v =
    if memo.(v) < 0. then
      memo.(v) <-
        weight v
        +. List.fold_left
             (fun acc w -> if keep w then max acc (lp w) else acc)
             0. succs.(v);
    memo.(v)
  in
  let best = ref 0. in
  for v = 0 to n - 1 do
    if keep v then best := max !best (lp v)
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

(* Checks every query of [h] against the naive reference over [succs]:
   reaches and ordered for every pair, and topo_order, cycle_size and the
   two longest paths against the DFS-derived cycle taint and the DP. *)
let check_against_naive ~case h succs =
  let n = Hbgraph.num_nodes h in
  let reach = Array.init n (fun a -> Array.init n (naive_reaches succs a)) in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      let fast = Hbgraph.reaches h a b in
      if fast <> reach.(a).(b) then
        Alcotest.failf "case %d: reaches %d %d = %b, DFS says %b" case a b
          fast reach.(a).(b);
      if Hbgraph.ordered h a b <> (reach.(a).(b) || reach.(b).(a)) then
        Alcotest.failf "case %d: ordered %d %d disagrees with DFS" case a b
    done
  done;
  (* Kahn's algorithm leaves out exactly the nodes on or downstream of a
     cycle. *)
  let tainted =
    Array.init n (fun v ->
        let rec any u =
          u < n && ((reach.(u).(u) && (u = v || reach.(u).(v))) || any (u + 1))
        in
        any 0)
  in
  let cycle = Array.fold_left (fun k t -> if t then k + 1 else k) 0 tainted in
  if Hbgraph.cycle_size h <> cycle then
    Alcotest.failf "case %d: cycle_size %d, DFS says %d" case
      (Hbgraph.cycle_size h) cycle;
  let keep v = not tainted.(v) in
  let lp = Hbgraph.longest_path h in
  let naive = int_of_float (naive_longest_path ~keep succs) in
  if lp <> naive then
    Alcotest.failf "case %d: longest_path %d, DP says %d" case lp naive;
  let weight v = float_of_int ((v * 7 + 3) mod 5) in
  let wlp = Hbgraph.weighted_longest_path h ~weight in
  let naive = naive_longest_path ~keep ~weight succs in
  if wlp <> naive then
    Alcotest.failf "case %d: weighted longest path %g, DP says %g" case wlp
      naive;
  match Hbgraph.topo_order h with
  | None ->
      if cycle = 0 then
        Alcotest.failf "case %d: no topological order on a DAG" case
  | Some order ->
      if cycle > 0 then
        Alcotest.failf "case %d: topological order on a cyclic graph" case;
      let pos = Array.make n (-1) in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      if Array.exists (fun p -> p < 0) pos then
        Alcotest.failf "case %d: topological order misses a node" case;
      Array.iteri
        (fun v ws ->
          List.iter
            (fun w ->
              if pos.(v) >= pos.(w) then
                Alcotest.failf "case %d: edge %d->%d against topo order" case
                  v w)
            ws)
        succs

let test_random_dags () =
  for case = 0 to 199 do
    let rng = F.Rng.fork (F.Rng.create 2024) case in
    let ir = gen_ir rng in
    let h = Hbgraph.build ir in
    (* The generator builds DAGs by construction. *)
    if Hbgraph.cycle_size h <> 0 then
      Alcotest.failf "case %d: cycle reported on a DAG" case;
    check_against_naive ~case h (adjacency h ir)
  done

(* Multi-GPU graphs, half of them with unrestricted depends, under every
   FIFO slot count. Besides agreeing with the reference on every graph,
   the set must exercise each reachability step on DAGs — position
   cutoffs, per-GPU closure hits and pruned searches — and contain
   same-GPU pairs ordered only through another GPU, which the per-GPU
   closure cannot see. *)
let test_multi_gpu () =
  let cutoffs = ref 0 and local_hits = ref 0 and searches = ref 0 in
  let dags = ref 0 and cyclic = ref 0 and remote_only = ref 0 in
  for case = 0 to 299 do
    let rng = F.Rng.fork (F.Rng.create 2025) case in
    let ir = gen_ir ~multi:true ~cyclic:(case mod 2 = 1) rng in
    let fifo_slots = F.Rng.pick rng [ None; Some 1; Some 2; Some 3 ] in
    let h = Hbgraph.build ?fifo_slots ir in
    let succs = adjacency ?fifo_slots h ir in
    check_against_naive ~case h succs;
    if Hbgraph.cycle_size h > 0 then incr cyclic
    else begin
      incr dags;
      let st = Hbgraph.stats h in
      cutoffs := !cutoffs + st.Hbgraph.st_pos_cutoffs;
      local_hits := !local_hits + st.Hbgraph.st_local_hits;
      searches := !searches + st.Hbgraph.st_dfs;
      let gpu v =
        let g, _, _ = Hbgraph.coords h v in
        g
      in
      let local =
        Array.mapi (fun v ws -> List.filter (fun w -> gpu w = gpu v) ws) succs
      in
      let n = Hbgraph.num_nodes h in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if
            gpu a = gpu b
            && naive_reaches succs a b
            && not (naive_reaches local a b)
          then incr remote_only
        done
      done
    end
  done;
  List.iter
    (fun (what, k) ->
      if k = 0 then Alcotest.failf "no %s in the generated set" what)
    [
      ("acyclic graph", !dags);
      ("cyclic graph", !cyclic);
      ("position cutoff", !cutoffs);
      ("per-GPU closure hit", !local_hits);
      ("pruned search", !searches);
      ("same-GPU pair ordered only through another GPU", !remote_only);
    ]

(* [node] maps exactly the steps of the IR and raises [Not_found] for
   anything else — in particular a step just past its thread block, which
   a bare [base + step] would resolve to the next block's first node. *)
let test_node_bounds () =
  for case = 0 to 99 do
    let rng = F.Rng.fork (F.Rng.create 2026) case in
    let ir = gen_ir ~multi:(case mod 2 = 1) rng in
    let h = Hbgraph.build ir in
    let raises ~gpu ~tb ~step =
      match Hbgraph.node h ~gpu ~tb ~step with
      | exception Not_found -> ()
      | i ->
          Alcotest.failf
            "case %d: node gpu %d tb %d step %d = %d, expected Not_found" case
            gpu tb step i
    in
    Array.iter
      (fun (g : Ir.gpu) ->
        let gpu = g.Ir.gpu_id in
        Array.iter
          (fun (tb : Ir.tb) ->
            let len = Array.length tb.Ir.steps in
            for step = 0 to len - 1 do
              let i = Hbgraph.node h ~gpu ~tb:tb.Ir.tb_id ~step in
              if Hbgraph.coords h i <> (gpu, tb.Ir.tb_id, step) then
                Alcotest.failf "case %d: node/coords round trip" case
            done;
            List.iter
              (fun step -> raises ~gpu ~tb:tb.Ir.tb_id ~step)
              [ -1; len; len + 1 ])
          g.Ir.tbs;
        raises ~gpu ~tb:(Array.length g.Ir.tbs) ~step:0)
      ir.Ir.gpus;
    raises ~gpu:(Array.length ir.Ir.gpus) ~tb:0 ~step:0
  done

(* The premise of the per-GPU closure: on compiler-emitted programs every
   race query is refuted by topological position or answered by the
   closure, and none needs a search. *)
let test_registry_no_search () =
  let module H = Msccl_harness in
  let params =
    { H.Registry.default_params with H.Registry.nodes = 4; verify = false }
  in
  let built = ref 0 and queries = ref 0 in
  List.iter
    (fun (spec : H.Registry.spec) ->
      match spec.H.Registry.build params with
      | exception _ -> ()
      | ir ->
          incr built;
          let hb =
            Hbgraph.build
              ~fifo_slots:(Msccl_topology.Protocol.num_slots ir.Ir.proto)
              ir
          in
          ignore (Races.find ~hb ir);
          let st = Hbgraph.stats hb in
          queries := !queries + st.Hbgraph.st_queries;
          if st.Hbgraph.st_dfs <> 0 then
            Alcotest.failf "%s: %d of %d race queries needed a search"
              spec.H.Registry.name st.Hbgraph.st_dfs st.Hbgraph.st_queries)
    H.Registry.all;
  if !built < 12 then
    Alcotest.failf "only %d registry builds succeeded at 4x8" !built;
  if !queries = 0 then Alcotest.fail "no race queries issued"

let test_cycle_detected () =
  (* Two mutually-depending steps: not a DAG; the graph must say so and
     reaches must still terminate (DFS fallback), with both nodes on the
     cycle reaching themselves. *)
  let step s depends =
    {
      Ir.s;
      op = Instr.Nop;
      src = None;
      dst = None;
      count = 1;
      depends;
      has_dep = true;
    }
  in
  let tb tb_id depends =
    {
      Ir.tb_id;
      send = -1;
      recv = -1;
      chan = tb_id;
      steps = [| step 0 depends |];
    }
  in
  let ir =
    {
      Ir.name = "hbgraph-cycle";
      collective = coll1;
      proto = Msccl_topology.Protocol.Simple;
      gpus =
        [|
          {
            Ir.gpu_id = 0;
            input_chunks = 1;
            output_chunks = 1;
            scratch_chunks = 0;
            tbs = [| tb 0 [ (1, 0) ]; tb 1 [ (0, 0) ] |];
          };
        |];
    }
  in
  let h = Hbgraph.build ir in
  Alcotest.(check bool) "topo order absent" true (Hbgraph.topo_order h = None);
  Alcotest.(check bool) "cycle size positive" true (Hbgraph.cycle_size h > 0);
  let a = Hbgraph.node h ~gpu:0 ~tb:0 ~step:0 in
  let b = Hbgraph.node h ~gpu:0 ~tb:1 ~step:0 in
  Alcotest.(check bool) "a reaches b" true (Hbgraph.reaches h a b);
  Alcotest.(check bool) "b reaches a" true (Hbgraph.reaches h b a);
  Alcotest.(check bool) "a on cycle reaches itself" true
    (Hbgraph.reaches h a a)

let () =
  Alcotest.run "hbgraph"
    [
      ( "hbgraph",
        [
          Testutil.tc "200 random DAGs vs naive DFS" test_random_dags;
          Testutil.tc "cycle detection and DFS fallback" test_cycle_detected;
          Testutil.tc "multi-GPU graphs vs naive DFS" test_multi_gpu;
          Testutil.tc "node rejects unknown coordinates" test_node_bounds;
          Testutil.tc "registry race queries need no search"
            test_registry_no_search;
        ] );
    ]

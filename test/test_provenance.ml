(* Static chunk-provenance verification.

   The load-bearing property: [Provenance.check]'s verdict must equal the
   dynamic verdict ([Verify.check_postcondition] / [Executor.Exec_error])
   on every program — registry output, hand-built bugs, and mutants — and
   the orbit-quotiented interpretation must agree with the full one. *)

module A = Msccl_analysis
module H = Msccl_harness
module F = Msccl_fuzz
module Q = QCheck
open Msccl_core

let build ?(nodes = 1) ?(gpus = 8) name =
  let spec = Option.get (H.Registry.find name) in
  spec.H.Registry.build
    { H.Registry.default_params with nodes; gpus_per_node = gpus }

(* Dynamic verdict: [None] = executor crashed; [Some positions] = ran to
   completion with the given wrong (rank, index) output positions. *)
let dynamic_positions ir =
  match Verify.check_postcondition ir with
  | Ok () -> Some []
  | Error ms ->
      Some
        (List.sort compare
           (List.map (fun m -> (m.Verify.m_rank, m.Verify.m_index)) ms))
  | exception Executor.Exec_error _ -> None

let is_slot_kind = function
  | A.Provenance.Never_written | A.Provenance.Missing_contribution _
  | A.Provenance.Duplicated_contribution _ | A.Provenance.Divergent
  | A.Provenance.Overwritten_before_read _ ->
      true
  | _ -> false

let static_positions diags =
  List.filter_map
    (fun d ->
      match d.A.Provenance.dg_loc with
      | Some l when is_slot_kind d.A.Provenance.dg_kind ->
          Some (d.A.Provenance.dg_rank, l.Loc.index)
      | _ -> None)
    diags
  |> List.sort compare

(* Assert the static verdict matches the dynamic one on [ir]; returns the
   static diagnostics. *)
let check_agreement ?symmetry name ir =
  let static = A.Provenance.check ?symmetry ir in
  (match (dynamic_positions ir, static) with
  | Some [], Ok () -> ()
  | Some [], Error ds ->
      Alcotest.failf "%s: dynamic ok but static found %d diag(s); first: %s"
        name (List.length ds)
        (Format.asprintf "%a" A.Provenance.pp_diag (List.hd ds))
  | Some (_ :: _ as dyn), Ok () ->
      Alcotest.failf "%s: dynamic found %d mismatch(es) but static ok" name
        (List.length dyn)
  | Some (_ :: _ as dyn), Error ds ->
      let st = static_positions ds in
      let restrict =
        (* the quotient reports representative ranks only *)
        match symmetry with
        | None -> dyn
        | Some s ->
            let reps = Orbit.reps s.A.Symmetry.s_orbit in
            List.filter (fun (r, _) -> List.mem r reps) dyn
      in
      if st <> [] && st <> restrict then
        Alcotest.failf "%s: static positions (%d) <> dynamic positions (%d)"
          name (List.length st) (List.length restrict);
      if st = [] && not (List.exists (fun d -> not (is_slot_kind d.A.Provenance.dg_kind)) ds)
      then Alcotest.failf "%s: static error carries no positions" name
  | None, Error _ -> ()
  | None, Ok () ->
      Alcotest.failf "%s: executor crashed but static verdict is ok" name);
  static

(* ------------------------------------------------------------------ *)
(* Registry agreement, full and quotient                               *)
(* ------------------------------------------------------------------ *)

let registry_shapes = [ (1, 8); (2, 4) ]

let test_registry_agreement () =
  List.iter
    (fun spec ->
      let name = spec.H.Registry.name in
      List.iter
        (fun (nodes, gpus) ->
          match build ~nodes ~gpus name with
          | exception _ -> () (* shape unsupported *)
          | ir ->
              ignore (check_agreement name ir);
              let s = A.Symmetry.infer ir in
              ignore (check_agreement ~symmetry:s (name ^ "+sym") ir))
        registry_shapes)
    H.Registry.all

let test_quotient_mode_engages () =
  let ir = build "ring-allreduce" in
  let s = A.Symmetry.infer ir in
  Alcotest.(check bool) "certified" true (A.Symmetry.certified s);
  let r = A.Provenance.analyze ~symmetry:s ~lints:false ir in
  (match r.A.Provenance.r_mode with
  | A.Provenance.Quotient { interpreted_ranks; _ } ->
      Alcotest.(check int) "one rep interpreted" 1 interpreted_ranks
  | A.Provenance.Full -> Alcotest.fail "quotient did not engage");
  Alcotest.(check int) "clean" 0 (List.length r.A.Provenance.r_diags);
  let full = A.Provenance.analyze ~lints:false ir in
  Alcotest.(check bool)
    "quotient interprets fewer steps" true
    (r.A.Provenance.r_steps_interpreted * 2
    <= full.A.Provenance.r_steps_interpreted)

(* The quotient interpretation of three registry algorithms at 16 ranks
   (2 nodes x 8 GPUs), pinned: mode, interpreted steps and the whole
   report. The quotient re-addresses receives through the executor's
   ports, so a port change that misroutes one shows here. *)
let test_quotient_pinned () =
  List.iter
    (fun (name, steps, orbits) ->
      let ir = build ~nodes:2 name in
      let r = A.Provenance.analyze ~symmetry:(A.Symmetry.infer ir) ir in
      (match r.A.Provenance.r_mode with
      | A.Provenance.Quotient _ -> ()
      | A.Provenance.Full -> Alcotest.failf "%s: quotient did not engage" name);
      Alcotest.(check int) (name ^ " steps") steps
        r.A.Provenance.r_steps_interpreted;
      Alcotest.(check string) (name ^ " report")
        (Printf.sprintf
           "{\"mode\": \"quotient\", \"orbits\": %d, \"interpreted_ranks\": \
            %d, \"steps_interpreted\": %d, \"slots_checked\": %d, \"ok\": \
            true, \"diags\": [], \"lints\": []}"
           orbits orbits steps (16 * orbits))
        (A.Provenance.report_json r))
    [
      ("ring-allreduce", 31, 1);
      ("allpairs-allreduce", 75, 1);
      ("hierarchical-allreduce", 70, 2);
    ]

(* ------------------------------------------------------------------ *)
(* Injected bugs carry root causes                                     *)
(* ------------------------------------------------------------------ *)

let test_break_fusion_rejected () =
  let ir = F.Mutate.break_fusion (build "ring-allreduce") in
  match A.Provenance.check ir with
  | Ok () -> Alcotest.fail "missing-reduce mutant accepted"
  | Error ds ->
      Alcotest.(check bool) "has diagnostics" true (ds <> []);
      (* every slot diagnostic names the instruction that last wrote the
         divergent slot *)
      let sited =
        List.for_all
          (fun d ->
            (not (is_slot_kind d.A.Provenance.dg_kind))
            || d.A.Provenance.dg_site <> None)
          ds
      in
      Alcotest.(check bool) "diagnostics carry sites" true sited;
      let has_missing =
        List.exists
          (fun d ->
            match d.A.Provenance.dg_kind with
            | A.Provenance.Missing_contribution _
            | A.Provenance.Overwritten_before_read _
            | A.Provenance.Divergent ->
                true
            | _ -> false)
          ds
      in
      Alcotest.(check bool) "classified as dataflow divergence" true
        has_missing;
      (* and the verdict agrees with the executor's *)
      ignore (check_agreement "break-fusion" ir)

let test_double_count_classified () =
  let coll =
    Collective.make Collective.Allreduce ~num_ranks:2 ~inplace:true ()
  in
  let ir =
    Compile.ir ~verify:false coll (fun p ->
        let a = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let s = Program.copy a ~rank:1 Buffer_id.Scratch ~index:0 () in
        let own = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        let acc = Program.reduce own s () in
        let s2 =
          Program.copy
            (Program.chunk p ~rank:0 Buffer_id.Input ~index:0 ())
            ~rank:1 Buffer_id.Scratch ~index:1 ()
        in
        let acc = Program.reduce acc s2 () in
        ignore (Program.copy acc ~rank:0 Buffer_id.Input ~index:0 ()))
  in
  match A.Provenance.check ir with
  | Ok () -> Alcotest.fail "double count accepted"
  | Error ds ->
      let dup =
        List.exists
          (fun d ->
            match d.A.Provenance.dg_kind with
            | A.Provenance.Duplicated_contribution { multiplicity; distinct } ->
                multiplicity > distinct
            | _ -> false)
          ds
      in
      Alcotest.(check bool) "double count classified" true dup

let test_never_written_classified () =
  let coll = Collective.make (Collective.Broadcast 0) ~num_ranks:2 () in
  let ir =
    Compile.ir ~verify:false coll (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c ~rank:0 Buffer_id.Output ~index:0 ()))
  in
  match A.Provenance.check ir with
  | Ok () -> Alcotest.fail "incomplete broadcast accepted"
  | Error ds ->
      let nw =
        List.exists
          (fun d ->
            d.A.Provenance.dg_kind = A.Provenance.Never_written
            && d.A.Provenance.dg_rank = 1)
          ds
      in
      Alcotest.(check bool) "rank 1 slot never written" true nw

let test_overwrite_classified () =
  (* rank 1 receives the right value, then clobbers it with its own junk
     before anything reads it *)
  let coll = Collective.make (Collective.Broadcast 0) ~num_ranks:2 () in
  let ir =
    Compile.ir ~verify:false coll (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c ~rank:0 Buffer_id.Output ~index:0 ());
        ignore (Program.copy c ~rank:1 Buffer_id.Output ~index:0 ());
        let own = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        ignore (Program.copy own ~rank:1 Buffer_id.Output ~index:0 ()))
  in
  match A.Provenance.check ir with
  | Ok () -> Alcotest.fail "clobbered broadcast accepted"
  | Error ds ->
      let ow =
        List.exists
          (fun d ->
            match d.A.Provenance.dg_kind with
            | A.Provenance.Overwritten_before_read { overwriter } ->
                overwriter.A.Provenance.p_rank = 1
                && d.A.Provenance.dg_site <> None
            | _ -> false)
          ds
      in
      Alcotest.(check bool) "clobber classified with both sites" true ow

let test_uninitialized_read_static () =
  (* the DSL refuses to trace such a read, so splice the bad instruction
     into the IR directly: rank 1 copies never-written scratch *)
  let coll = Collective.make (Collective.Broadcast 0) ~num_ranks:2 () in
  let base =
    Compile.ir ~verify:false coll (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c ~rank:0 Buffer_id.Output ~index:0 ());
        ignore
          (Program.copy
             (Program.chunk p ~rank:1 Buffer_id.Input ~index:0 ())
             ~rank:1 Buffer_id.Output ~index:0 ()))
  in
  let bad_copy =
    {
      Ir.s = 0;
      op = Instr.Copy;
      src =
        Some (Loc.make ~rank:1 ~buf:Buffer_id.Scratch ~index:0 ~count:1);
      dst = Some (Loc.make ~rank:1 ~buf:Buffer_id.Output ~index:0 ~count:1);
      count = 1;
      depends = [];
      has_dep = false;
    }
  in
  let gpus =
    Array.map
      (fun (g : Ir.gpu) ->
        if g.Ir.gpu_id <> 1 then g
        else
          {
            g with
            Ir.scratch_chunks = 1;
            Ir.tbs =
              Array.map
                (fun (t : Ir.tb) ->
                  if Array.length t.Ir.steps = 0 then t
                  else { t with Ir.steps = [| bad_copy |] })
                g.Ir.tbs;
          })
      base.Ir.gpus
  in
  let ir = { base with Ir.gpus } in
  (* the executor crashes here... *)
  (match Verify.check_postcondition ir with
  | exception Executor.Exec_error _ -> ()
  | _ -> Alcotest.fail "expected an executor crash");
  (* ...the static pass reports it with the reading instruction *)
  (match A.Provenance.check ir with
  | Ok () -> Alcotest.fail "uninitialized read accepted"
  | Error ds ->
      let ur =
        List.exists
          (fun d ->
            match d.A.Provenance.dg_kind with
            | A.Provenance.Uninitialized_read l ->
                l.Loc.buf = Buffer_id.Scratch && d.A.Provenance.dg_site <> None
            | _ -> false)
          ds
      in
      Alcotest.(check bool) "uninitialized read located" true ur);
  let lints = A.Provenance.lint ir in
  Alcotest.(check bool)
    "uninitialized-read lint emitted" true
    (List.exists (fun d -> d.Lint.d_rule = "uninitialized-read") lints)

let test_missing_operand_static () =
  (* The executor raises on an rcs with no destination; the static pass
     reports it at that step instead, so the two verdicts still agree. *)
  let ir, tb, step =
    Testutil.strip_first_dst Instr.Recv_copy_send
      (Msccl_algorithms.Ring_allreduce.ir ~num_ranks:4 ())
  in
  (match Verify.check_postcondition ir with
  | exception Executor.Exec_error _ -> ()
  | _ -> Alcotest.fail "expected an executor error");
  let r = A.Provenance.analyze ir in
  let located =
    List.exists
      (fun d ->
        match (d.A.Provenance.dg_kind, d.A.Provenance.dg_site) with
        | A.Provenance.Missing_operand "destination", Some s ->
            s.A.Provenance.p_rank = 0 && s.A.Provenance.p_tb = tb
            && s.A.Provenance.p_step = step
        | _ -> false)
      r.A.Provenance.r_diags
  in
  Alcotest.(check bool) "missing destination located" true located;
  Alcotest.(check bool)
    "check agrees" true
    (Result.is_error (A.Provenance.check ir))

(* A received message with the wrong chunk count is one located
   diagnostic at the receiving step (where the executor raises), plain and
   quotiented; no other exception escapes either interpreter. *)
let test_message_size_static () =
  let sized ~at ds =
    List.exists
      (fun d ->
        match (d.A.Provenance.dg_kind, d.A.Provenance.dg_site) with
        | A.Provenance.Message_size _, Some s ->
            let open A.Provenance in
            at (s.p_rank, s.p_tb, s.p_step)
        | _ -> false)
      ds
  in
  List.iter
    (fun op ->
      let ir = Testutil.count_mismatch_ir op in
      let ds = (A.Provenance.analyze ir).A.Provenance.r_diags in
      Alcotest.(check bool) "located at the receive" true
        (List.exists
           (fun d ->
             d.A.Provenance.dg_kind
             = A.Provenance.Message_size { sent = 2; expected = 1 })
           ds
        && sized ~at:(fun at -> at = (0, 0, 2)) ds);
      ignore (check_agreement (Instr.opcode_name op) ir))
    [ Instr.Recv; Instr.Recv_reduce_copy ];
  List.iter
    (fun (seed, index) ->
      let ir = Testutil.ring16_mangle ~seed ~index in
      let name = Printf.sprintf "ring@16 mangle %d/%d" seed index in
      List.iter
        (fun symmetry ->
          match check_agreement ?symmetry name ir with
          | Error ds ->
              Alcotest.(check bool) (name ^ " message-size") true
                (sized ~at:(fun _ -> true) ds)
          | Ok () -> Alcotest.failf "%s accepted" name)
        [ None; Some (A.Symmetry.infer ir) ])
    Testutil.ring16_count_mangles

(* ------------------------------------------------------------------ *)
(* Dataflow lints                                                     *)
(* ------------------------------------------------------------------ *)

let test_dead_store_lint () =
  (* the first copy into out[0] is clobbered unread; a second write wins *)
  let coll = Collective.make (Collective.Broadcast 0) ~num_ranks:1 () in
  let ir =
    Compile.ir ~verify:false coll (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let tmp = Program.copy c ~rank:0 Buffer_id.Scratch ~index:0 () in
        ignore (Program.copy tmp ~rank:0 Buffer_id.Output ~index:0 ());
        ignore (Program.copy c ~rank:0 Buffer_id.Output ~index:0 ()))
  in
  let lints = A.Provenance.lint ir in
  Alcotest.(check bool)
    "dead-store emitted" true
    (List.exists (fun d -> d.Lint.d_rule = "dead-store") lints)

let test_unread_scratch_stronger_than_dead_scratch () =
  (* scratch[0] is written, then read — but only into scratch[1], which
     never reaches any output: the syntactic dead-scratch rule misses
     slot 0, the dataflow rule must flag it *)
  let coll = Collective.make (Collective.Broadcast 0) ~num_ranks:1 () in
  let ir =
    Compile.ir ~verify:false coll (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c ~rank:0 Buffer_id.Output ~index:0 ());
        let s0 = Program.copy c ~rank:0 Buffer_id.Scratch ~index:0 () in
        ignore (Program.copy s0 ~rank:0 Buffer_id.Scratch ~index:1 ()))
  in
  let syntactic = Lint.run ir in
  let dead_scratch_hits_slot0 =
    List.exists
      (fun d ->
        d.Lint.d_rule = "dead-scratch"
        &&
        let m = d.Lint.d_message in
        (* the syntactic rule can only name slot 1; guard that slot 0
           stays invisible to it *)
        not
          (let needle = "scratch[0" in
           let n = String.length needle and l = String.length m in
           let rec go i =
             i + n <= l && (String.sub m i n = needle || go (i + 1))
           in
           go 0))
      syntactic
  in
  ignore dead_scratch_hits_slot0;
  let lints = A.Provenance.lint ir in
  let unread =
    List.filter (fun d -> d.Lint.d_rule = "unread-scratch") lints
  in
  Alcotest.(check bool) "unread-scratch fired" true (unread <> []);
  Alcotest.(check bool)
    "covers the transitively-dead slot 0" true
    (List.exists
       (fun d ->
         let m = d.Lint.d_message in
         let needle = "scratch[0" in
         let n = String.length needle and l = String.length m in
         let rec go i = i + n <= l && (String.sub m i n = needle || go (i + 1)) in
         go 0)
       unread)

let test_registry_lint_clean () =
  (* compiled registry algorithms must never trip the error-severity
     dataflow rule *)
  List.iter
    (fun spec ->
      match build ~nodes:1 ~gpus:8 spec.H.Registry.name with
      | exception _ -> ()
      | ir ->
          let lints = A.Provenance.lint ir in
          List.iter
            (fun d ->
              if d.Lint.d_severity = Lint.Error then
                Alcotest.failf "%s: %s: %s" spec.H.Registry.name
                  d.Lint.d_rule d.Lint.d_message)
            lints)
    H.Registry.all

(* ------------------------------------------------------------------ *)
(* Quotient = full, including on symmetric mutants                     *)
(* ------------------------------------------------------------------ *)

(* First (tb, step) of rank 0 whose opcode [pick] maps to a replacement. *)
let first_site (ir : Ir.t) pick =
  let site = ref None in
  Array.iter
    (fun (t : Ir.tb) ->
      Array.iter
        (fun (st : Ir.step) ->
          if !site = None then
            match pick st.Ir.op with
            | Some op -> site := Some (t.Ir.tb_id, st.Ir.s, op)
            | None -> ())
        t.Ir.steps)
    ir.Ir.gpus.(0).Ir.tbs;
  !site

let downgrade_along_orbit ir sym pick =
  Option.map
    (fun (tb, step, op) ->
      Testutil.rewrite_along_orbit ir sym ~tb ~step (fun st ->
          { st with Ir.op }))
    (first_site ir pick)

(* Downgrade the reducing receive at one orbit-mapped coordinate on every
   rank: a symmetry-preserving missing-reduce, so certification holds and
   the quotient must reproduce the full verdict. *)
let symmetric_break_fusion ir sym =
  downgrade_along_orbit ir sym (function
    | Instr.Recv_reduce_copy_send -> Some Instr.Recv_copy_send
    | Instr.Recv_reduce_copy -> Some Instr.Recv
    | _ -> None)

let test_quotient_equals_full_on_symmetric_mutant () =
  List.iter
    (fun (name, nodes, gpus) ->
      let ir = build ~nodes ~gpus name in
      let s0 = A.Symmetry.infer ir in
      Alcotest.(check bool) (name ^ " certified") true (A.Symmetry.certified s0);
      match symmetric_break_fusion ir s0 with
      | None -> Alcotest.failf "%s: no reducing receive to downgrade" name
      | Some bad ->
          let s = A.Symmetry.infer bad in
          Alcotest.(check bool)
            (name ^ " mutant still certified") true (A.Symmetry.certified s);
          let q = A.Provenance.analyze ~symmetry:s ~lints:false bad in
          (match q.A.Provenance.r_mode with
          | A.Provenance.Quotient _ -> ()
          | A.Provenance.Full ->
              Alcotest.failf "%s: quotient did not engage on the mutant" name);
          let full = A.Provenance.analyze ~lints:false bad in
          let reps = Orbit.reps s.A.Symmetry.s_orbit in
          let fullpos =
            static_positions full.A.Provenance.r_diags
            |> List.filter (fun (r, _) -> List.mem r reps)
          in
          let qpos = static_positions q.A.Provenance.r_diags in
          Alcotest.(check bool)
            (name ^ " mutant caught") true
            (full.A.Provenance.r_diags <> []);
          Alcotest.(check (list (pair int int)))
            (name ^ " quotient = full on representatives") fullpos qpos)
    [ ("ring-allreduce", 1, 8); ("hierarchical-allreduce", 2, 4) ]

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A certified mutant whose connections do not balance gets the same
   report with its symmetry as without: the full pass, which names every
   unbalanced connection. *)
let check_same_report name ir =
  let s = A.Symmetry.infer ir in
  Alcotest.(check bool) (name ^ " certified") true (A.Symmetry.certified s);
  let full = A.Provenance.report_json (A.Provenance.analyze ir) in
  Alcotest.(check bool)
    (name ^ " connection mismatch reported") true
    (contains full "conn-mismatch");
  Alcotest.(check string)
    (name ^ " report with symmetry = without")
    full
    (A.Provenance.report_json (A.Provenance.analyze ~symmetry:s ir))

(* Every rank's receiving block detached from its peer ([recv = -1]):
   shift+1 still certifies, and each receive now comes from no rank. *)
let test_detached_receivers () =
  let ir = build "ring-allreduce" in
  let detach (g : Ir.gpu) =
    {
      g with
      Ir.tbs =
        Array.map
          (fun (tb : Ir.tb) ->
            if tb.Ir.recv >= 0 then { tb with Ir.recv = -1 } else tb)
          g.Ir.tbs;
    }
  in
  check_same_report "ring detached receivers"
    { ir with Ir.gpus = Array.map detach ir.Ir.gpus }

(* One forwarding receive downgraded to a plain receive on every rank
   along the orbit: each connection carries one send fewer than it has
   receives, so the connection scan must decide before any quotient run. *)
let test_dropped_send () =
  let ir = build "ring-allreduce" in
  match
    downgrade_along_orbit ir (A.Symmetry.infer ir) (function
      | Instr.Recv_copy_send -> Some Instr.Recv
      | _ -> None)
  with
  | None -> Alcotest.fail "ring has no forwarding receive"
  | Some bad -> check_same_report "ring dropped send" bad

(* Every rank gains a block with no steps whose receive peer is no rank:
   shift+1 still certifies, no connection is unbalanced, and the quotient
   runs with that block reading nothing. *)
let test_peerless_empty_block () =
  let ir = build "ring-allreduce" in
  let add (g : Ir.gpu) =
    let tb_id = Array.length g.Ir.tbs in
    let extra = { Ir.tb_id; send = -1; recv = 100; chan = 0; steps = [||] } in
    { g with Ir.tbs = Array.append g.Ir.tbs [| extra |] }
  in
  let ir = { ir with Ir.gpus = Array.map add ir.Ir.gpus } in
  let s = A.Symmetry.infer ir in
  Alcotest.(check bool) "certified" true (A.Symmetry.certified s);
  let r = A.Provenance.analyze ~symmetry:s ir in
  (match r.A.Provenance.r_mode with
  | A.Provenance.Quotient _ -> ()
  | A.Provenance.Full -> Alcotest.fail "quotient did not engage");
  Alcotest.(check bool) "clean" true (r.A.Provenance.r_diags = [])

let qcheck_static_equals_dynamic =
  let algos =
    [|
      ("ring-allreduce", 1, 8); ("allpairs-allreduce", 1, 8);
      ("ring-allgather", 1, 6); ("hierarchical-allreduce", 2, 4);
      ("halving-doubling", 1, 8); ("ring-reducescatter", 1, 4);
      ("naive-alltoall", 1, 4); ("tree-allreduce", 1, 8);
    |]
  in
  let gen = Q.Gen.(pair (int_bound (Array.length algos - 1)) (pair bool bool)) in
  let arb = Q.make ~print:Q.Print.(pair int (pair bool bool)) gen in
  Q.Test.make ~name:"provenance verdict = executor verdict" ~count:40 arb
    (fun (ai, (mutate, with_sym)) ->
      let name, nodes, gpus = algos.(ai) in
      let ir = build ~nodes ~gpus name in
      let ir = if mutate then F.Mutate.break_fusion ir else ir in
      let symmetry = if with_sym then Some (A.Symmetry.infer ir) else None in
      ignore (check_agreement ?symmetry name ir);
      true)

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let test_report_json () =
  let ir = build ~gpus:4 "ring-allreduce" in
  let r = A.Provenance.analyze ir in
  let json = A.Provenance.report_json r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains json needle))
    [ "\"mode\": \"full\""; "\"ok\": true"; "\"diags\": []"; "\"lints\": " ];
  let bad = F.Mutate.break_fusion ir in
  let rb = A.Provenance.analyze bad in
  let jb = A.Provenance.report_json rb in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mutant contains " ^ needle) true (contains jb needle))
    [ "\"ok\": false"; "\"site\"" ]

let () =
  Alcotest.run "provenance"
    [
      ( "agreement",
        [
          Testutil.tc "registry, full and quotient" test_registry_agreement;
          Testutil.tc "quotient engages" test_quotient_mode_engages;
          Testutil.tc "quotient pinned at 16 ranks" test_quotient_pinned;
          QCheck_alcotest.to_alcotest qcheck_static_equals_dynamic;
        ] );
      ( "root causes",
        [
          Testutil.tc "break_fusion rejected with site"
            test_break_fusion_rejected;
          Testutil.tc "double count" test_double_count_classified;
          Testutil.tc "never written" test_never_written_classified;
          Testutil.tc "overwritten before read" test_overwrite_classified;
          Testutil.tc "uninitialized read" test_uninitialized_read_static;
          Testutil.tc "missing operand" test_missing_operand_static;
          Testutil.tc "message size" test_message_size_static;
        ] );
      ( "lints",
        [
          Testutil.tc "dead-store" test_dead_store_lint;
          Testutil.tc "unread-scratch beats dead-scratch"
            test_unread_scratch_stronger_than_dead_scratch;
          Testutil.tc "registry has no dataflow errors"
            test_registry_lint_clean;
        ] );
      ( "quotient",
        [
          Testutil.tc "symmetric mutant: quotient = full"
            test_quotient_equals_full_on_symmetric_mutant;
          Testutil.tc "detached receivers: same report"
            test_detached_receivers;
          Testutil.tc "dropped send: same report" test_dropped_send;
          Testutil.tc "step-less block, receive peer out of range"
            test_peerless_empty_block;
        ] );
      ("reports", [ Testutil.tc "json" test_report_json ]);
    ]

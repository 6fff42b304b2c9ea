(* End-to-end smoke tests: trace the paper's Fig. 3 programs through the
   whole compiler and check the verifier accepts them. *)

open Msccl_core

(* Fig. 3b: Ring ReduceScatter over [ranks], operating in the input buffer. *)
let ring_reduce_scatter prog ranks ~offset ~count =
  let r_len = List.length ranks in
  let nth i = List.nth ranks (i mod r_len) in
  for r = 0 to r_len - 1 do
    let index = offset + (r * count) in
    let c = ref (Program.chunk prog ~rank:(nth (r + 1)) Buffer_id.Input ~index ~count ()) in
    for step = 1 to r_len - 1 do
      let next = nth (step + r + 1) in
      let own = Program.chunk prog ~rank:next Buffer_id.Input ~index ~count () in
      c := Program.reduce own !c ()
    done
  done

(* Fig. 3b: Ring AllGather. *)
let ring_all_gather prog ranks ~offset ~count =
  let r_len = List.length ranks in
  let nth i = List.nth ranks (i mod r_len) in
  for r = 0 to r_len - 1 do
    let index = offset + (r * count) in
    let c = ref (Program.chunk prog ~rank:(nth r) Buffer_id.Input ~index ~count ()) in
    for step = 1 to r_len - 1 do
      let next = nth (step + r) in
      c := Program.copy !c ~rank:next Buffer_id.Input ~index ()
    done
  done

let ring_allreduce num_ranks =
  let coll =
    Collective.make Collective.Allreduce ~num_ranks ~chunk_factor:num_ranks
      ~inplace:true ()
  in
  Compile.compile ~name:"ring-allreduce" coll (fun prog ->
      let ranks = List.init num_ranks Fun.id in
      ring_reduce_scatter prog ranks ~offset:0 ~count:1;
      ring_all_gather prog ranks ~offset:0 ~count:1)

let test_ring_compiles () =
  let report = ring_allreduce 4 in
  Alcotest.(check bool) "verified" true (Verify.check report.Compile.ir = Ok ());
  Alcotest.(check bool)
    "fusion fired" true
    (Fusion.total report.Compile.fusion > 0)

let test_ring_numeric () =
  let report = ring_allreduce 3 in
  let ir = report.Compile.ir in
  let st = Executor.Data.run_random ~elems_per_chunk:5 ~seed:7 ir in
  let ok = ref true in
  for rank = 0 to Ir.num_ranks ir - 1 do
    let out = Executor.Data.output st ~rank in
    Array.iteri
      (fun index v ->
        match
          Executor.Data.reference ~elems_per_chunk:5 ~seed:7 ir ~rank ~index
        with
        | None -> ()
        | Some expect -> (
            match v with
            | None -> ok := false
            | Some got ->
                Array.iteri
                  (fun e x ->
                    if abs_float (x -. expect.(e)) > 1e-9 then ok := false)
                  got))
      out
  done;
  Alcotest.(check bool) "numeric allreduce matches" true !ok

let test_instances () =
  let report = ring_allreduce 4 in
  let ir4 = Instances.blocked report.Compile.ir ~instances:4 in
  Alcotest.(check bool) "replicated verifies" true (Verify.check ir4 = Ok ());
  Alcotest.(check int) "4x thread blocks" (4 * Ir.num_thread_blocks report.Compile.ir)
    (Ir.num_thread_blocks ir4)

(* Compile's allocation per IR step: ring AllReduce@64 through
   [Compile.compile ~verify:false] (trace, lower, fuse, schedule),
   counted with [Gc.minor_words]. Arrays too large for the minor heap are
   allocated in the major heap directly and not counted, so this measures
   the per-instruction garbage: records, lists, options, closures. With
   list-based dependency tracking, a list successor index and a compacted
   copy of the DAG before scheduling, this compile allocated 683.3 words
   per step; on flat int state it allocates 143.2. The budget is 1.25x
   that. *)
let test_compile_budget () =
  let n = 64 in
  let coll =
    Collective.make Collective.Allreduce ~num_ranks:n ~chunk_factor:n
      ~inplace:true ()
  in
  let compile () =
    Compile.compile ~verify:false coll
      (Msccl_algorithms.Ring_allreduce.program ~num_ranks:n ~channels:1)
  in
  ignore (compile ());
  let before = Gc.minor_words () in
  let report = compile () in
  let words = Gc.minor_words () -. before in
  let per_step = words /. float_of_int (Ir.num_steps report.Compile.ir) in
  Printf.printf "ring@64 compile: %.1f minor words per IR step\n" per_step;
  let limit = 1.25 *. 143.2 in
  if per_step > limit then
    Alcotest.failf "compile allocates %.1f words per IR step (budget %.1f)"
      per_step limit

(* [Ir.validate]'s allocation per call on all-pairs AllReduce@96 (9,120
   thread blocks and connections). With a tuple-keyed balance table per
   direction and a claim list per peer it allocated 3.1 MB per call in
   the minor heap (3.6 MB in all). Deciding ownership and balance from
   the connection index, it allocates about 16 KB there, under a budget
   of 0.5 MB. The index's arrays and its sort's scratch, about 1.7 MB
   (some 190 bytes per thread block), are too large for the minor heap,
   so all allocation is gated too: [Gc.allocated_bytes] (minor, plus
   major, less promoted) varies by call, as OCaml 5 updates the major
   counters in batches, so it is averaged over 10 calls, under a budget
   of 2.5 MB. *)
let test_validate_budget () =
  let ir = Msccl_algorithms.Allpairs_allreduce.ir ~verify:false ~num_ranks:96 () in
  Ir.validate ir;
  let calls = 10 in
  let minor0 = Gc.minor_words () and all0 = Gc.allocated_bytes () in
  for _ = 1 to calls do
    Ir.validate ir
  done;
  let per_call x = x /. float_of_int calls in
  let minor =
    per_call ((Gc.minor_words () -. minor0) *. float_of_int (Sys.word_size / 8))
  in
  let all = per_call (Gc.allocated_bytes () -. all0) in
  Printf.printf "allpairs@96 Ir.validate: %.0f bytes in the minor heap, %.0f in all\n"
    minor all;
  if minor > 500_000. then
    Alcotest.failf "Ir.validate allocates %.0f minor-heap bytes per call (budget 500000)"
      minor;
  if all > 2_500_000. then
    Alcotest.failf "Ir.validate allocates %.0f bytes per call (budget 2500000)" all

let () =
  Alcotest.run "pipeline"
    [
      ( "ring-allreduce",
        [
          Alcotest.test_case "compiles and verifies" `Quick test_ring_compiles;
          Alcotest.test_case "numeric execution" `Quick test_ring_numeric;
          Alcotest.test_case "blocked instances" `Quick test_instances;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "compile words per IR step" `Quick
            test_compile_budget;
          Alcotest.test_case "Ir.validate bytes on allpairs@96" `Quick
            test_validate_budget;
        ] );
    ]

(* Discrete-event engine and priority queue tests. *)

module E = Msccl_sim.Engine
module P = Msccl_sim.Pqueue
module Q = QCheck

let drain q =
  let rec go acc =
    if P.is_empty q then List.rev acc
    else
      let p = P.min_priority q in
      go ((p, P.pop_min q) :: acc)
  in
  go []

let test_pqueue_order () =
  let q = P.create () in
  List.iter (fun (p, v) -> P.add q ~priority:p v)
    [ (3., 30); (1., 10); (2., 20); (1., 11) ];
  Alcotest.(check (list int)) "sorted, stable ties" [ 10; 11; 20; 30 ]
    (List.map snd (drain q));
  Alcotest.(check bool) "empty" true (P.is_empty q)

let prop_pqueue_sorts =
  Testutil.qtest "pqueue sorts any input"
    Q.(list (pair (float_range 0. 1000.) small_int))
    (fun entries ->
      let q = P.create () in
      List.iter (fun (p, v) -> P.add q ~priority:p v) entries;
      List.map fst (drain q) = List.sort compare (List.map fst entries))

(* The int heap against the generic swap-based heap it replaced: [Pop]
   pops both, [Push p] pushes the next value at [p] and [Push_min] pushes
   it at the reference's current minimum (at [0.] when it is empty). At
   the end both are drained, and the two (priority, value) sequences must
   be equal, priorities bit for bit, as must the lengths after every
   step. *)
type op = Pop | Push of float | Push_min

let print_ops ops =
  String.concat " "
    (List.map
       (function
         | Pop -> "pop" | Push p -> Printf.sprintf "%h" p | Push_min -> "min")
       ops)

let matches_reference ops =
  let q = P.create () and r = Pqueue_ref.create () in
  let popped = ref [] and popped_ref = ref [] and lengths_agree = ref true in
  let pop () =
    if not (P.is_empty q) then begin
      let p = P.min_priority q in
      popped := (p, P.pop_min q) :: !popped
    end;
    match Pqueue_ref.pop r with
    | Some e -> popped_ref := e :: !popped_ref
    | None -> ()
  in
  let push v p =
    P.add q ~priority:p v;
    Pqueue_ref.add r ~priority:p v
  in
  List.iteri
    (fun v op ->
      (match op with
      | Pop -> pop ()
      | Push p -> push v p
      | Push_min ->
          push v (match Pqueue_ref.peek r with Some (p, _) -> p | None -> 0.));
      if P.length q <> Pqueue_ref.length r then lengths_agree := false)
    ops;
  while not (P.is_empty q && Pqueue_ref.is_empty r) do
    pop ()
  done;
  !lengths_agree && P.length q = 0
  && List.equal
       (fun (p1, v1) (p2, v2) ->
         Int64.equal (Int64.bits_of_float p1) (Int64.bits_of_float p2)
         && v1 = v2)
       !popped !popped_ref

(* Single pushes and pops, with priorities drawn from a handful of values
   (equal floats, [0.] and [-0.], [infinity]) so that most comparisons
   are ties. *)
let prop_pqueue_matches_reference =
  let prio = Q.Gen.oneofl [ 0.; -0.; 1.; 1.; 2.5; 1e-300; infinity ] in
  let step =
    Q.Gen.(frequency [ (1, return Pop); (2, map (fun p -> Push p) prio) ])
  in
  Testutil.qtest ~count:500 "int heap = reference heap on ties"
    (Q.make ~print:print_ops Q.Gen.(list_size (int_range 0 400) step))
    matches_reference

(* Runs, as a lockstep simulation pushes them: blocks of 1-64 pushes at
   one priority (now and then a [0.], [-0.] or [infinity] inside), blocks
   of pops that stop mid-run, and blocks that pop and push back at the
   new minimum, appending to the run being drained and reopening a
   priority once its run has drained. *)
let prop_pqueue_runs_match_reference =
  let open Q.Gen in
  let prio = oneofl [ 0.; -0.; 1.; 2.5; 1e-300; infinity ] in
  let special = oneofl [ 0.; -0.; infinity ] in
  let block =
    int_range 1 64 >>= fun k ->
    frequency
      [
        ( 3,
          prio >>= fun p ->
          list_repeat k
            (frequency [ (7, return (Push p)); (1, map (fun p -> Push p) special) ])
        );
        (2, return (List.init k (fun _ -> Pop)));
        (2, return (List.concat (List.init k (fun _ -> [ Pop; Push_min ]))));
        (1, return (List.init k (fun _ -> Push_min)));
      ]
  in
  Testutil.qtest ~count:300 "int heap = reference heap on runs"
    (Q.make ~print:print_ops (map List.concat (list_size (int_range 1 24) block)))
    matches_reference

(* A fixed cycle of priorities with runs of several lengths, a repeat
   after a drain, both zeros and [infinity]; boxed in a list so that
   passing one allocates nothing. *)
let cycle_prios =
  List.concat_map
    (fun (p, k) -> List.init k (fun _ -> p))
    [
      (1., 5); (2., 1); (1., 3); (0., 2); (-0., 2); (infinity, 4); (3., 17);
      (2., 1); (0.5, 64); (4., 1); (4., 9);
    ]

(* [n] pop-then-push steps through [ps] (restarting from [all]); the sum
   of the popped values. *)
let rec cycle q n ps all acc =
  if n = 0 then acc
  else
    match ps with
    | [] -> cycle q n all all acc
    | p :: rest ->
        let v = P.pop_min q in
        P.add q ~priority:p n;
        cycle q (n - 1) rest all (acc + v)

let rec fill q i ps =
  if i < 256 then
    match ps with
    | [] -> fill q i cycle_prios
    | p :: rest ->
        P.add q ~priority:p i;
        fill q (i + 1) rest

let rec drain_sum q acc =
  if P.is_empty q then acc else drain_sum q (acc + P.pop_min q)

(* Fill to 256 live elements, cycle, drain. *)
let pass q =
  fill q 0 cycle_prios;
  drain_sum q (cycle q 20_000 cycle_prios cycle_prios 0)

(* The second pass, with every array grown by the first, allocates
   nothing: no minor words, and no major words either, where a grown
   array longer than the minor heap's limit would go. ([Gc.counters]
   counts those at once; [Gc.quick_stat] counts them only at a major
   slice.) *)
let test_pqueue_steady_state_allocates_nothing () =
  let q = P.create () in
  let warm = pass q in
  let _, _, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let again = pass q in
  let minor = Gc.minor_words () -. minor0 in
  let _, _, major1 = Gc.counters () in
  let major = major1 -. major0 in
  Alcotest.(check int) "same answers" warm again;
  Alcotest.(check (float 0.)) "minor words after warm-up" 0. minor;
  Alcotest.(check (float 0.)) "major words after warm-up" 0. major

let test_single_flow_timing () =
  let eng = E.create ~capacities:[| 100. |] in
  let done_at = ref 0. in
  E.start_flow eng ~bytes:1000. ~hops:[ 0 ] ~cap:1000. (fun () ->
      done_at := E.now eng);
  E.run eng;
  Alcotest.(check (float 1e-6)) "capacity bound" 10. !done_at

let test_cap_bound () =
  let eng = E.create ~capacities:[| 1000. |] in
  let done_at = ref 0. in
  E.start_flow eng ~bytes:1000. ~hops:[ 0 ] ~cap:10. (fun () ->
      done_at := E.now eng);
  E.run eng;
  Alcotest.(check (float 1e-6)) "per-flow cap" 100. !done_at

let test_fair_sharing () =
  (* Two identical flows on one resource take twice as long as one. *)
  let eng = E.create ~capacities:[| 100. |] in
  let times = ref [] in
  for _ = 1 to 2 do
    E.start_flow eng ~bytes:500. ~hops:[ 0 ] ~cap:1000. (fun () ->
        times := E.now eng :: !times)
  done;
  E.run eng;
  List.iter
    (fun t -> Alcotest.(check (float 1e-4)) "shared" 10. t)
    !times

let test_staggered_flows () =
  (* Flow B starts halfway through flow A: A runs alone (rate 100) for 5s,
     then both share (50 each). A has 0 left at t=10... A: 1000 bytes: 5s
     alone = 500, then 500 at 50 = 10s more -> done at 15. B: 500 bytes at
     50 -> 10s, but after A finishes B gets 100 again. B remaining at t=15:
     500 - 10*50 = 0 -> B also ~15. *)
  let eng = E.create ~capacities:[| 100. |] in
  let a_done = ref 0. and b_done = ref 0. in
  E.start_flow eng ~bytes:1000. ~hops:[ 0 ] ~cap:1000. (fun () ->
      a_done := E.now eng);
  E.after eng 5. (fun () ->
      E.start_flow eng ~bytes:500. ~hops:[ 0 ] ~cap:1000. (fun () ->
          b_done := E.now eng));
  E.run eng;
  Alcotest.(check (float 1e-3)) "A at 15" 15. !a_done;
  Alcotest.(check (float 1e-3)) "B at 15" 15. !b_done

let test_multi_hop_bottleneck () =
  (* A flow crossing a fast and a slow resource is bound by the slow one. *)
  let eng = E.create ~capacities:[| 1000.; 10. |] in
  let done_at = ref 0. in
  E.start_flow eng ~bytes:100. ~hops:[ 0; 1 ] ~cap:1000. (fun () ->
      done_at := E.now eng);
  E.run eng;
  Alcotest.(check (float 1e-6)) "bottleneck" 10. !done_at

let test_callbacks_ordered () =
  let eng = E.create ~capacities:[| 1. |] in
  let log = ref [] in
  E.at eng 2. (fun () -> log := 2 :: !log);
  E.at eng 1. (fun () -> log := 1 :: !log);
  E.after eng 3. (fun () -> log := 3 :: !log);
  E.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_zero_byte_flow () =
  let eng = E.create ~capacities:[| 1. |] in
  let fired = ref false in
  E.start_flow eng ~bytes:0. ~hops:[ 0 ] ~cap:1. (fun () -> fired := true);
  E.run eng;
  Alcotest.(check bool) "completes" true !fired;
  Alcotest.(check int) "no active flows" 0 (E.active_flows eng)

(* Churn test for the lazy rescheduling: N staggered flows on one resource
   must finish exactly when the fluid model says (total work divided by
   capacity once saturated). *)
let prop_churn_conserves_work =
  Testutil.qtest ~count:30 "fluid model conserves work"
    Q.(list_of_size (Q.Gen.int_range 1 10) (Q.int_range 1 20))
    (fun sizes ->
      let eng = E.create ~capacities:[| 10. |] in
      let last = ref 0. in
      List.iteri
        (fun i bytes ->
          E.after eng (float_of_int i) (fun () ->
              E.start_flow eng ~bytes:(float_of_int (bytes * 100)) ~hops:[ 0 ]
                ~cap:1000. (fun () -> last := E.now eng)))
        sizes;
      E.run eng;
      (* Lower bound: total bytes / capacity. Upper bound: that plus the
         last injection time. *)
      let total = float_of_int (100 * List.fold_left ( + ) 0 sizes) in
      let lo = total /. 10. in
      let hi = lo +. float_of_int (List.length sizes) +. 1e-6 in
      !last >= lo -. 1e-4 && !last <= hi)

(* ---- Input validation ---------------------------------------------------- *)

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let check_rejects name expect f =
  match f () with
  | () -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument msg ->
      if not (contains msg expect) then
        Alcotest.failf "%s: message %S lacks %S" name msg expect

(* Each call must fail at once, naming the bad value: NaN or infinite
   bytes used to make [run] spin forever on an event that never settles. *)
let test_rejects_non_finite () =
  let eng () = E.create ~capacities:[| 100. |] in
  check_rejects "bytes nan" "bytes is NaN" (fun () ->
      E.start_flow (eng ()) ~bytes:nan ~hops:[ 0 ] ~cap:1. ignore);
  check_rejects "bytes inf" "bytes inf" (fun () ->
      E.start_flow (eng ()) ~bytes:infinity ~hops:[ 0 ] ~cap:1. ignore);
  check_rejects "cap nan" "cap is NaN" (fun () ->
      E.start_flow (eng ()) ~bytes:1. ~hops:[ 0 ] ~cap:nan ignore);
  check_rejects "cap zero" "cap 0" (fun () ->
      E.start_flow (eng ()) ~bytes:1. ~hops:[ 0 ] ~cap:0. ignore);
  check_rejects "capacity nan" "resource 1 is NaN" (fun () ->
      ignore (E.create ~capacities:[| 1.; nan |]));
  check_rejects "capacity zero" "capacity 0 of resource 0" (fun () ->
      ignore (E.create ~capacities:[| 0. |]));
  check_rejects "bad hop" "bad resource id 3" (fun () ->
      E.start_flow (eng ()) ~bytes:1. ~hops:[ 3 ] ~cap:1. ignore);
  (* A rejected flow leaves no trace: the engine still runs to empty. *)
  let e = eng () in
  (try E.start_flow e ~bytes:nan ~hops:[ 0 ] ~cap:1. ignore
   with Invalid_argument _ -> ());
  E.run e;
  Alcotest.(check int) "no flow entered" 0 (E.active_flows e);
  Alcotest.(check int) "no event" 0 (E.events_processed e)

let test_pqueue_pop_min () =
  let q = P.create () in
  List.iter (fun (p, v) -> P.add q ~priority:p v) [ (2., 2); (1., 1) ];
  Alcotest.(check (float 0.)) "min priority" 1. (P.min_priority q);
  Alcotest.(check int) "pop_min" 1 (P.pop_min q);
  Alcotest.(check int) "pop_min" 2 (P.pop_min q);
  Alcotest.check_raises "empty" (Invalid_argument "Pqueue.pop_min: empty queue")
    (fun () -> ignore (P.pop_min q))

(* ---- Packed completions ------------------------------------------------ *)

let test_pack_bounds () =
  let top_slot = E.max_flow_slots - 1 and top_version = E.max_flow_version in
  List.iter
    (fun (slot, version) ->
      let ev = E.pack_flow_done ~slot ~version in
      Alcotest.(check bool) "non-negative" true (ev >= 0);
      Alcotest.(check (pair int int))
        (Printf.sprintf "round trip %d %d" slot version)
        (slot, version) (E.unpack_flow_done ev))
    [
      (0, 0); (0, top_version); (top_slot, 0); (top_slot, top_version);
      (1, 1); (top_slot - 1, top_version - 1);
    ];
  (* Neighbours at the edges pack apart: no field spills into the other. *)
  let distinct =
    List.sort_uniq compare
      (List.map
         (fun (slot, version) -> E.pack_flow_done ~slot ~version)
         [ (0, 1); (1, 0); (top_slot, 0); (0, top_version); (top_slot, 1) ])
  in
  Alcotest.(check int) "distinct events" 5 (List.length distinct);
  check_rejects "slot past the limit"
    (Printf.sprintf "limit of %d slots" E.max_flow_slots) (fun () ->
      ignore (E.pack_flow_done ~slot:E.max_flow_slots ~version:0));
  check_rejects "negative slot" "slot -1" (fun () ->
      ignore (E.pack_flow_done ~slot:(-1) ~version:0));
  check_rejects "version past the limit"
    (Printf.sprintf "limit of %d versions" E.max_flow_version) (fun () ->
      ignore (E.pack_flow_done ~slot:0 ~version:(E.max_flow_version + 1)));
  check_rejects "not a completion" "not a completion" (fun () ->
      ignore (E.unpack_flow_done 1))

(* Every round leaves a stale completion event behind its slot: flows A
   (1 B) and B (3 B) share a 1 B/s resource, so A finishes at 2 s; B
   speeds up and is rescheduled from 6 s to 4 s. At 5 s flow C (1.5 B)
   takes the slot B freed, the top of the free stack. B's stale event
   at 6 s must not match C: if it did, C would be caught up with 0.5 B
   left, under the one-byte residue, and finish at 6 s instead of 6.5 s.
   A thousand rounds reuse the two slots about 3,000 times. *)
let test_stale_events_never_match () =
  let eng = E.create ~capacities:[| 1. |] in
  let rounds = 1000 in
  let c_done = Array.make rounds nan in
  for i = 0 to rounds - 1 do
    let t0 = 10. *. float_of_int i in
    E.at eng t0 (fun () ->
        E.start_flow eng ~bytes:1. ~hops:[ 0 ] ~cap:1e9 ignore;
        E.start_flow eng ~bytes:3. ~hops:[ 0 ] ~cap:1e9 ignore);
    E.at eng (t0 +. 5.) (fun () ->
        E.start_flow eng ~bytes:1.5 ~hops:[ 0 ] ~cap:1e9 (fun () ->
            c_done.(i) <- E.now eng))
  done;
  E.run eng;
  Array.iteri
    (fun i t ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "round %d" i)
        ((10. *. float_of_int i) +. 6.5)
        t)
    c_done;
  (* Per round: two callbacks, A's event, B's two and C's, and B's stale
     one. *)
  Alcotest.(check int) "events" (6 * rounds) (E.events_processed eng)

(* A fired callback's entry is cleared: the table holds nothing that has
   already run, flow callbacks included. *)
let test_fired_callbacks_dropped () =
  let eng = E.create ~capacities:[| 1. |] in
  let w = Weak.create 2 in
  let[@inline never] arm i schedule =
    let payload = Bytes.make 4096 'x' in
    Weak.set w i (Some payload);
    schedule (fun () -> ignore (Bytes.length payload))
  in
  arm 0 (E.at eng 1.);
  arm 1 (E.start_flow eng ~bytes:1. ~hops:[ 0 ] ~cap:1.);
  E.run eng;
  Gc.full_major ();
  Alcotest.(check (list bool)) "collected" [ false; false ]
    [ Weak.check w 0; Weak.check w 1 ];
  (* The engine itself is still live. *)
  Alcotest.(check int) "events" 2 (E.events_processed eng)

(* ---- Wakes ------------------------------------------------------------- *)

let test_wakes_share_the_order () =
  let eng = E.create ~capacities:[| 100. |] in
  let log = ref [] in
  E.set_wake_handler eng (fun w -> log := Printf.sprintf "w%d" w :: !log);
  E.wake_at eng 1. 1;
  E.at eng 1. (fun () -> log := "c" :: !log);
  E.wake_after eng 1. 2;
  E.start_flow_wake eng ~bytes:100. ~hops:[ 0 ] ~cap:1e9 3;
  E.wake_at eng 0.5 4;
  E.run eng;
  Alcotest.(check (list string)) "time, then creation order"
    [ "w4"; "w1"; "c"; "w2"; "w3" ] (List.rev !log);
  check_rejects "negative wake" "wake -1" (fun () -> E.wake_at eng 2. (-1));
  check_rejects "wake past the limit" "outside" (fun () ->
      E.wake_after eng 0. (E.max_wake + 1));
  let fresh = E.create ~capacities:[| 1. |] in
  E.wake_at fresh 0. 0;
  check_rejects "no handler" "no handler" (fun () -> E.run fresh)

(* ---- Reference-engine differential ------------------------------------ *)

module type ENGINE = sig
  type t

  val create : capacities:float array -> t
  val now : t -> float
  val at : t -> float -> (unit -> unit) -> unit
  val set_capacity : t -> int -> float -> unit

  val start_flow :
    t -> bytes:float -> hops:int list -> cap:float -> (unit -> unit) -> unit

  val run : t -> unit
  val events_processed : t -> int
  val active_flows : t -> int
  val progressing_flows : t -> int
end

(* A flow script: flows started at scripted instants, some of which start
   a follow-up flow from their completion callback (into the slot just
   freed), and capacity changes, each undone two seconds later. *)
type flow_spec = {
  f_at : float;
  f_bytes : float;
  f_hops : int list;
  f_cap : float;
  f_then : (float * int list) option;  (* follow-up bytes and hops *)
}

type script = {
  s_caps : float array;
  s_flows : flow_spec list;
  s_changes : (float * int * float) list;  (* time, resource, capacity *)
}

type outcome = {
  o_done : float array;  (* per flow, then per follow-up; nan if never *)
  o_trace : (float * int * int) list;
      (* (now, active, progressing) at every callback, in firing order *)
  o_events : int;
  o_active : int;
}

module Script (Eng : ENGINE) = struct
  let run s =
    let eng = Eng.create ~capacities:(Array.copy s.s_caps) in
    let n = List.length s.s_flows in
    let o_done = Array.make (2 * n) nan in
    let trace = ref [] in
    let note () =
      trace :=
        (Eng.now eng, Eng.active_flows eng, Eng.progressing_flows eng)
        :: !trace
    in
    let start id ~bytes ~hops ~cap k =
      Eng.start_flow eng ~bytes ~hops ~cap (fun () ->
          o_done.(id) <- Eng.now eng;
          note ();
          k ())
    in
    List.iteri
      (fun i f ->
        Eng.at eng f.f_at (fun () ->
            start i ~bytes:f.f_bytes ~hops:f.f_hops ~cap:f.f_cap (fun () ->
                match f.f_then with
                | None -> ()
                | Some (bytes, hops) ->
                    start (n + i) ~bytes ~hops ~cap:f.f_cap ignore);
            note ()))
      s.s_flows;
    List.iter
      (fun (time, r, c) ->
        Eng.at eng time (fun () ->
            Eng.set_capacity eng r c;
            note ()))
      s.s_changes;
    Eng.run eng;
    {
      o_done;
      o_trace = List.rev !trace;
      o_events = Eng.events_processed eng;
      o_active = Eng.active_flows eng;
    }
end

module Run_new = Script (E)
module Run_ref = Script (Engine_ref)

let gen_script =
  let open Q.Gen in
  int_range 1 4 >>= fun nres ->
  let hops = list_size (int_range 0 3) (int_range 0 (nres - 1)) in
  let bytes = oneofl [ 0.; 100.; 500.; 1000.; 1234.5; 4096. ] in
  let flow =
    map4
      (fun f_at (f_bytes, f_hops) f_cap f_then ->
        { f_at; f_bytes; f_hops; f_cap; f_then })
      (oneofl [ 0.; 0.; 1.; 2.5; 4. ])
      (pair bytes hops)
      (oneofl [ 50.; 200.; 1e9 ])
      (opt (pair bytes hops))
  in
  let change =
    triple (oneofl [ 0.5; 1.; 3.; 6. ]) (int_range 0 (nres - 1))
      (oneofl [ 0.; 50.; 400. ])
  in
  map3
    (fun caps s_flows changes ->
      let s_caps = Array.of_list caps in
      {
        s_caps;
        s_flows;
        s_changes =
          changes
          @ List.map (fun (time, r, _) -> (time +. 2., r, s_caps.(r))) changes;
      })
    (list_repeat nres (oneofl [ 100.; 250.; 1000. ]))
    (list_size (int_range 1 12) flow)
    (list_size (int_range 0 3) change)

let print_script s =
  let hops l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "caps [%s]\n%s%s"
    (String.concat "; " (Array.to_list (Array.map string_of_float s.s_caps)))
    (String.concat ""
       (List.map
          (fun f ->
            Printf.sprintf "  at %g: %g B over [%s] cap %g%s\n" f.f_at f.f_bytes
              (hops f.f_hops) f.f_cap
              (match f.f_then with
              | None -> ""
              | Some (b, h) -> Printf.sprintf ", then %g B over [%s]" b (hops h)))
          s.s_flows))
    (String.concat ""
       (List.map
          (fun (time, r, c) -> Printf.sprintf "  at %g: capacity %d := %g\n" time r c)
          s.s_changes))

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_matches_reference =
  Testutil.qtest ~count:500 "slot engine = reference engine, bit for bit"
    (Q.make ~print:print_script gen_script)
    (fun s ->
      let a = Run_new.run s and b = Run_ref.run s in
      let show_done o =
        String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") o))
      in
      if not (Array.for_all2 same_float a.o_done b.o_done) then
        Q.Test.fail_reportf "completion times differ:\n new %s\n ref %s"
          (show_done a.o_done) (show_done b.o_done);
      if a.o_events <> b.o_events then
        Q.Test.fail_reportf "events: new %d, ref %d" a.o_events b.o_events;
      if
        not
          (List.equal
             (fun (t1, a1, p1) (t2, a2, p2) ->
               same_float t1 t2 && a1 = a2 && p1 = p2)
             a.o_trace b.o_trace)
      then Q.Test.fail_reportf "callback traces differ";
      a.o_active = b.o_active)

(* ---- Tie-breaking ------------------------------------------------------ *)

let completion_order ~k ~bytes ~cap ~capacity =
  let eng = E.create ~capacities:[| capacity |] in
  let log = ref [] in
  for i = 0 to k - 1 do
    E.start_flow eng ~bytes ~hops:[ 0 ] ~cap (fun () ->
        log := (i, E.now eng) :: !log)
  done;
  E.run eng;
  List.rev !log

let test_ties_in_start_order () =
  (* Eight flows bound by their cap, started at one instant: one event
     each, created in start order, so they complete together in that
     order. *)
  let log = completion_order ~k:8 ~bytes:1000. ~cap:10. ~capacity:1000. in
  Alcotest.(check (list int)) "start order" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.map fst log);
  List.iter
    (fun (_, t) -> Alcotest.(check (float 0.)) "one instant" 100. t)
    log;
  (* Sharing a bottleneck (exact binary arithmetic): each start slows the
     earlier flows, whose early events fire at 1, 2 and 3 s and reschedule
     them for 4 s; the last flow keeps the 4 s event it got at its start,
     the oldest of the four. *)
  Alcotest.(check (list (pair int (float 0.))))
    "shared bottleneck" [ (3, 4.); (0, 4.); (1, 4.); (2, 4.) ]
    (completion_order ~k:4 ~bytes:1024. ~cap:1e9 ~capacity:1024.)

let prop_runs_repeat =
  Testutil.qtest ~count:100 "identical runs give identical traces"
    (Q.make ~print:print_script gen_script)
    (fun s ->
      let a = Run_new.run s and b = Run_new.run s in
      Array.for_all2 same_float a.o_done b.o_done
      && a.o_trace = b.o_trace && a.o_events = b.o_events)

let () =
  Alcotest.run "sim-engine"
    [
      ( "pqueue",
        [
          Testutil.tc "order" test_pqueue_order;
          prop_pqueue_sorts;
          prop_pqueue_matches_reference;
          prop_pqueue_runs_match_reference;
          Testutil.tc "steady state allocates nothing"
            test_pqueue_steady_state_allocates_nothing;
        ] );
      ( "flows",
        [
          Testutil.tc "single flow" test_single_flow_timing;
          Testutil.tc "per-flow cap" test_cap_bound;
          Testutil.tc "fair sharing" test_fair_sharing;
          Testutil.tc "staggered" test_staggered_flows;
          Testutil.tc "multi-hop" test_multi_hop_bottleneck;
          Testutil.tc "zero bytes" test_zero_byte_flow;
          prop_churn_conserves_work;
        ] );
      ( "callbacks",
        [
          Testutil.tc "ordering" test_callbacks_ordered;
          Testutil.tc "wakes share the order" test_wakes_share_the_order;
        ] );
      ( "completions",
        [
          Testutil.tc "pack bounds" test_pack_bounds;
          Testutil.tc "stale events never match" test_stale_events_never_match;
          Testutil.tc "fired callbacks dropped" test_fired_callbacks_dropped;
        ] );
      ( "validation",
        [
          Testutil.tc "non-finite inputs rejected" test_rejects_non_finite;
          Testutil.tc "pqueue pop_min" test_pqueue_pop_min;
        ] );
      ("reference", [ prop_matches_reference ]);
      ( "tie-breaking",
        [ Testutil.tc "start order" test_ties_in_start_order; prop_runs_repeat ]
      );
    ]

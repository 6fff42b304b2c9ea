(* Fluid-flow discrete-event engine. Each active flow progresses at
   min(cap, min_r capacity(r)/nflows(r)); whenever a flow starts or
   completes, flows sharing a resource with it catch up their remaining
   bytes and get a new rate.

   Completion events are rescheduled lazily: when a flow's rate drops, its
   already-scheduled (now too early) completion event is left in place —
   firing it just catches the flow up and schedules a fresh event at the
   then-current rate. Only a rate increase forces an immediate earlier
   event. This collapses any number of intermediate rate changes into at
   most one extra firing, keeping the event count linear in the number of
   flows even when thousands share a resource (e.g. a 256-GPU AllToAll all
   hammering the same NICs). Stale events are skipped via a per-slot
   version counter.

   Layout. A flow lives in a slot: an index into parallel arrays, with
   its float state in unboxed float arrays, so settling and re-rating a
   flow writes no boxed floats. Finished slots are recycled through a
   free stack; versions only ever increase, so a stale completion event
   never matches a slot's later occupant, and the arrays grow with the
   number of concurrent flows, not total flows. Each resource keeps the
   slots crossing it in a dense vector in start order; a finishing flow
   is removed by an ordered shift.

   Events. The queue holds ints, so pushing and popping one moves no
   pointer. The low two bits tag the kind:
   - a flow's completion packs (slot, version), the slot in the low
     [slot_bits] of the payload;
   - a callback from [at]/[after] (or a closure-completed flow) is an
     index into a table of closures, recycled through a free stack; the
     entry is cleared as it is taken, so the table holds no closure that
     has already run;
   - a wake is the client's own int, handed to the one wake handler.
   A flow's completion action is itself a callback or a wake code, kept
   in an int array. *)

let tag_flow = 0
let tag_callback = 1
let tag_wake = 2
let slot_bits = 24
let max_flow_slots = 1 lsl slot_bits

(* Payloads are non-negative and sit above the two tag bits, so a version
   takes what is left of a non-negative int after the slot. *)
let max_flow_version = (1 lsl (Sys.int_size - 3 - slot_bits)) - 1
let max_wake = max_int lsr 2

let[@inline] pack slot version =
  ((slot lor (version lsl slot_bits)) lsl 2) lor tag_flow

let pack_flow_done ~slot ~version =
  if slot < 0 || slot >= max_flow_slots then
    invalid_arg
      (Printf.sprintf
         "Engine.pack_flow_done: slot %d outside the packed-event limit of %d \
          slots"
         slot max_flow_slots);
  if version < 0 || version > max_flow_version then
    invalid_arg
      (Printf.sprintf
         "Engine.pack_flow_done: version %d outside the packed-event limit of \
          %d versions"
         version max_flow_version);
  pack slot version

let[@inline] flow_slot ev = (ev lsr 2) land (max_flow_slots - 1)
let[@inline] flow_version ev = ev lsr (2 + slot_bits)

let unpack_flow_done ev =
  if ev < 0 || ev land 3 <> tag_flow then
    invalid_arg
      (Printf.sprintf "Engine.unpack_flow_done: %d is not a completion" ev);
  (flow_slot ev, flow_version ev)

(* An all-float record, so advancing the clock writes an unboxed float. *)
type clock = { mutable now : float }

type t = {
  capacities : float array;
  counts : int array;  (* active flows per resource, one per hop listed *)
  shares : float array;  (* capacity / count: the equal share per resource *)
  sharers : int array array;
      (* resource -> slots crossing it, in start order, one entry per hop
         listed; the used prefix is [counts] long *)
  clock : clock;
  events : Pqueue.t;
  mutable callbacks : (unit -> unit) array;
  mutable cb_free : int array;  (* stack of recycled callback indices *)
  mutable cb_nfree : int;
  mutable cb_used : int;  (* indices handed out so far *)
  mutable wake : int -> unit;
  (* Per-slot flow state. *)
  mutable remaining : float array;
  mutable rate : float array;
  mutable last_update : float array;
  mutable scheduled_eta : float array;
  mutable cap : float array;
  mutable version : int array;
  mutable visited : int array;  (* stamp of the last pass that visited it *)
  mutable hops : int list array;
  mutable on_complete : int array;  (* callback or wake code *)
  mutable free : int array;  (* stack of recycled slots *)
  mutable nfree : int;
  mutable nslots : int;  (* slots handed out so far *)
  mutable pass : int;
  mutable active : int;
  mutable progressing : int;  (* active flows with a positive rate *)
  mutable processed : int;
  mutable stopped : bool;
}

let no_callback () = ()

let no_wake _ = invalid_arg "Engine.run: a wake fired but no handler is set"

let create ~capacities =
  Array.iteri
    (fun r c ->
      if Float.is_nan c then
        invalid_arg
          (Printf.sprintf "Engine.create: capacity of resource %d is NaN" r);
      if c <= 0. then
        invalid_arg
          (Printf.sprintf "Engine.create: capacity %g of resource %d <= 0" c r))
    capacities;
  let n = Array.length capacities and slots = 16 in
  {
    capacities;
    counts = Array.make n 0;
    shares = Array.make n 0.;
    sharers = Array.make n [||];
    clock = { now = 0. };
    events = Pqueue.create ();
    callbacks = Array.make 16 no_callback;
    cb_free = Array.make 16 0;
    cb_nfree = 0;
    cb_used = 0;
    wake = no_wake;
    remaining = Array.make slots 0.;
    rate = Array.make slots 0.;
    last_update = Array.make slots 0.;
    scheduled_eta = Array.make slots 0.;
    cap = Array.make slots 0.;
    version = Array.make slots 0;
    visited = Array.make slots 0;
    hops = Array.make slots [];
    on_complete = Array.make slots 0;
    free = Array.make slots 0;
    nfree = 0;
    nslots = 0;
    pass = 0;
    active = 0;
    progressing = 0;
    processed = 0;
    stopped = false;
  }

let now t = t.clock.now

let set_wake_handler t f = t.wake <- f

(* Doubles an array (the per-resource vectors start empty). *)
let grow a fill =
  let a' = Array.make (max 4 (2 * Array.length a)) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* --- Callbacks and wakes ---------------------------------------------- *)

(* The event code of a stored closure. *)
let callback_code t f =
  let i =
    if t.cb_nfree > 0 then begin
      t.cb_nfree <- t.cb_nfree - 1;
      t.cb_free.(t.cb_nfree)
    end
    else begin
      if t.cb_used = Array.length t.callbacks then begin
        t.callbacks <- grow t.callbacks no_callback;
        t.cb_free <- grow t.cb_free 0
      end;
      let i = t.cb_used in
      t.cb_used <- i + 1;
      i
    end
  in
  t.callbacks.(i) <- f;
  (i lsl 2) lor tag_callback

let wake_code name w =
  if w < 0 || w > max_wake then
    invalid_arg
      (Printf.sprintf "Engine.%s: wake %d outside [0, %d]" name w max_wake);
  (w lsl 2) lor tag_wake

(* Runs a callback or wake code; a callback's entry is cleared and its
   index recycled before the closure runs. *)
let fire t code =
  let i = code lsr 2 in
  if code land 3 = tag_callback then begin
    let f = t.callbacks.(i) in
    t.callbacks.(i) <- no_callback;
    t.cb_free.(t.cb_nfree) <- i;
    t.cb_nfree <- t.cb_nfree + 1;
    f ()
  end
  else t.wake i

let check_time name t time =
  if Float.is_nan time then invalid_arg ("Engine." ^ name ^ ": time is NaN");
  if time < t.clock.now -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.%s: time %g is in the past (now = %g)" name time
         t.clock.now)

let check_delay name t delay =
  if Float.is_nan delay then invalid_arg ("Engine." ^ name ^ ": delay is NaN");
  if delay < 0. then
    invalid_arg
      (Printf.sprintf "Engine.%s: negative delay %g (now = %g)" name delay
         t.clock.now)

(* A time a rounding error in the past is lifted to the clock, so the
   clock never moves back. *)
let[@inline] push t time code =
  Pqueue.add t.events ~priority:(Float.max time t.clock.now) code

let at t time f =
  check_time "at" t time;
  push t time (callback_code t f)

let after t delay f =
  check_delay "after" t delay;
  push t (t.clock.now +. delay) (callback_code t f)

let wake_at t time w =
  check_time "wake_at" t time;
  push t time (wake_code "wake_at" w)

let wake_after t delay w =
  check_delay "wake_after" t delay;
  push t (t.clock.now +. delay) (wake_code "wake_after" w)

(* --- Slots ------------------------------------------------------------ *)

(* A recycled slot whose versions are spent is retired, never reused:
   its next occupant could alias one of its stale completion events. *)
let rec alloc_slot t =
  if t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    let s = t.free.(t.nfree) in
    if t.version.(s) < max_flow_version then s else alloc_slot t
  end
  else begin
    if t.nslots = max_flow_slots then
      invalid_arg
        (Printf.sprintf
           "Engine.start_flow: more than %d concurrent flows (the \
            packed-event slot limit)"
           max_flow_slots);
    if t.nslots = Array.length t.remaining then begin
      t.remaining <- grow t.remaining 0.;
      t.rate <- grow t.rate 0.;
      t.last_update <- grow t.last_update 0.;
      t.scheduled_eta <- grow t.scheduled_eta 0.;
      t.cap <- grow t.cap 0.;
      t.version <- grow t.version 0;
      t.visited <- grow t.visited 0;
      t.hops <- grow t.hops [];
      t.on_complete <- grow t.on_complete 0;
      t.free <- grow t.free 0
    end;
    let s = t.nslots in
    t.nslots <- s + 1;
    s
  end

(* The slot's version is left as is: the event that finished the flow
   carried the current version, and every other pending event for the
   slot an older one, so none matches until the next occupant schedules
   a completion under a fresh version. *)
let free_slot t s =
  t.hops.(s) <- [];
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

(* --- Per-resource vectors --------------------------------------------- *)

let set_count t h n =
  t.counts.(h) <- n;
  t.shares.(h) <- t.capacities.(h) /. float_of_int n

let push_sharer t h s =
  let n = t.counts.(h) in
  if n = Array.length t.sharers.(h) then t.sharers.(h) <- grow t.sharers.(h) 0;
  t.sharers.(h).(n) <- s;
  set_count t h (n + 1)

(* Drops the first entry of [s]: a flow listing a resource twice has two
   entries, and leaves through two calls. *)
let remove_sharer t h s =
  let v = t.sharers.(h) and n = t.counts.(h) in
  let i = ref 0 in
  while v.(!i) <> s do
    incr i
  done;
  Array.blit v (!i + 1) v !i (n - !i - 1);
  set_count t h (n - 1)

let rec enter t s = function
  | [] -> ()
  | h :: tl ->
      push_sharer t h s;
      enter t s tl

let rec leave t s = function
  | [] -> ()
  | h :: tl ->
      remove_sharer t h s;
      leave t s tl

(* --- Flow arithmetic --------------------------------------------------- *)

let[@inline] rate_of t s =
  let acc = ref t.cap.(s) and l = ref t.hops.(s) in
  while
    match !l with
    | [] -> false
    | h :: tl ->
        let share = t.shares.(h) in
        if share <= !acc then acc := share;
        l := tl;
        true
  do
    ()
  done;
  !acc

(* Bring a flow's [remaining] up to date with the current time, at the
   rate it has had since [last_update]. *)
let catch_up t s =
  let now = t.clock.now in
  let dt = now -. t.last_update.(s) in
  if dt > 0. then begin
    let r = t.remaining.(s) -. (t.rate.(s) *. dt) in
    t.remaining.(s) <- (if r > 0. then r else 0.);
    t.last_update.(s) <- now
  end

(* A stalled flow (some resource degraded to zero capacity) gets no
   completion event at all — scheduling one at eta = infinity would fire a
   useless event that reschedules itself forever. A later capacity increase
   revives it through [rerate]. *)
let schedule_completion t s =
  let version = t.version.(s) + 1 in
  if version > max_flow_version then
    invalid_arg
      (Printf.sprintf
         "Engine: flow slot %d rescheduled past the packed-event limit of %d \
          versions"
         s max_flow_version);
  t.version.(s) <- version;
  if t.rate.(s) > 0. then begin
    let eta = t.clock.now +. (t.remaining.(s) /. t.rate.(s)) in
    t.scheduled_eta.(s) <- eta;
    Pqueue.add t.events ~priority:eta (pack s version)
  end
  else t.scheduled_eta.(s) <- infinity

(* Set a flow's rate, keeping [progressing] in step. *)
let[@inline] set_rate t s r =
  let old = t.rate.(s) in
  if old > 0. && not (r > 0.) then t.progressing <- t.progressing - 1
  else if r > 0. && not (old > 0.) then t.progressing <- t.progressing + 1;
  t.rate.(s) <- r

(* Give a flow its rate under the current counts. After a change, only
   reschedule when the flow now finishes earlier than its pending event;
   otherwise let the pending event fire early and resynchronize then. *)
let rerate t s =
  let r = rate_of t s in
  if r <> t.rate.(s) then begin
    set_rate t s r;
    if r > 0. then begin
      let eta = t.clock.now +. (t.remaining.(s) /. r) in
      if eta < t.scheduled_eta.(s) -. 1e-15 then schedule_completion t s
    end
  end

(* The one pass per population or capacity change: every flow on
   resource [h] not yet visited by pass [pass] is caught up at its stored
   rate, then re-rated. Catching up reads only the flow's own stored rate,
   so it may follow the count update; visiting each flow once, in start
   order, fixes the order of any reschedules. *)
let visit_resource t pass h =
  let v = t.sharers.(h) in
  for i = 0 to t.counts.(h) - 1 do
    let s = v.(i) in
    if t.visited.(s) <> pass then begin
      t.visited.(s) <- pass;
      catch_up t s;
      rerate t s
    end
  done

let new_pass t =
  t.pass <- t.pass + 1;
  t.pass

let rec visit_hops t pass = function
  | [] -> ()
  | h :: tl ->
      visit_resource t pass h;
      visit_hops t pass tl

(* Re-rate a resource mid-simulation (fault injection: link degradation,
   failure, restore). Flows crossing it are settled at the current time
   and re-rated through the ordinary lazy-rescheduling path — a capacity
   drop leaves pending completion events to fire early and resynchronize;
   a capacity raise forces earlier events where needed. *)
let set_capacity t rid capacity =
  if rid < 0 || rid >= Array.length t.capacities then
    invalid_arg
      (Printf.sprintf "Engine.set_capacity: bad resource id %d (have %d)" rid
         (Array.length t.capacities));
  if Float.is_nan capacity || capacity < 0. then
    invalid_arg
      (Printf.sprintf "Engine.set_capacity: bad capacity %g for resource %d"
         capacity rid);
  if capacity <> t.capacities.(rid) then begin
    t.capacities.(rid) <- capacity;
    set_count t rid t.counts.(rid);
    visit_resource t (new_pass t) rid
  end

let capacity t rid =
  if rid < 0 || rid >= Array.length t.capacities then
    invalid_arg
      (Printf.sprintf "Engine.capacity: bad resource id %d (have %d)" rid
         (Array.length t.capacities));
  t.capacities.(rid)

let rec check_hops t = function
  | [] -> ()
  | h :: tl ->
      if h < 0 || h >= Array.length t.capacities then
        invalid_arg
          (Printf.sprintf "Engine.start_flow: bad resource id %d (have %d)" h
             (Array.length t.capacities));
      check_hops t tl

(* Run before a slot or a callback entry is taken, so a rejected flow
   leaves no trace. *)
let check_flow t ~bytes ~hops ~cap =
  if Float.is_nan bytes then invalid_arg "Engine.start_flow: bytes is NaN";
  if bytes = infinity then
    invalid_arg
      (Printf.sprintf "Engine.start_flow: bytes %g never completes" bytes);
  if Float.is_nan cap then invalid_arg "Engine.start_flow: cap is NaN";
  if cap <= 0. then
    invalid_arg (Printf.sprintf "Engine.start_flow: cap %g <= 0" cap);
  check_hops t hops

let launch t ~bytes ~hops ~cap s code =
  t.remaining.(s) <- (if bytes > 0. then bytes else 0.);
  t.rate.(s) <- 0.;
  t.last_update.(s) <- t.clock.now;
  t.scheduled_eta.(s) <- infinity;
  t.cap.(s) <- cap;
  t.hops.(s) <- hops;
  t.on_complete.(s) <- code;
  t.active <- t.active + 1;
  enter t s hops;
  (* The new flow takes its final rate before the pass and is marked
     visited, so the pass skips it; its one completion event is scheduled
     after the pass. *)
  set_rate t s (rate_of t s);
  let pass = new_pass t in
  t.visited.(s) <- pass;
  visit_hops t pass hops;
  schedule_completion t s

let start_flow t ~bytes ~hops ~cap on_complete =
  check_flow t ~bytes ~hops ~cap;
  let s = alloc_slot t in
  launch t ~bytes ~hops ~cap s (callback_code t on_complete)

let start_flow_wake t ~bytes ~hops ~cap w =
  check_flow t ~bytes ~hops ~cap;
  let code = wake_code "start_flow_wake" w in
  launch t ~bytes ~hops ~cap (alloc_slot t) code

let finish_flow t s =
  let hops = t.hops.(s) and code = t.on_complete.(s) in
  leave t s hops;
  t.active <- t.active - 1;
  if t.rate.(s) > 0. then t.progressing <- t.progressing - 1;
  free_slot t s;
  visit_hops t (new_pass t) hops;
  fire t code

(* Completion times are computed as remaining/rate, so a tiny float residue
   can survive; anything below one byte is considered delivered. *)
let residue = 1.0

let flow_done t ev =
  let slot = flow_slot ev in
  if t.version.(slot) = flow_version ev then begin
    catch_up t slot;
    if t.remaining.(slot) <= residue then finish_flow t slot
    else schedule_completion t slot
  end

let stop t = t.stopped <- true

let run t =
  t.stopped <- false;
  while (not t.stopped) && not (Pqueue.is_empty t.events) do
    let time = Pqueue.min_priority t.events in
    let ev = Pqueue.pop_min t.events in
    if time > t.clock.now then t.clock.now <- time;
    t.processed <- t.processed + 1;
    if ev land 3 = tag_flow then flow_done t ev else fire t ev
  done

let events_processed t = t.processed

let active_flows t = t.active

let progressing_flows t = t.progressing

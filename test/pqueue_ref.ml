(* The generic swap-based heap the engine and the scheduler used before
   their events and instruction ids became int payloads, kept unchanged
   as the reference the int heap ([Msccl_sim.Pqueue]) is tested against
   and the heap of the engine and scheduler references. *)

(* Array-based binary min-heap in structure-of-arrays form: priorities
   live in a flat float array (unboxed), so sift comparisons touch no
   pointers and pushes allocate nothing. The heap sits on the hot path of
   both the discrete-event engine (every event) and the scheduler (every
   instruction), where the previous one-record-per-entry layout cost an
   allocation per push and a pointer chase per comparison. *)

type 'a t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 16

let create () =
  {
    prio = Array.make initial_capacity 0.;
    seq = Array.make initial_capacity 0;
    values = [||];  (* allocated lazily: we need a dummy 'a to fill with *)
    size = 0;
    next_seq = 0;
  }

let length t = t.size

let is_empty t = t.size = 0

let lt t i j =
  t.prio.(i) < t.prio.(j)
  || (t.prio.(i) = t.prio.(j) && t.seq.(i) < t.seq.(j))

let swap t i j =
  let p = t.prio.(i) in
  t.prio.(i) <- t.prio.(j);
  t.prio.(j) <- p;
  let s = t.seq.(i) in
  t.seq.(i) <- t.seq.(j);
  t.seq.(j) <- s;
  let v = t.values.(i) in
  t.values.(i) <- t.values.(j);
  t.values.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && lt t l !smallest then smallest := l;
  if r < t.size && lt t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let ensure_room t value =
  let cap = Array.length t.prio in
  if t.size = cap then begin
    let cap' = 2 * cap in
    let prio = Array.make cap' 0. in
    Array.blit t.prio 0 prio 0 t.size;
    t.prio <- prio;
    let seq = Array.make cap' 0 in
    Array.blit t.seq 0 seq 0 t.size;
    t.seq <- seq;
    let values = Array.make cap' value in
    Array.blit t.values 0 values 0 t.size;
    t.values <- values
  end
  else if Array.length t.values < cap then begin
    (* First push: materialize the value array with a real element. *)
    let values = Array.make cap value in
    Array.blit t.values 0 values 0 t.size;
    t.values <- values
  end

let add t ~priority value =
  ensure_room t value;
  let i = t.size in
  t.prio.(i) <- priority;
  t.seq.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.values.(i) <- value;
  t.size <- t.size + 1;
  sift_up t i

let min_priority t =
  if t.size = 0 then invalid_arg "Pqueue.min_priority: empty queue";
  t.prio.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let v = t.values.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.prio.(0) <- t.prio.(last);
    t.seq.(0) <- t.seq.(last);
    t.values.(0) <- t.values.(last);
    t.values.(last) <- v;  (* keep the slot occupied, drop nothing live *)
    sift_down t 0
  end;
  v

let pop t =
  if t.size = 0 then None
  else
    let p = t.prio.(0) in
    Some (p, pop_min t)

let peek t = if t.size = 0 then None else Some (t.prio.(0), t.values.(0))

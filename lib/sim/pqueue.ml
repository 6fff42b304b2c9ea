(* A binary min-heap of runs. A run is a FIFO of payloads pushed back to
   back with bit-equal priorities; a push that matches the previous
   push's priority, while that push's run is still in the heap, appends
   to it in O(1), and any other push opens a new run. Runs are numbered
   in creation order and ordered in the heap by (priority, number).

   A run's elements are consecutive pushes, so no other element was
   pushed between two of them: comparing two runs by their numbers
   compares every element of one with every element of the other by
   insertion order. The heap therefore pops the same (priority, value)
   sequence as a heap of single elements, and a run's heap position does
   not change while it drains: popping an element that is not its run's
   last touches no other heap entry. Merging needs equal bits, not [=]:
   [0.] and [-0.] tie but open separate runs, so each element keeps its
   own priority.

   Everything lives in flat arrays of unboxed floats and immediate ints,
   so no operation touches a pointer or a write barrier. A heap entry is
   a whole run: its priority, its number, its front payload and the
   first node of the rest of its FIFO (-1: none), so a run of one costs
   one entry, as an element did in a heap of single elements. Nodes hold
   a payload and the next node; free nodes chain through [next], so once
   the arrays have grown to the live size no operation allocates.

   Appending needs the last run's entry, which sifts move: the heap
   keeps its index, [last_pos], and the sift-down that follows a drained
   run updates it when it moves that entry. (A sift-up only runs for a
   new run, which becomes the last one.) *)

(* An all-float record, so storing the last priority writes an unboxed
   float. *)
type cell = { mutable prio_of_last : float }

type t = {
  (* The heap of runs. *)
  mutable prio : float array;
  mutable seq : int array;  (* run numbers *)
  mutable front : int array;
  mutable rest : int array;
  mutable size : int;
  mutable next_seq : int;
  (* Nodes. *)
  mutable node_value : int array;
  mutable next : int array;
  mutable node_free : int;  (* first free node, -1: none *)
  mutable queued : int;  (* nodes in use: elements behind the fronts *)
  (* The run the last push went to, while it is in the heap: its number
     (-1: none), its heap index, its last node (read only while its
     [rest] is a node) and its priority. *)
  mutable last_seq : int;
  mutable last_pos : int;
  mutable last_tail : int;
  last : cell;
}

let initial_capacity = 16

(* Ids [from, n) chained in order, the last to [-1]. *)
let chain from n =
  Array.init n (fun i -> if i >= from && i < n - 1 then i + 1 else -1)

let create () =
  {
    prio = Array.make initial_capacity 0.;
    seq = Array.make initial_capacity 0;
    front = Array.make initial_capacity 0;
    rest = Array.make initial_capacity 0;
    size = 0;
    next_seq = 0;
    node_value = Array.make initial_capacity 0;
    next = chain 0 initial_capacity;
    node_free = 0;
    queued = 0;
    last_seq = -1;
    last_pos = 0;
    last_tail = 0;
    last = { prio_of_last = 0. };
  }

let length t = t.size + t.queued

let is_empty t = t.size = 0

(* [a] twice as long: its entries, then [fill]'s. *)
let doubled a fill =
  let n = Array.length a in
  let a' = fill (2 * n) in
  Array.blit a 0 a' 0 n;
  a'

let zeros n = Array.make n 0

let grow_heap t =
  let n = t.size in
  let prio = Array.make (2 * n) 0. in
  Array.blit t.prio 0 prio 0 n;
  t.prio <- prio;
  t.seq <- doubled t.seq zeros;
  t.front <- doubled t.front zeros;
  t.rest <- doubled t.rest zeros

(* Called with every node in use: the new ones chain onto the free list. *)
let grow_nodes t =
  let n = Array.length t.next in
  t.node_value <- doubled t.node_value zeros;
  t.next <- doubled t.next (chain n);
  t.node_free <- n

(* Bit equality without a C call: [=] but for the sign of a zero, which
   the reciprocals' infinities tell apart. *)
let[@inline] same_bits a b = a = b && (a <> 0. || 1. /. a = 1. /. b)

(* Appends to the last run, or opens a run and sifts it up. The new run
   carries the largest number so far, so it rises past a parent only on
   a strictly smaller priority. *)
let add t ~priority value =
  if t.last_seq >= 0 && same_bits priority t.last.prio_of_last then begin
    if t.node_free < 0 then grow_nodes t;
    let n = t.node_free in
    let next = t.next in
    t.node_free <- next.(n);
    t.node_value.(n) <- value;
    next.(n) <- -1;
    let pos = t.last_pos in
    if t.rest.(pos) < 0 then t.rest.(pos) <- n else next.(t.last_tail) <- n;
    t.last_tail <- n;
    t.queued <- t.queued + 1
  end
  else begin
    if t.size = Array.length t.prio then grow_heap t;
    let prio = t.prio and seq = t.seq and front = t.front and rest = t.rest in
    let s = t.next_seq in
    t.next_seq <- s + 1;
    let i = ref t.size in
    t.size <- t.size + 1;
    let rising = ref true in
    while !rising && !i > 0 do
      let parent = (!i - 1) / 2 in
      if priority < prio.(parent) then begin
        prio.(!i) <- prio.(parent);
        seq.(!i) <- seq.(parent);
        front.(!i) <- front.(parent);
        rest.(!i) <- rest.(parent);
        i := parent
      end
      else rising := false
    done;
    prio.(!i) <- priority;
    seq.(!i) <- s;
    front.(!i) <- value;
    rest.(!i) <- -1;
    t.last_seq <- s;
    t.last_pos <- !i;
    t.last.prio_of_last <- priority
  end

let min_priority t =
  if t.size = 0 then invalid_arg "Pqueue.min_priority: empty queue";
  t.prio.(0)

(* Pops the root run's front. A run with queued nodes moves its first
   node's payload to the front and stays where it is. A run of one
   leaves the heap: the last entry moves into the root's hole and sinks,
   the smaller child (by priority, then number) moving up at each level
   while it is smaller than the entry. *)
let pop_min t =
  if t.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let prio = t.prio and seq = t.seq and front = t.front and rest = t.rest in
  let top = front.(0) in
  let h = rest.(0) in
  if h >= 0 then begin
    let next = t.next in
    front.(0) <- t.node_value.(h);
    rest.(0) <- next.(h);
    next.(h) <- t.node_free;
    t.node_free <- h;
    t.queued <- t.queued - 1
  end
  else begin
    if seq.(0) = t.last_seq then t.last_seq <- -1;
    let last = t.last_seq in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      let p = prio.(n) and s = seq.(n) and v = front.(n) and q = rest.(n) in
      let i = ref 0 in
      let sinking = ref true in
      while !sinking do
        let l = (2 * !i) + 1 in
        if l >= n then sinking := false
        else begin
          let r = l + 1 in
          let c =
            if
              r < n
              && (prio.(r) < prio.(l)
                 || (prio.(r) = prio.(l) && seq.(r) < seq.(l)))
            then r
            else l
          in
          let pc = prio.(c) and sc = seq.(c) in
          if pc < p || (pc = p && sc < s) then begin
            prio.(!i) <- pc;
            seq.(!i) <- sc;
            front.(!i) <- front.(c);
            rest.(!i) <- rest.(c);
            if sc = last then t.last_pos <- !i;
            i := c
          end
          else sinking := false
        end
      done;
      prio.(!i) <- p;
      seq.(!i) <- s;
      front.(!i) <- v;
      rest.(!i) <- q;
      if s = last then t.last_pos <- !i
    end
  end;
  top

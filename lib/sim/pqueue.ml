(* Array-based binary min-heap in structure-of-arrays form. Every array
   holds unboxed floats or immediate ints, so a move is a plain store:
   no [caml_modify], however large the heap grows. Sifts carry the moving
   element in registers and shift parents or children into the hole, one
   move per level instead of a three-array swap. *)

type t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable values : int array;
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 16

let create () =
  {
    prio = Array.make initial_capacity 0.;
    seq = Array.make initial_capacity 0;
    values = Array.make initial_capacity 0;
    size = 0;
    next_seq = 0;
  }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let cap = 2 * Array.length t.prio in
  let prio = Array.make cap 0. and seq = Array.make cap 0 in
  let values = Array.make cap 0 in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.seq 0 seq 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.prio <- prio;
  t.seq <- seq;
  t.values <- values

(* The new element carries the largest sequence number so far, so it
   rises past a parent only on a strictly smaller priority. *)
let add t ~priority value =
  if t.size = Array.length t.prio then grow t;
  let prio = t.prio and seq = t.seq and values = t.values in
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
      values.(!i) <- values.(parent);
      i := parent
    end
    else rising := false
  done;
  prio.(!i) <- priority;
  seq.(!i) <- s;
  values.(!i) <- value

let min_priority t =
  if t.size = 0 then invalid_arg "Pqueue.min_priority: empty queue";
  t.prio.(0)

(* Moves the last element into the root's hole and sifts it down: at
   each level the smaller child (by priority, then sequence number)
   moves up while it is smaller than the element. *)
let pop_min t =
  if t.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let prio = t.prio and seq = t.seq and values = t.values in
  let top = values.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let p = prio.(n) and s = seq.(n) and v = values.(n) in
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
            && (prio.(r) < prio.(l) || (prio.(r) = prio.(l) && seq.(r) < seq.(l)))
          then r
          else l
        in
        let pc = prio.(c) in
        if pc < p || (pc = p && seq.(c) < s) then begin
          prio.(!i) <- pc;
          seq.(!i) <- seq.(c);
          values.(!i) <- values.(c);
          i := c
        end
        else sinking := false
      end
    done;
    prio.(!i) <- p;
    seq.(!i) <- s;
    values.(!i) <- v
  end;
  top

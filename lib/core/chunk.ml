(* A chunk value is a multiset of (rank, index) input chunks. The naive
   representation (a sorted list, merged on every reduce) makes each reduce
   O(size), which turns both the tracer and the symbolic executor into
   O(n^3) at n ranks — a ring allreduce at 1024 ranks builds ~2M chunks
   whose sizes average n/2. Instead we keep the unevaluated reduction tree
   and a pair of commutative multiset hashes, so [reduce] is O(1) and
   equality is O(1) via the hashes. The sorted multiset is only
   materialized (and memoized) on demand: [inputs], printing, and exact
   small-chunk equality. Chunks at or below [exact_limit] inputs compare by
   the exact multiset; larger ones compare by the 126-bit hash pair, which
   is collision-free for any realistic workload but probabilistic in
   principle (see DESIGN.md, "Scaling & parallelism").

   Equality is built to be cheap on the verifier's hot path, where every
   output slot is compared with a cached expected value: the same node is
   equal at once; size and hash pair, equal for equal multisets, can only
   reject; the exact walk over the sorted lists is a monomorphic int
   compare that stops as soon as both sides are the same physical list;
   and a successful walk makes the second node share the first one's
   sorted list, so comparing either again with a value that shares it is
   O(1). *)

type tree = Leaf of int * int | Sum of node * node

and node = {
  size : int;  (* number of inputs, with multiplicity *)
  h1 : int;
  h2 : int;  (* commutative multiset hashes (wrapping sums of leaf mixes) *)
  tree : tree;
  mutable norm : (int * int) list option;  (* memoized sorted multiset *)
}

type t = Uninit | Node of node

exception Uninitialized_data

(* Chunks up to this many inputs compare by exact multiset equality; every
   existing test, fuzz case and paper-scale collective stays in this
   regime. Above it, equality is by hash pair. *)
let exact_limit = 128

let uninit = Uninit

(* splitmix64-style finalizers, truncated to OCaml's 63-bit ints. The two
   streams use unrelated multipliers so a collision must defeat both. *)
let mix1 k =
  let k = k * 0x3F58476D1CE4E5B9 in
  let k = k lxor (k lsr 30) in
  let k = k * 0x14D049BB133111EB in
  k lxor (k lsr 31)

let mix2 k =
  let k = (k + 0x1E3779B97F4A7C15) * 0x2545F4914F6CDD1D in
  let k = k lxor (k lsr 29) in
  let k = k * 0x369DEA0F31A53F85 in
  k lxor (k lsr 32)

let leaf_key ~rank ~index = (rank * 1_000_003) + index

let input ~rank ~index =
  let k = leaf_key ~rank ~index in
  Node
    {
      size = 1;
      h1 = mix1 k;
      h2 = mix2 k;
      tree = Leaf (rank, index);
      norm = Some [ (rank, index) ];
    }

let cmp_id (r1, i1) (r2, i2) =
  match Int.compare r1 r2 with 0 -> Int.compare i1 i2 | c -> c

let reduce a b =
  match (a, b) with
  | Uninit, _ | _, Uninit -> raise Uninitialized_data
  | Node x, Node y ->
      Node
        {
          size = x.size + y.size;
          h1 = x.h1 + y.h1;
          h2 = x.h2 + y.h2;
          tree = Sum (x, y);
          norm = None;
        }

let reduce_many = function
  | [] -> invalid_arg "Chunk.reduce_many: empty list"
  | c :: cs -> List.fold_left reduce c cs

let is_uninit = function Uninit -> true | Node _ -> false

(* Materialize the sorted multiset of a node, reusing memoized sublists
   where available. The [size] inputs are collected into one array and
   sorted there, so the only lists built are the walk's pending right
   operands and the result. The walk is tail-recursive, so arbitrarily
   deep reduction chains don't overflow the stack. *)
let norm_of (n : node) =
  match n.norm with
  | Some l -> l
  | None ->
      let ids = Array.make n.size (0, 0) in
      let k = ref 0 in
      let add id =
        ids.(!k) <- id;
        incr k
      in
      let rec walk x rest =
        match x.norm with
        | Some l ->
            List.iter add l;
            next rest
        | None -> (
            match x.tree with
            | Leaf (r, i) ->
                add (r, i);
                next rest
            | Sum (a, b) -> walk a (b :: rest))
      and next = function [] -> () | x :: rest -> walk x rest in
      walk n [];
      Array.stable_sort cmp_id ids;
      let l = Array.fold_right List.cons ids [] in
      n.norm <- Some l;
      l

let inputs = function Uninit -> None | Node n -> Some (norm_of n)

(* Unordered leaf traversal: no sort, no memoization, so analyses that
   only aggregate the multiset (bitsets, counters) skip the O(n log n)
   normalization entirely. *)
let iter_inputs f = function
  | Uninit -> ()
  | Node n ->
      let stack = ref [ n ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | x :: rest -> (
            stack := rest;
            match x.norm with
            | Some l -> List.iter (fun (r, i) -> f r i) l
            | None -> (
                match x.tree with
                | Leaf (r, i) -> f r i
                | Sum (a, b) -> stack := a :: b :: !stack))
      done

let allreduce_expected ~num_ranks ~index =
  reduce_many (List.init num_ranks (fun rank -> input ~rank ~index))

(* Sorted input lists of equal length, compared lexicographically with
   int compares; the order is [Stdlib.compare]'s on these lists. *)
let rec equal_norm a b =
  a == b
  ||
  match (a, b) with
  | (r1, i1) :: a', (r2, i2) :: b' ->
      Int.equal r1 r2 && Int.equal i1 i2 && equal_norm a' b'
  | _ -> false

let rec compare_norm a b =
  if a == b then 0
  else
    match (a, b) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | (r1, i1) :: a', (r2, i2) :: b' -> (
        match Int.compare r1 r2 with
        | 0 -> (
            match Int.compare i1 i2 with 0 -> compare_norm a' b' | c -> c)
        | c -> c)

let equal a b =
  match (a, b) with
  | Uninit, Uninit -> true
  | Uninit, Node _ | Node _, Uninit -> false
  | Node x, Node y ->
      x == y
      || x.size = y.size && x.h1 = y.h1 && x.h2 = y.h2
         && (x.size > exact_limit
            || equal_norm (norm_of x) (norm_of y)
               && begin
                    y.norm <- x.norm;
                    true
                  end)

let compare a b =
  match (a, b) with
  | Uninit, Uninit -> 0
  | Uninit, Node _ -> -1
  | Node _, Uninit -> 1
  | Node x, Node y -> (
      match Int.compare x.size y.size with
      | 0 ->
          if x.size <= exact_limit then compare_norm (norm_of x) (norm_of y)
          else (
            match Int.compare x.h1 y.h1 with
            | 0 -> Int.compare x.h2 y.h2
            | c -> c)
      | c -> c)

let hash = function
  | Uninit -> 0
  | Node n -> ((n.size * 31) + n.h1) land max_int

let pp fmt = function
  | Uninit -> Format.pp_print_string fmt "?"
  | Node { tree = Leaf (r, i); _ } -> Format.fprintf fmt "c(%d,%d)" r i
  | Node n when n.size > 32 ->
      (* Huge sums (only reachable at bench scales) print a digest instead
         of thousands of terms. *)
      Format.fprintf fmt "sum{%d inputs, #%x}" n.size (n.h1 land 0xFFFFFF)
  | Node n ->
      Format.fprintf fmt "sum{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "+")
           (fun fmt (r, i) -> Format.fprintf fmt "(%d,%d)" r i))
        (norm_of n)

let to_string t = Format.asprintf "%a" pp t

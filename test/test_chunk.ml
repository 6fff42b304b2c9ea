(* Chunk algebra unit and property tests (paper §3.1). *)

open Msccl_core
module Q = QCheck

let input r i = Chunk.input ~rank:r ~index:i

let test_input_identity () =
  Alcotest.(check bool) "distinct inputs differ" false
    (Chunk.equal (input 0 0) (input 0 1));
  Alcotest.(check bool) "same input equal" true
    (Chunk.equal (input 2 3) (input 2 3));
  Alcotest.(check (option (list (pair int int)))) "inputs of input"
    (Some [ (2, 3) ])
    (Chunk.inputs (input 2 3))

let test_uninit () =
  Alcotest.(check bool) "uninit is uninit" true (Chunk.is_uninit Chunk.uninit);
  Alcotest.(check bool) "input is not uninit" false
    (Chunk.is_uninit (input 0 0));
  Alcotest.check_raises "reduce with uninit raises" Chunk.Uninitialized_data
    (fun () -> ignore (Chunk.reduce Chunk.uninit (input 0 0)));
  Alcotest.(check (option (list (pair int int)))) "inputs of uninit" None
    (Chunk.inputs Chunk.uninit)

let test_multiset () =
  (* Reducing the same input twice is double counting, not idempotent. *)
  let once = input 0 0 in
  let twice = Chunk.reduce once once in
  Alcotest.(check bool) "double-count differs" false (Chunk.equal once twice);
  Alcotest.(check (option (list (pair int int)))) "multiset kept"
    (Some [ (0, 0); (0, 0) ])
    (Chunk.inputs twice)

let test_allreduce_expected () =
  let e = Chunk.allreduce_expected ~num_ranks:3 ~index:7 in
  let built =
    Chunk.reduce (Chunk.reduce (input 0 7) (input 1 7)) (input 2 7)
  in
  Alcotest.(check bool) "expected equals built" true (Chunk.equal e built)

let test_reduce_many () =
  let parts = [ input 0 0; input 1 0; input 2 0 ] in
  Alcotest.(check bool) "reduce_many = folds" true
    (Chunk.equal (Chunk.reduce_many parts)
       (Chunk.allreduce_expected ~num_ranks:3 ~index:0));
  Alcotest.check_raises "empty reduce_many"
    (Invalid_argument "Chunk.reduce_many: empty list") (fun () ->
      ignore (Chunk.reduce_many []))

(* Random chunk values: a reduction of 1-6 random inputs. *)
let gen_chunk =
  Q.Gen.(
    let gen_input = map2 (fun r i -> input (r mod 5) (i mod 5)) nat nat in
    map Chunk.reduce_many (list_size (int_range 1 6) gen_input))

let arb_chunk = Q.make gen_chunk ~print:Chunk.to_string

let prop_commutative =
  Testutil.qtest "reduce commutative" (Q.pair arb_chunk arb_chunk)
    (fun (a, b) -> Chunk.equal (Chunk.reduce a b) (Chunk.reduce b a))

let prop_associative =
  Testutil.qtest "reduce associative"
    (Q.triple arb_chunk arb_chunk arb_chunk)
    (fun (a, b, c) ->
      Chunk.equal
        (Chunk.reduce a (Chunk.reduce b c))
        (Chunk.reduce (Chunk.reduce a b) c))

let prop_compare_consistent =
  Testutil.qtest "compare/equal/hash consistent" (Q.pair arb_chunk arb_chunk)
    (fun (a, b) ->
      let eq = Chunk.equal a b in
      (Chunk.compare a b = 0) = eq
      && if eq then Chunk.hash a = Chunk.hash b else true)

let prop_inputs_sorted =
  Testutil.qtest "inputs stay sorted" (Q.pair arb_chunk arb_chunk)
    (fun (a, b) ->
      match Chunk.inputs (Chunk.reduce a b) with
      | None -> false
      | Some ids -> List.sort compare ids = ids)

(* ------------------------------------------------------------------ *)
(* Differential: equal/compare against the sorted input lists          *)
(* ------------------------------------------------------------------ *)

let size c = List.length (Option.get (Chunk.inputs c))

(* The reference order: by size, then, at or below [exact_limit], the
   sorted input lists under [Stdlib.compare]. Above it the order is the
   hash pair's, so only its zero-ness is checked. *)
let ref_compare a b =
  let la = Option.get (Chunk.inputs a) and lb = Option.get (Chunk.inputs b) in
  match Int.compare (List.length la) (List.length lb) with
  | 0 when List.length la <= Chunk.exact_limit -> Some (Stdlib.compare la lb)
  | 0 -> None
  | c -> Some c

let sign c = Int.compare c 0

(* One reduction of [leaves] in a random association order. *)
let rec tree st leaves lo hi =
  if hi - lo = 1 then leaves.(lo)
  else
    let mid = lo + 1 + Random.State.int st (hi - lo - 1) in
    Chunk.reduce (tree st leaves lo mid) (tree st leaves mid hi)

let shuffled st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Pairs of chunks of 1 to 2 x [exact_limit] inputs over few distinct
   inputs, so equal multisets are common: independent trees, the same
   multiset in two association orders, and trees of exactly
   [exact_limit] inputs that differ in at most one input. *)
let gen_pair st =
  let leaf () =
    Chunk.input ~rank:(Random.State.int st 4) ~index:(Random.State.int st 3)
  in
  let leaves n = Array.init n (fun _ -> leaf ()) in
  let build l = tree st l 0 (Array.length l) in
  match Random.State.int st 3 with
  | 0 ->
      let n = 1 + Random.State.int st (2 * Chunk.exact_limit) in
      let m =
        if Random.State.bool st then n
        else 1 + Random.State.int st (2 * Chunk.exact_limit)
      in
      (build (leaves n), build (leaves m))
  | 1 ->
      let l = leaves (1 + Random.State.int st (2 * Chunk.exact_limit)) in
      (build l, build (shuffled st l))
  | _ ->
      let l = leaves Chunk.exact_limit in
      let l' = shuffled st l in
      if Random.State.bool st then
        l'.(Random.State.int st Chunk.exact_limit) <- leaf ();
      (build l, build l')

let arb_pair =
  Q.make gen_pair ~print:(fun (a, b) ->
      Printf.sprintf "%s vs %s" (Chunk.to_string a) (Chunk.to_string b))

(* Equality and order agree with the reference, both ways round, and
   again once a successful [equal] has made the pair share a sorted
   list. *)
let prop_differential =
  Testutil.qtest ~count:300 "equal/compare = sorted-list reference" arb_pair
    (fun (a, b) ->
      let agrees () =
        let eq = Chunk.inputs a = Chunk.inputs b in
        Chunk.equal a b = eq
        && Chunk.equal b a = eq
        && (Chunk.compare a b = 0) = eq
        && sign (Chunk.compare a b) = - sign (Chunk.compare b a)
        &&
        match ref_compare a b with
        | Some c -> sign (Chunk.compare a b) = sign c
        | None -> true
      in
      let first = agrees () in
      first && agrees ())

(* A third chunk equal to a pair that already shares a sorted list. *)
let prop_shared_norm =
  Testutil.qtest ~count:100 "equal after sharing a norm" arb_pair
    (fun (a, b) ->
      let c =
        Chunk.reduce_many
          (List.rev_map
             (fun (r, i) -> Chunk.input ~rank:r ~index:i)
             (Option.get (Chunk.inputs a)))
      in
      ignore (Chunk.equal a b);
      Chunk.equal a c
      && Chunk.equal c a
      && Chunk.equal b c = Chunk.equal b a
      && Chunk.compare c b = Chunk.compare a b
      && size c = size a)

(* Once a successful [equal] has made two equal 128-input chunks share
   their sorted list, comparing them again costs no allocation. *)
let test_equal_allocation () =
  let n = Chunk.exact_limit in
  let a = Chunk.allreduce_expected ~num_ranks:n ~index:3 in
  let b =
    Chunk.reduce_many
      (List.init n (fun r -> Chunk.input ~rank:(n - 1 - r) ~index:3))
  in
  Alcotest.(check int) "size" n (size a);
  Alcotest.(check bool) "equal" true (Chunk.equal a b);
  (match (Chunk.inputs a, Chunk.inputs b) with
  | Some la, Some lb ->
      Alcotest.(check bool) "sorted list shared" true (la == lb)
  | _ -> Alcotest.fail "uninitialized");
  let run () =
    let yes = ref 0 in
    for _ = 1 to 100_000 do
      if Chunk.equal a b then incr yes
    done;
    !yes
  in
  let warm = run () in
  let before = Gc.minor_words () in
  let again = run () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all equal" 100_000 warm;
  Alcotest.(check int) "same answers" warm again;
  if words > 64. then
    Alcotest.failf "100k equal calls allocated %.0f minor words" words

let () =
  Alcotest.run "chunk"
    [
      ( "unit",
        [
          Testutil.tc "input identity" test_input_identity;
          Testutil.tc "uninit" test_uninit;
          Testutil.tc "multiset semantics" test_multiset;
          Testutil.tc "allreduce expected" test_allreduce_expected;
          Testutil.tc "reduce_many" test_reduce_many;
        ] );
      ( "properties",
        [
          prop_commutative; prop_associative; prop_compare_consistent;
          prop_inputs_sorted;
        ] );
      ( "differential",
        [
          prop_differential;
          prop_shared_norm;
          Testutil.tc "equal after sharing does not allocate"
            test_equal_allocation;
        ] );
    ]

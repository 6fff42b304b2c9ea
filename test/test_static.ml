(* The static passes' outputs held in place: the footprint table against
   the list footprint of [Static_ref], and the digests of what lint, races,
   symmetry and verify print, pinned in static_digests.txt. A suite of its
   own: Alcotest sizes its name column by the longest group name in an
   executable, and these group names would shorten the printed names of
   test_races' tests. *)

module F = Msccl_fuzz
module Q = QCheck

(* ------------------------------------------------------------------ *)
(* The footprint table against the list footprint                     *)
(* ------------------------------------------------------------------ *)

let table_agrees label ir =
  List.iter
    (fun (what, ir) ->
      if not (Static_ref.table_matches ir) then
        Alcotest.failf "%s%s: footprint table differs from the list footprint"
          label what)
    [ ("", ir); (" (broken)", F.Mutate.break_symmetry ir) ]

let test_table_registry () =
  List.iter
    (fun (label, ir) -> table_agrees label (Lazy.force ir))
    (Testutil.static_digest_subjects ())

let prop_table_random =
  Testutil.qtest ~count:300 "300 random IRs: table equals list footprint"
    Q.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let ir =
        if seed mod 2 = 0 then
          Testutil.gen_ir ~multi:true ~footprints:true (F.Rng.create seed)
        else F.Case.compile (F.Fuzz.generate ~seed:11 ~index:(seed mod 997))
      in
      table_agrees (string_of_int seed) ir;
      true)

(* ------------------------------------------------------------------ *)
(* Static digests: what lint, races, symmetry and verify print         *)
(* ------------------------------------------------------------------ *)

(* static_digests.txt pins [Testutil.static_digests] of every registry
   shape and fuzz corpus case: a change to any static pass that keeps
   its outputs leaves every line as it is. *)
let test_static_digests () =
  let pinned =
    In_channel.with_open_text (Testutil.in_test "static_digests.txt")
      In_channel.input_lines
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map (fun l ->
           match String.index_opt l '\t' with
           | Some i ->
               ( String.sub l 0 i,
                 String.sub l (i + 1) (String.length l - i - 1) )
           | None -> Alcotest.failf "malformed digest line %S" l)
  in
  let subjects = Testutil.static_digest_subjects () in
  Alcotest.(check int) "subjects" (List.length pinned) (List.length subjects);
  List.iter
    (fun (label, ir) ->
      let got = String.concat " " (Testutil.static_digests (Lazy.force ir)) in
      match List.assoc_opt label pinned with
      | Some want -> Alcotest.(check string) label want got
      | None -> Alcotest.failf "no pinned digests for %S (%s)" label got)
    subjects

let () =
  Alcotest.run "static"
    [
      ( "footprint table",
        [ Testutil.tc "registry and fuzz corpus" test_table_registry;
          prop_table_random ] );
      ( "static digests",
        [ Testutil.tc "registry and fuzz corpus" test_static_digests ] );
    ]

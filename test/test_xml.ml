(* The XML layer against the reference it replaced (test/xml_ref.ml),
   its behaviour on hostile-size input, and its allocation budget. *)

open Msccl_core
module A = Msccl_algorithms
module H = Msccl_harness
module I = Msccl_interop.Ingest
module M = Msccl_interop.Mangle

(* ------------------------------------------------------------------ *)
(* Differential: parse_tree                                            *)
(* ------------------------------------------------------------------ *)

(* A tree of the new parser with every position resolved, in the
   reference's shape. *)
let rec resolved (t : Xml.tree) =
  {
    Xml_ref.tag = t.Xml.tag;
    attrs = t.Xml.attrs;
    children = List.map resolved t.Xml.children;
    t_pos = Xml.pos t;
    t_attr_pos = List.mapi (fun i (k, _) -> (k, Xml.nth_attr_pos t i)) t.Xml.attrs;
  }

type outcome = Tree of Xml_ref.tree | Failed of Xml.error

let parse_new ?file s =
  match Xml.parse_tree ?file s with
  | t -> Tree (resolved t)
  | exception Xml.Parse_error e -> Failed e

let parse_ref ?file s =
  match Xml_ref.parse_tree ?file s with
  | t -> Tree t
  | exception Xml.Parse_error e -> Failed e

let describe = function
  | Tree t -> Printf.sprintf "tree <%s>" t.Xml_ref.tag
  | Failed e ->
      Printf.sprintf "%s:%d:%d: %s (%d context frames)" e.Xml.e_file
        e.Xml.e_pos.Xml.line e.Xml.e_pos.Xml.col e.Xml.e_message
        (List.length e.Xml.e_context)

let agree ~what ?file s =
  let got = parse_new ?file s and want = parse_ref ?file s in
  if got <> want then
    Alcotest.failf "%s: parse_tree gives %s, the reference %s" what
      (describe got) (describe want)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".xml")
  |> List.map (fun f -> Filename.concat dir f)

(* Every registry algorithm at three shapes, skipping shapes it rejects. *)
let registry_irs =
  lazy
    (List.concat_map
       (fun (spec : H.Registry.spec) ->
         List.filter_map
           (fun (nodes, gpus_per_node, channels, proto) ->
             match
               spec.H.Registry.build
                 {
                   H.Registry.default_params with
                   nodes;
                   gpus_per_node;
                   channels;
                   proto;
                   verify = false;
                 }
             with
             | ir ->
                 Some (Printf.sprintf "%s@%dx%d" spec.H.Registry.name nodes gpus_per_node, ir)
             | exception _ -> None)
           [
             (1, 8, 1, Msccl_topology.Protocol.Simple);
             (2, 4, 2, Msccl_topology.Protocol.LL);
             (2, 8, 1, Msccl_topology.Protocol.LL128);
           ])
       H.Registry.all)

(* Rooted and custom collectives, and a name that needs escaping, on top
   of one registry program: the printer does not validate. *)
let collective_variants =
  lazy
    (let ir = A.Ring_allreduce.ir ~verify:false ~num_ranks:4 () in
     let with_kind name kind =
       let chunk_factor =
         match kind with Collective.Custom _ -> 1 | _ -> 2
       in
       ( name,
         {
           ir with
           Ir.name = "v<&\"'>" ^ name;
           collective =
             Collective.make kind ~num_ranks:4 ~chunk_factor ~inplace:false ();
         } )
     in
     [
       with_kind "broadcast" (Collective.Broadcast 3);
       with_kind "reduce" (Collective.Reduce 1);
       with_kind "gather" (Collective.Gather 2);
       with_kind "scatter" (Collective.Scatter 0);
       with_kind "custom"
         (Collective.Custom
            {
              Collective.custom_name = "my&<custom>";
              input_chunks = 3;
              output_chunks = 12;
              expected = (fun ~rank:_ ~index:_ -> None);
              initial = None;
            });
     ])

let test_to_string_matches_reference () =
  let n = ref 0 in
  List.iter
    (fun (what, ir) ->
      incr n;
      let got = Xml.to_string ir and want = Xml_ref.to_string ir in
      if not (String.equal got want) then
        Alcotest.failf "%s: to_string differs from the reference printer" what)
    (Lazy.force registry_irs @ Lazy.force collective_variants);
  Alcotest.(check bool) (Printf.sprintf "%d programs printed" !n) true (!n > 40)

let edge_docs =
  [
    ""; " "; "<"; "<a"; "<a "; "<a x"; "<a x="; "<a x=\""; "<a x=\"1\"";
    "<a x=\"1\" /"; "<a/ >"; "<a/>"; "<a></a >"; "<a></a"; "<a></b>";
    "</a>"; "text"; "<a>text</a>"; "<a/>junk"; "<a/><b/>"; "<a><b></a>";
    "<!-- c --><a/>"; "<!-- c -->"; "<!-- c"; "<!---->\n<a/>"; "<!-->--><a/>";
    "<?xml version=\"1.0\"?><a/>"; "<?><a/>"; "<?xml"; "<?"; "\xef\xbb\xbf<a/>";
    "\xef\xbb\xbf"; "<a x=\"1\"y=\"2\"/>"; "<a x = \"1\"\n\ty\r\n=\"2\"/>";
    "<a x=1/>"; "<a x='1'/>"; "<a =\"1\"/>"; "<a x=\"1\" x=\"2\"/>";
    "<a\n  x=\"1\"\n  y=\"2\"\n  x=\"3\"/>"; "<a x=\"&amp;&lt;&gt;&quot;&apos;\"/>";
    "<a x=\"&#65;&#x42;&#X43;&#169;&#x1F600;\"/>"; "<a x=\"&#0;\"/>";
    "<a x=\"&#x110000;\"/>"; "<a x=\"&#xZZ;\"/>"; "<a x=\"&#;\"/>";
    "<a x=\"&#x;\"/>"; "<a x=\"&;\"/>"; "<a x=\"&bogus;\"/>";
    "<a x=\"&amp\"/>"; "<a x=\"&a\"b;\"/>"; "<a x=\"&abcdefghijklm;\"/>";
    "<a x=\"&abcdefghijkl;\"/>"; "<a x=\"&abcdefghijk;\"/>"; "<a x=\"&";
    "<a x=\"a&amp;"; "<a x=\"\n\"/>"; "<a x=\"<>\"/>"; "<a x=\"\x00\"/>";
    "<a>\n  <b/>\n  <c\n"; "<a><!-- unterminated </a>"; "<a>\n<b>\n</a>";
    "<a.b-c:d_e/>"; "<1/>"; "<a \xff/>"; "\n\n   <a/>  \n"; "<a/>\n<!-- x -->\n";
    "<a/><!-- x"; "<algo name=\"x\"><gpu id=\"0\"></gpu></algo>";
  ]

let test_parse_edge_cases () =
  List.iter (fun d -> agree ~what:(Printf.sprintf "%S" d) d) edge_docs

let test_parse_corpora () =
  List.iter
    (fun path -> agree ~what:path ~file:path (read_file path))
    (corpus "corpus/xml-bad" @ corpus "corpus/xml-dialect")

let test_parse_registry_files () =
  List.iter
    (fun (what, ir) -> agree ~what ~file:(what ^ ".xml") (Xml.to_string ir))
    (Lazy.force registry_irs @ Lazy.force collective_variants)

(* 2,000 seeded mangles of four bases, each with its description. *)
let mangles =
  lazy
    (let bases =
       [|
         Xml.to_string (A.Ring_allreduce.ir ~verify:false ~num_ranks:4 ());
         Xml.to_string (A.Allpairs_allreduce.ir ~verify:false ~num_ranks:4 ());
         read_file "corpus/xml-dialect/d1-allreduce-msccl-tools.xml";
         read_file "corpus/xml-bad/04-bad-entity.xml";
       |]
     in
     List.init 2000 (fun index ->
         let doc, what =
           M.mangle ~seed:1234 ~index bases.(index mod Array.length bases)
         in
         (Printf.sprintf "mangle %d (%s)" index what, doc)))

let test_parse_mangles () =
  List.iter
    (fun (what, doc) -> agree ~what ~file:"mangled.xml" doc)
    (Lazy.force mangles)

(* Small versions of the hostile-size documents, which the quadratic
   reference can still afford. *)
let test_parse_hostile_shapes () =
  agree ~what:"flood" (Hostile_docs.attribute_flood ~n:600 ());
  agree ~what:"flood + duplicate"
    (let d = Hostile_docs.attribute_flood ~n:600 () in
     String.sub d 0 (String.length d - 3) ^ " a599=\"1\"/>");
  agree ~what:"deep" (Hostile_docs.deep_nesting ~depth:3000 ());
  agree ~what:"deep, closed"
    (Hostile_docs.deep_nesting ~depth:3000 ()
    ^ String.concat "" (List.init 3000 (fun _ -> "</a>")));
  agree ~what:"chain" (Hostile_docs.dependency_chain ~n:300 ())

(* ------------------------------------------------------------------ *)
(* Differential: streaming ingestion against the tree replay           *)
(* ------------------------------------------------------------------ *)

(* [Ingest.of_string] decodes the lexer's events; [parse_tree] then
   [Ingest.of_tree] replays a tree's into the same decoder. Both must give
   equal programs and the same diagnostics, field by field, in order. *)
let streaming_agrees ~what ?file doc =
  let replayed =
    match Xml.parse_tree ?file doc with
    | t -> I.of_tree ?file t
    | exception Xml.Parse_error e -> Error [ I.parse_diag e ]
  in
  let show = function
    | Ok (_, ds) -> "Ok with:\n" ^ I.diags_to_string ds
    | Error ds -> "Error:\n" ^ I.diags_to_string ds
  in
  let streamed = I.of_string ?file doc in
  let same =
    match (streamed, replayed) with
    | Ok (a, da), Ok (b, db) -> Ir.equal a b && da = db
    | Error da, Error db -> da = db
    | _ -> false
  in
  if not same then
    Alcotest.failf "%s: of_string gives %s\nthe tree replay %s" what
      (show streamed) (show replayed)

let test_streaming_corpora () =
  let files = corpus "corpus/xml-bad" @ corpus "corpus/xml-dialect" in
  List.iter (fun path -> streaming_agrees ~what:path ~file:path (read_file path)) files;
  Alcotest.(check bool) "both corpora" true (List.length files >= 31)

let test_streaming_registry () =
  List.iter
    (fun (what, ir) -> streaming_agrees ~what ~file:(what ^ ".xml") (Xml.to_string ir))
    (Lazy.force registry_irs @ Lazy.force collective_variants)

let test_streaming_mangles () =
  List.iter
    (fun (what, doc) -> streaming_agrees ~what ~file:"mangled.xml" doc)
    (Lazy.force mangles)

(* Diagnostics the decoder gathered before a late syntax error are
   dropped: the error is the one diagnostic. *)
let test_late_parse_error () =
  let body = "<algo xmangle=\"1\" coll=\"allreduce\">\n  <gpu id=\"0\"/>\n" in
  List.iter
    (fun (what, doc, want) ->
      streaming_agrees ~what doc;
      match I.of_string doc with
      | Error [ d ] ->
          Alcotest.(check string) (what ^ ": rule") "parse" d.I.d_rule;
          Alcotest.(check string) (what ^ ": message") want d.I.d_message
      | Error ds ->
          Alcotest.failf "%s: %d diagnostics:\n%s" what (List.length ds)
            (I.diags_to_string ds)
      | Ok _ -> Alcotest.failf "%s: accepted" what)
    [
      ( "inside the root",
        body ^ "  <tb id=\"0\" <step/>\n</algo>\n",
        "unexpected '<' in <tb> (expected an attribute name, '>' or '/>')" );
      ( "after the root",
        body ^ "</algo>\n<algo/>\n",
        "trailing content after the root element (found '<')" );
    ]

(* ------------------------------------------------------------------ *)
(* Differential: integer attributes                                    *)
(* ------------------------------------------------------------------ *)

let test_int_value () =
  let edge =
    [
      "0"; "7"; "-1"; "+1"; "-0"; "+0"; "007"; "-007"; "0x1F"; "0X1f"; "0b1";
      "0o17"; "0u5"; "1_0"; "_1"; " 7 "; "\t7\n"; "7 "; " -3"; ""; " "; "-";
      "+"; "--1"; "1-"; "1e3"; "1.0"; "x"; string_of_int max_int;
      string_of_int min_int; "4611686018427387904"; "-4611686018427387905";
      "999999999999999999"; "-999999999999999999"; "1000000000000000000";
      "99999999999999999999999"; "\xc2\xb9"; "\xd9\xa3"; "1\xc2\xa0";
      "\xef\xbc\x91"; "0x"; "0xFFFFFFFFFFFFFFFF"; "0x7FFFFFFFFFFFFFFF";
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check (option int))
        (Printf.sprintf "%S" v)
        (int_of_string_opt (String.trim v))
        (I.int_value v))
    edge

(* ------------------------------------------------------------------ *)
(* Hostile-size input: linear time                                     *)
(* ------------------------------------------------------------------ *)

let within ~bound what f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  if dt > bound then Alcotest.failf "%s took %.2f s (bound %.1f s)" what dt bound;
  r

let test_attribute_flood () =
  let doc = Hostile_docs.attribute_flood () in
  let ds =
    within ~bound:1.0 "16,000 attributes" (fun () ->
        match I.of_string doc with
        | Ok _ -> Alcotest.fail "attribute flood accepted"
        | Error ds -> ds)
  in
  (* The first 16 unknown attributes, then one count placed at the
     17th. *)
  let flood = List.filter (fun d -> d.I.d_rule = "unknown-attribute") ds in
  Alcotest.(check int) "warnings per rule, then a count"
    (I.max_warnings + 1) (List.length flood);
  let last = List.nth flood (I.max_warnings - 1) in
  Alcotest.(check string) "last shown"
    "<algo> has unknown attribute a15 (ignored)" last.I.d_message;
  Alcotest.(check int) "its column" 117 last.I.d_pos.Xml.col;
  let count = List.nth flood I.max_warnings in
  Alcotest.(check string) "count"
    "15984 more unknown-attribute warning(s) not shown" count.I.d_message;
  Alcotest.(check int) "at the first one not shown" 125 count.I.d_pos.Xml.col;
  let dup = String.sub doc 0 (String.length doc - 3) ^ " a7=\"1\"/>" in
  (* Positions stay exact 165 KB into the line: the duplicate a7, after
     the 16,000th attribute. *)
  (match I.of_string dup with
  | Ok _ -> Alcotest.fail "duplicate attribute accepted"
  | Error ds ->
      let d = List.find (fun d -> d.I.d_rule = "parse") ds in
      Alcotest.(check int) "duplicate's column" (String.length doc - 1)
        d.I.d_pos.Xml.col);
  within ~bound:1.0 "16,000 attributes and a duplicate" (fun () ->
      match Xml.parse_tree dup with
      | _ -> Alcotest.fail "duplicate attribute accepted"
      | exception Xml.Parse_error e ->
          Alcotest.(check string)
            "diagnostic"
            "duplicate attribute a7 on <algo> (first occurrence at <string>:1:56)"
            e.Xml.e_message)

let test_deep_nesting () =
  let depth = 1_000_000 in
  let doc = Hostile_docs.deep_nesting ~depth () in
  within ~bound:4.0 "10^6 nested elements" (fun () ->
      match Xml.parse_tree ~file:"deep.xml" doc with
      | _ -> Alcotest.fail "unterminated nesting accepted"
      | exception Xml.Parse_error e ->
          Alcotest.(check string)
            "diagnostic" "unterminated element <a> (opened here)"
            e.Xml.e_message;
          Alcotest.(check int) "innermost element" (3 * (depth - 1) + 1)
            e.Xml.e_pos.Xml.col;
          (* the innermost 30 levels, the count of the rest, the root *)
          let level k = Printf.sprintf "<a> at deep.xml:1:%d" ((3 * k) + 1) in
          Alcotest.(check (list string))
            "bounded context"
            (List.init 30 (fun j -> level (depth - 1 - j))
            @ [ "(999969 more enclosing elements)"; level 0 ])
            e.Xml.e_context)

let test_dependency_chain () =
  let n = 32_000 in
  let doc = Hostile_docs.dependency_chain ~n () in
  within ~bound:3.0 "two 32,000-step thread blocks" (fun () ->
      match I.of_string doc with
      | Error ds -> Alcotest.failf "chain rejected:\n%s" (I.diags_to_string ds)
      | Ok (ir, ws) ->
          Alcotest.(check int) "no warnings" 0 (List.length ws);
          let tb1 = ir.Ir.gpus.(0).Ir.tbs.(1) in
          Alcotest.(check (list (pair int int)))
            "last step's dependency" [ (0, n - 1) ]
            tb1.Ir.steps.(n - 1).Ir.depends)

(* ------------------------------------------------------------------ *)
(* Positions of rewritten trees                                        *)
(* ------------------------------------------------------------------ *)

(* Attribute offsets line up with the attributes as parsed. A caller that
   rewrites [attrs] in place (as Mangle does) must still get each
   attribute's own position, not the one at its new index. *)
let test_rewritten_attrs () =
  let printed = Xml.to_string (A.Ring_allreduce.ir ~verify:false ~num_ranks:4 ()) in
  let prefix = "<?xml version=\"1.0\"?>\n<algo" in
  assert (String.starts_with ~prefix printed);
  let at = String.length prefix in
  let doc =
    String.sub printed 0 at ^ " bogus=\"1\"" ^ String.sub printed at (String.length printed - at)
  in
  (* "bogus" starts at column 7 of the second line *)
  let want = { Xml.line = 2; col = 7 } in
  let bogus_pos t =
    match I.of_tree t with
    | Error ds -> Alcotest.failf "rejected:\n%s" (I.diags_to_string ds)
    | Ok (_, ws) -> (
        match List.filter (fun d -> d.I.d_rule = "unknown-attribute") ws with
        | [ d ] -> d.I.d_pos
        | ds -> Alcotest.failf "%d unknown-attribute warnings" (List.length ds))
  in
  let t = Xml.parse_tree doc in
  let check what t =
    let p = bogus_pos t in
    if p <> want then
      Alcotest.failf "%s: bogus reported at %d:%d, expected %d:%d" what p.Xml.line
        p.Xml.col want.Xml.line want.Xml.col
  in
  check "as parsed" t;
  check "attributes reversed" { t with Xml.attrs = List.rev t.Xml.attrs };
  check "an attribute dropped"
    { t with Xml.attrs = List.filter (fun (k, _) -> k <> "name") t.Xml.attrs };
  check "an attribute prepended" { t with Xml.attrs = ("proto", "Simple") :: t.Xml.attrs }

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                  *)
(* ------------------------------------------------------------------ *)

(* [Gc.allocated_bytes] counts are deterministic for a given build, but
   they take in minor-heap allocation only at minor collections, so a
   figure moves in steps: the parser's went from 3.9 to 4.7 bytes per
   input byte on this file when its allocation counted by [Gc.minor_words]
   grew 1.6%, from 4.83 to 4.91. The budgets were set about 1.5x over the
   figures first measured, the parser's 3.9 and the printer's 2.2 bytes per
   output byte, where the per-character parser took 68 and the
   tree-building printer 15.2. *)
let allocated f =
  ignore (Sys.opaque_identity (f ()));
  Gc.compact ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.allocated_bytes () -. before

let budget what ~per ~limit bytes size =
  let ratio = bytes /. float_of_int size in
  if ratio > limit then
    Alcotest.failf "%s allocates %.2f bytes per %s byte (budget %.1f)" what ratio
      per limit

let test_parse_budget () =
  let doc =
    Xml.to_string
      (A.Hierarchical_allreduce.ir ~verify:false ~nodes:8 ~gpus_per_node:8 ())
  in
  budget "parse_tree on hierarchical@64" ~per:"input" ~limit:5.8
    (allocated (fun () -> Xml.parse_tree doc))
    (String.length doc)

(* Lexer events straight into the decoder: no tree, and integers read in
   place. The budget is about 1.5x the 4.0 bytes per input byte first
   measured; parsing a tree and then decoding it took 14.3. *)
let test_ingest_budget () =
  let doc =
    Xml.to_string
      (A.Hierarchical_allreduce.ir ~verify:false ~nodes:8 ~gpus_per_node:8 ())
  in
  budget "Ingest.of_string on hierarchical@64" ~per:"input" ~limit:6.0
    (allocated (fun () -> I.of_string doc))
    (String.length doc)

let test_print_budget () =
  let ir = A.Allpairs_allreduce.ir ~verify:false ~num_ranks:32 () in
  budget "to_string on allpairs@32" ~per:"output" ~limit:3.2
    (allocated (fun () -> Xml.to_string ir))
    (String.length (Xml.to_string ir))

let () =
  Alcotest.run "xml"
    [
      ( "differential",
        [
          Testutil.tc "to_string = reference printer" test_to_string_matches_reference;
          Testutil.tc "parse_tree = reference on edge cases" test_parse_edge_cases;
          Testutil.tc "parse_tree = reference on corpora" test_parse_corpora;
          Testutil.tc "parse_tree = reference on registry files"
            test_parse_registry_files;
          Testutil.tc "parse_tree = reference on 2000 mangles" test_parse_mangles;
          Testutil.tc "parse_tree = reference on hostile shapes"
            test_parse_hostile_shapes;
          Testutil.tc "int_value = int_of_string_opt (String.trim v)"
            test_int_value;
        ] );
      ( "streaming",
        [
          Testutil.tc "of_string = tree replay on corpora" test_streaming_corpora;
          Testutil.tc "of_string = tree replay on registry files"
            test_streaming_registry;
          Testutil.tc "of_string = tree replay on 2000 mangles"
            test_streaming_mangles;
          Testutil.tc "a late parse error is the one diagnostic"
            test_late_parse_error;
        ] );
      ( "hostile-size",
        [
          Testutil.tc "attribute flood" test_attribute_flood;
          Testutil.tc "deep nesting" test_deep_nesting;
          Testutil.tc "dependency chain" test_dependency_chain;
        ] );
      ( "positions",
        [ Testutil.tc "rewritten attributes keep their positions" test_rewritten_attrs ] );
      ( "allocation",
        [
          Testutil.tc "parse_tree bytes per input byte" test_parse_budget;
          Testutil.tc "Ingest.of_string bytes per input byte" test_ingest_budget;
          Testutil.tc "to_string bytes per output byte" test_print_budget;
        ] );
    ]

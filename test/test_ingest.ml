(* External-XML ingestion: golden positioned diagnostics, dialect
   tolerance, and hostile-input totality. *)

open Msccl_core
module A = Msccl_algorithms
module I = Msccl_interop.Ingest
module M = Msccl_interop.Mangle

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let list_xml dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xml")
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Golden bad corpus: diagnostics match FILE:LINE:COL for FILE:LINE:COL *)
(* ------------------------------------------------------------------ *)

let bad_dir = "corpus/xml-bad"

let test_golden_bad () =
  let files = list_xml bad_dir in
  Alcotest.(check bool)
    "at least 20 bad-corpus files" true
    (List.length files >= 20);
  List.iter
    (fun f ->
      let path = Filename.concat bad_dir f in
      let expected_path =
        Filename.concat bad_dir (Filename.remove_extension f ^ ".expected")
      in
      let expected = read_file expected_path in
      match I.of_string ~file:path (read_file path) with
      | Ok _ -> Alcotest.failf "%s: expected rejection, got acceptance" f
      | Error ds ->
          Alcotest.(check string)
            (f ^ " diagnostics") expected
            (I.diags_to_string ds ^ "\n"))
    files

let test_bad_corpus_structured () =
  (* Every bad-corpus rejection is fully structured: at least one error,
     every diagnostic positioned (line >= 1). *)
  List.iter
    (fun f ->
      let path = Filename.concat bad_dir f in
      match I.of_string ~file:path (read_file path) with
      | Ok _ -> ()
      | Error ds ->
          Alcotest.(check bool)
            (f ^ " has error diagnostics") true
            (I.errors ds <> []);
          List.iter
            (fun d ->
              if d.I.d_pos.Xml.line < 1 then
                Alcotest.failf "%s: diagnostic without position: %s" f
                  (I.diag_to_string d))
            ds)
    (list_xml bad_dir)

(* ------------------------------------------------------------------ *)
(* Dialect corpus: msccl-tools-style files ingest and round-trip        *)
(* ------------------------------------------------------------------ *)

let dialect_dir = "corpus/xml-dialect"

let test_dialect_corpus () =
  let files = list_xml dialect_dir in
  Alcotest.(check bool)
    "at least 5 dialect files" true
    (List.length files >= 5);
  List.iter
    (fun f ->
      let path = Filename.concat dialect_dir f in
      match I.of_string ~file:path (read_file path) with
      | Error ds ->
          Alcotest.failf "%s rejected:\n%s" f (I.diags_to_string ds)
      | Ok (ir, _) ->
          (* the certified IR reprints as a document that ingests with no
             diagnostics *)
          let ir2 = Testutil.reingest ~file:path (Xml.to_string ir) in
          Alcotest.(check bool)
            (f ^ " round-trips") true (Testutil.ir_equal ir ir2))
    files

(* ------------------------------------------------------------------ *)
(* Tolerant decoding: aliases, reordering, defaults, repairs            *)
(* ------------------------------------------------------------------ *)

let base_doc =
  {|<algo name="t" coll="allgather" nranks="2" chunk_factor="1" inplace="0" proto="Simple">
  <gpu id="0" i_chunks="1" o_chunks="2" s_chunks="0">
    <tb id="0" send="1" recv="1" chan="0">
      <step s="0" type="s" srcbuf="i" srcoff="0" cnt="1"/>
      <step s="1" type="r" dstbuf="o" dstoff="1" cnt="1"/>
    </tb>
  </gpu>
  <gpu id="1" i_chunks="1" o_chunks="2" s_chunks="0">
    <tb id="0" send="0" recv="0" chan="0">
      <step s="0" type="s" srcbuf="i" srcoff="0" cnt="1"/>
      <step s="1" type="r" dstbuf="o" dstoff="0" cnt="1"/>
    </tb>
  </gpu>
</algo>|}

let ingest_ok ?(what = "ingest") doc =
  match I.of_string doc with
  | Ok (ir, ws) -> (ir, ws)
  | Error ds -> Alcotest.failf "%s rejected:\n%s" what (I.diags_to_string ds)

let test_reorder_tolerance () =
  let ir, _ = ingest_ok base_doc in
  (* swap the two <gpu> elements and reverse the steps in each tb *)
  let t = Xml.parse_tree base_doc in
  let t =
    {
      t with
      Xml.children =
        List.rev_map
          (fun (g : Xml.tree) ->
            {
              g with
              Xml.children =
                List.map
                  (fun (tb : Xml.tree) ->
                    { tb with Xml.children = List.rev tb.Xml.children })
                  g.Xml.children;
            })
          t.Xml.children;
    }
  in
  let doc = Format.asprintf "%a" Xml.print_tree t in
  let ir2, ws = ingest_ok ~what:"reordered" doc in
  Alcotest.(check bool) "reordered IR equal" true (Testutil.ir_equal ir ir2);
  Alcotest.(check int) "no warnings" 0 (List.length ws)

let test_aliases_and_dialect () =
  let doc =
    {|<algo name="t" collective="allgather" ngpus="2" nchunksperloop="1" outofplace="1" protocol="simple" nchannels="1" minBytes="0" maxBytes="0">
  <gpu id="0" input_chunks="1" output_chunks="2" scratch_chunks="0">
    <tb id="0" send="1" recv="1">
      <step s="0" type="send" srcbuf="input" srcoff="0" count="1"/>
      <step s="1" type="recv" dstbuf="output" dstoff="1" count="1"/>
    </tb>
  </gpu>
  <gpu id="1" input_chunks="1" output_chunks="2" scratch_chunks="0">
    <tb id="0" send="0" recv="0">
      <step s="0" type="send" srcbuf="input" srcoff="0" count="1"/>
      <step s="1" type="recv" dstbuf="output" dstoff="0" count="1"/>
    </tb>
  </gpu>
</algo>|}
  in
  let ir, ws = ingest_ok ~what:"dialect aliases" doc in
  let base_ir, _ = ingest_ok base_doc in
  Alcotest.(check bool) "alias IR equal" true (Testutil.ir_equal base_ir ir);
  Alcotest.(check int) "aliases draw no warnings" 0 (List.length ws)

let test_unknown_attr_warning () =
  let t = Xml.parse_tree base_doc in
  let t = { t with Xml.attrs = t.Xml.attrs @ [ ("vendor", "x") ] } in
  let doc = Format.asprintf "%a" Xml.print_tree t in
  let _, ws = ingest_ok doc in
  match ws with
  | [ w ] ->
      Alcotest.(check string) "rule" "unknown-attribute" w.I.d_rule;
      Alcotest.(check bool) "positioned" true (w.I.d_pos.Xml.line >= 1)
  | ws -> Alcotest.failf "expected exactly one warning, got %d" (List.length ws)

let test_defaults_and_repair () =
  (* chan/cnt/hasdep omitted; a dependency targets a step not marked
     hasdep — ingest must default and repair, with warnings only. *)
  let doc =
    {|<algo name="t" coll="allgather" nranks="2" chunk_factor="1" inplace="0" proto="Simple">
  <gpu id="0" i_chunks="1" o_chunks="2" s_chunks="0">
    <tb id="0" send="1" recv="1">
      <step s="0" type="s" srcbuf="i" srcoff="0"/>
      <step s="1" type="r" dstbuf="o" dstoff="1"/>
    </tb>
    <tb id="1">
      <step s="0" type="cpy" srcbuf="i" srcoff="0" dstbuf="o" dstoff="0" depid="0" deps="1"/>
    </tb>
  </gpu>
  <gpu id="1" i_chunks="1" o_chunks="2" s_chunks="0">
    <tb id="0" send="0" recv="0">
      <step s="0" type="s" srcbuf="i" srcoff="0"/>
      <step s="1" type="r" dstbuf="o" dstoff="0"/>
    </tb>
  </gpu>
</algo>|}
  in
  let ir, ws = ingest_ok ~what:"defaults" doc in
  Alcotest.(check bool)
    "repair warning present" true
    (List.exists (fun w -> w.I.d_rule = "repair") ws);
  let tb0 = ir.Ir.gpus.(0).Ir.tbs.(0) in
  Alcotest.(check int) "chan defaults to 0" 0 tb0.Ir.chan;
  Alcotest.(check int) "cnt defaults to 1" 1 tb0.Ir.steps.(0).Ir.count;
  Alcotest.(check bool)
    "dependency target repaired" true
    tb0.Ir.steps.(1).Ir.has_dep;
  (* the repaired program is valid: Ir.validate accepted it *)
  Ir.validate ir

let test_collects_all_diagnostics () =
  (* one pass reports every schema problem, not just the first *)
  let doc =
    {|<algo name="t" coll="allgather" nranks="2" chunk_factor="1" inplace="0" proto="Simple">
  <gpu id="0" i_chunks="1" o_chunks="2" s_chunks="0">
    <tb id="0" send="9" recv="1" chan="-1">
      <step s="0" type="warp" srcbuf="q" srcoff="-3" cnt="0"/>
    </tb>
  </gpu>
</algo>|}
  in
  match I.of_string doc with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error ds ->
      let errs = I.errors ds in
      Alcotest.(check bool)
        (Printf.sprintf "collected %d >= 4 errors" (List.length errs))
        true
        (List.length errs >= 4);
      List.iter
        (fun d ->
          Alcotest.(check bool)
            ("positioned: " ^ d.I.d_message)
            true
            (d.I.d_pos.Xml.line >= 1))
        errs

let test_load_missing_file () =
  match I.load "corpus/does-not-exist.xml" with
  | Ok _ -> Alcotest.fail "expected io error"
  | Error [ d ] -> Alcotest.(check string) "rule" "io" d.I.d_rule
  | Error ds -> Alcotest.failf "expected one diag, got %d" (List.length ds)

(* ------------------------------------------------------------------ *)
(* Lexical gaps: numeric character references, duplicate attributes     *)
(* ------------------------------------------------------------------ *)

let test_unescape () =
  Alcotest.(check string) "decimal ref" "A" (Xml.unescape "&#65;");
  Alcotest.(check string) "hex ref" "A" (Xml.unescape "&#x41;");
  Alcotest.(check string) "utf8 ref" "\xc2\xa9" (Xml.unescape "&#169;");
  Alcotest.(check string)
    "mixed" "a<b&c" (Xml.unescape "a&lt;b&amp;c");
  let malformed s expected_col =
    match Xml.unescape s with
    | exception Xml.Parse_error e ->
        Alcotest.(check int) (s ^ " line") 1 e.Xml.e_pos.Xml.line;
        Alcotest.(check int) (s ^ " col") expected_col e.Xml.e_pos.Xml.col
    | r -> Alcotest.failf "unescape %S: expected error, got %S" s r
  in
  malformed "&bogus;" 1;
  malformed "ab&#xZZ;" 3;
  malformed "x&#;" 2;
  malformed "&#x110000;" 1;
  malformed "&unterminated" 1

let test_duplicate_attribute_positions () =
  match Xml.parse_tree "<a x=\"1\" y=\"2\" x=\"3\"/>" with
  | exception Xml.Parse_error e ->
      Alcotest.(check int) "line" 1 e.Xml.e_pos.Xml.line;
      Alcotest.(check int) "col of second occurrence" 16 e.Xml.e_pos.Xml.col;
      Alcotest.(check bool)
        "names first occurrence" true
        (contains e.Xml.e_message "1:4")
  | _ -> Alcotest.fail "expected duplicate-attribute error"

(* ------------------------------------------------------------------ *)
(* Hostile-input totality: the >= 500-case acceptance gate              *)
(* ------------------------------------------------------------------ *)

let test_hostility_sweep () =
  let ir = A.Ring_allreduce.ir ~num_ranks:4 () in
  let doc = Xml.to_string ir in
  (match I.of_string doc with
  | Ok (ir', ws) ->
      Alcotest.(check bool)
        "own output equal" true (Testutil.ir_equal ir ir');
      Alcotest.(check int) "own output warning-free" 0 (List.length ws)
  | Error ds -> Alcotest.failf "own output rejected:\n%s" (I.diags_to_string ds));
  let accepted = ref 0 and rejected = ref 0 in
  for i = 0 to 519 do
    let mangled, what = M.mangle ~seed:9001 ~index:i doc in
    match I.of_string ~file:"mangled.xml" mangled with
    | exception e ->
        Alcotest.failf "mangle %d (%s): unstructured exception escaped: %s" i
          what (Printexc.to_string e)
    | Error [] -> Alcotest.failf "mangle %d (%s): no diagnostics" i what
    | Error ds ->
        incr rejected;
        List.iter
          (fun d ->
            if d.I.d_severity = I.Error && d.I.d_pos.Xml.line < 1 then
              Alcotest.failf "mangle %d (%s): rejection without position: %s"
                i what (I.diag_to_string d))
          ds
    | Ok (ir', _) -> (
        incr accepted;
        (* accepted repairs are stable through print and re-ingest *)
        match I.of_string (Xml.to_string ir') with
        | Ok (ir2, _) when Testutil.ir_equal ir' ir2 -> ()
        | Ok _ -> Alcotest.failf "mangle %d (%s): unstable repair" i what
        | Error ds ->
            Alcotest.failf "mangle %d (%s): repair rejected on reprint:\n%s" i
              what (I.diags_to_string ds)
        | exception e ->
            Alcotest.failf "mangle %d (%s): reprint raised %s" i what
              (Printexc.to_string e))
  done;
  (* the sweep must actually exercise both paths *)
  Alcotest.(check bool) "some corruptions accepted" true (!accepted > 20);
  Alcotest.(check bool) "some corruptions rejected" true (!rejected > 100)

(* Ingest accepts a step that lacks the operand its opcode uses (this
   mangle strips an rcs destination). Both verifiers must return a
   verdict for it, and agree, rather than raise. *)
let test_operandless_mangle_verdicts () =
  let doc = Xml.to_string (A.Ring_allreduce.ir ~num_ranks:32 ()) in
  let mangled, what = M.mangle ~seed:1 ~index:24 doc in
  match I.of_string ~file:"mangled.xml" mangled with
  | Error ds ->
      Alcotest.failf "mangle (%s) rejected:\n%s" what (I.diags_to_string ds)
  | Ok (ir, _) ->
      (match Verify.check ir with
      | Ok () -> Alcotest.failf "mangle (%s) verified" what
      | Error m ->
          Alcotest.(check bool)
            ("executor error names the operand: " ^ m)
            true
            (contains m "operand"));
      let r = Msccl_analysis.Provenance.analyze ir in
      Alcotest.(check bool)
        "provenance reports the missing operand" true
        (List.exists
           (fun d ->
             match d.Msccl_analysis.Provenance.dg_kind with
             | Msccl_analysis.Provenance.Missing_operand _ -> true
             | _ -> false)
           r.Msccl_analysis.Provenance.r_diags)

let () =
  Alcotest.run "ingest"
    [
      ( "golden",
        [
          Testutil.tc "bad corpus diagnostics verbatim" test_golden_bad;
          Testutil.tc "bad corpus structured" test_bad_corpus_structured;
          Testutil.tc "dialect corpus accepted" test_dialect_corpus;
        ] );
      ( "tolerance",
        [
          Testutil.tc "element reordering" test_reorder_tolerance;
          Testutil.tc "attribute aliases" test_aliases_and_dialect;
          Testutil.tc "unknown attribute warns" test_unknown_attr_warning;
          Testutil.tc "defaults and hasdep repair" test_defaults_and_repair;
          Testutil.tc "collects all diagnostics" test_collects_all_diagnostics;
          Testutil.tc "missing file is io diag" test_load_missing_file;
        ] );
      ( "lexical",
        [
          Testutil.tc "unescape numeric refs" test_unescape;
          Testutil.tc "duplicate attribute positions"
            test_duplicate_attribute_positions;
        ] );
      ( "hostile",
        [
          Testutil.tc "520-case mangle sweep" test_hostility_sweep;
          Testutil.tc "operand-less step gets verdicts"
            test_operandless_mangle_verdicts;
        ] );
    ]

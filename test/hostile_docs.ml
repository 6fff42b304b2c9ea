(* Hostile-size MSCCL-IR documents: each once cost the front end
   superlinear time, and each must now be decided in linear time. *)

(* One element with [n] distinct attributes (161 KB at 16,000). Ingest
   rejects it: <algo> without coll or <gpu>, after [n] unknown-attribute
   warnings. *)
let attribute_flood ?(n = 16_000) () =
  let b = Buffer.create (11 * n + 16) in
  Buffer.add_string b "<algo";
  for i = 0 to n - 1 do
    Printf.bprintf b " a%d=\"0\"" i
  done;
  Buffer.add_string b "/>\n";
  Buffer.contents b

(* [depth] nested open tags and no close tag (3 MB at 10^6): the parser
   reports the innermost element unterminated, under a context of
   [depth] frames. *)
let deep_nesting ?(depth = 1_000_000) () =
  let b = Buffer.create (3 * depth) in
  for _ = 1 to depth do
    Buffer.add_string b "<a>"
  done;
  Buffer.contents b

(* A valid one-rank program of two thread blocks of [n] copies each,
   where every step of the second depends on the last step of the first
   (7 MB at 32,000): ingest resolves [n] dependencies on a step [n] deep. *)
let dependency_chain ?(n = 32_000) () =
  let b = Buffer.create (2 * 112 * n + 1024) in
  Buffer.add_string b
    "<?xml version=\"1.0\"?>\n\
     <algo name=\"chain\" proto=\"Simple\" nranks=\"1\" chunk_factor=\"1\" \
     inplace=\"0\" coll=\"custom\" cname=\"chain\" in_chunks=\"1\" \
     out_chunks=\"1\">\n\
    \  <gpu id=\"0\" i_chunks=\"1\" o_chunks=\"1\" s_chunks=\"0\">\n";
  let tb id ~depid ~deps ~hasdep =
    Printf.bprintf b "    <tb id=\"%d\" send=\"-1\" recv=\"-1\" chan=\"0\">\n" id;
    for s = 0 to n - 1 do
      Printf.bprintf b
        "      <step s=\"%d\" type=\"cpy\" srcbuf=\"i\" srcoff=\"0\" \
         dstbuf=\"o\" dstoff=\"0\" cnt=\"1\" depid=\"%d\" deps=\"%d\" \
         hasdep=\"%d\"/>\n"
        s depid deps (if hasdep s then 1 else 0)
    done;
    Buffer.add_string b "    </tb>\n"
  in
  tb 0 ~depid:(-1) ~deps:(-1) ~hasdep:(fun s -> s = n - 1);
  tb 1 ~depid:0 ~deps:(n - 1) ~hasdep:(fun _ -> false);
  Buffer.add_string b "  </gpu>\n</algo>\n";
  Buffer.contents b

let all =
  [
    ("attribute-flood.xml", fun () -> attribute_flood ());
    ("deep-nesting.xml", fun () -> deep_nesting ());
    ("dependency-chain.xml", fun () -> dependency_chain ());
  ]

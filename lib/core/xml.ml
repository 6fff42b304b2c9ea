(* Position-tracking XML subset parser and MSCCL-IR serializer.

   Every parsed element and attribute carries its 1-based line:col source
   position, and every parse failure raises a structured {!Parse_error}
   carrying the message, the file label, the position and the stack of
   open elements rendered "<tag> at FILE:LINE:COL" — the ingestion layer
   (lib/interop) and the golden bad-XML corpus depend on those positions
   being exact. Decoding a tree back into an [Ir.t] is the ingestion
   layer's job; this module only parses and prints. *)

type pos = { line : int; col : int }

let no_pos = { line = 0; col = 0 }

type tree = {
  tag : string;
  attrs : (string * string) list;
  children : tree list;
  t_pos : pos;
  t_attr_pos : (string * pos) list;
}

(* Synthesized nodes (the IR printer) carry no source position. *)
let el tag attrs children = { tag; attrs; children; t_pos = no_pos; t_attr_pos = [] }

let attr_pos t k =
  match List.assoc_opt k t.t_attr_pos with Some p -> p | None -> t.t_pos

type error = {
  e_message : string;
  e_file : string;
  e_pos : pos;
  e_context : string list;
}

exception Parse_error of error

let frame ~file tag p =
  if p = no_pos then Printf.sprintf "<%s>" tag
  else Printf.sprintf "<%s> at %s:%d:%d" tag file p.line p.col

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | '\'' -> Buffer.add_string b "&apos;"
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create (String.length s) in
  escape_into b s;
  Buffer.contents b

(* Each element on its own line, indented two spaces per depth, children
   between the open and close tags. This is the layout the Format v-boxes
   of the first printer produced. Those cap indentation at [max_indent]
   (68 columns), so the two layouts would first differ at depth 35, which
   no printed tree reaches: IR trees are at most 4 deep (algo/gpu/tb/step)
   and a mangled one at most 5. *)
let newline_indent b depth =
  Buffer.add_char b '\n';
  for _ = 1 to 2 * depth do
    Buffer.add_char b ' '
  done

let rec write_tree b depth t =
  Buffer.add_char b '<';
  Buffer.add_string b t.tag;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ' ';
      Buffer.add_string b k;
      Buffer.add_string b "=\"";
      escape_into b v;
      Buffer.add_char b '"')
    t.attrs;
  match t.children with
  | [] -> Buffer.add_string b "/>"
  | cs ->
      Buffer.add_char b '>';
      List.iter
        (fun c ->
          newline_indent b (depth + 1);
          write_tree b (depth + 1) c)
        cs;
      newline_indent b depth;
      Buffer.add_string b "</";
      Buffer.add_string b t.tag;
      Buffer.add_char b '>'

let print_tree fmt t =
  let b = Buffer.create 4096 in
  write_tree b 0 t;
  Format.pp_print_string fmt (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Lexing                                                              *)
(* ------------------------------------------------------------------ *)

type cursor = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable stack : (string * pos) list;  (* open elements, innermost first *)
}

let cursor ?(file = "<string>") src =
  { src; file; pos = 0; line = 1; col = 1; stack = [] }

let cur_pos c = { line = c.line; col = c.col }

let context_of c = List.map (fun (tag, p) -> frame ~file:c.file tag p) c.stack

let raise_at c ?context p fmt =
  let context = match context with Some x -> x | None -> context_of c in
  Format.kasprintf
    (fun m ->
      raise
        (Parse_error
           { e_message = m; e_file = c.file; e_pos = p; e_context = context }))
    fmt

let fail c fmt = raise_at c (cur_pos c) fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c =
  (if c.pos < String.length c.src then
     if c.src.[c.pos] = '\n' then begin
       c.line <- c.line + 1;
       c.col <- 1
     end
     else c.col <- c.col + 1);
  c.pos <- c.pos + 1

let advance_n c n =
  for _ = 1 to n do
    advance c
  done

let looking_at c s =
  let n = String.length s in
  c.pos + n <= String.length c.src && String.sub c.src c.pos n = s

let expect c s =
  if looking_at c s then advance_n c (String.length s)
  else
    match peek c with
    | None -> fail c "expected %S but reached end of input" s
    | Some ch -> fail c "expected %S, found %C" s ch

let is_name_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '-' || ch = ':' || ch = '.'

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | Some _ | None -> ()

let rec skip_ws_and_comments c =
  skip_ws c;
  if looking_at c "<!--" then begin
    let open_pos = cur_pos c in
    advance_n c 4;
    let rec close () =
      if c.pos >= String.length c.src then
        raise_at c open_pos "unterminated comment (opened here)"
      else if looking_at c "-->" then advance_n c 3
      else begin
        advance c;
        close ()
      end
    in
    close ();
    skip_ws_and_comments c
  end

let read_name c =
  let start = c.pos in
  let rec go () =
    match peek c with
    | Some ch when is_name_char ch ->
        advance c;
        go ()
    | Some _ | None -> ()
  in
  go ();
  if c.pos = start then begin
    match peek c with
    | None -> fail c "expected a name but reached end of input"
    | Some ch -> fail c "expected a name, found %C" ch
  end;
  String.sub c.src start (c.pos - start)

(* ------------------------------------------------------------------ *)
(* Entities                                                            *)
(* ------------------------------------------------------------------ *)

let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let is_digit ch = ch >= '0' && ch <= '9'

let is_hex ch =
  is_digit ch || (ch >= 'a' && ch <= 'f') || (ch >= 'A' && ch <= 'F')

(* Decodes the entity whose '&' sits under the cursor. *)
let read_entity c b =
  let amp_pos = cur_pos c in
  advance c;
  let start = c.pos in
  let rec scan n =
    if n > 12 then
      raise_at c amp_pos "malformed entity: no ';' within 12 characters of '&'"
    else
      match peek c with
      | None -> raise_at c amp_pos "malformed entity: unterminated reference"
      | Some ';' ->
          let name = String.sub c.src start (c.pos - start) in
          advance c;
          name
      | Some _ ->
          advance c;
          scan (n + 1)
  in
  let name = scan 0 in
  match name with
  | "amp" -> Buffer.add_char b '&'
  | "lt" -> Buffer.add_char b '<'
  | "gt" -> Buffer.add_char b '>'
  | "quot" -> Buffer.add_char b '"'
  | "apos" -> Buffer.add_char b '\''
  | "" -> raise_at c amp_pos "malformed entity: empty reference '&;'"
  | _ when name.[0] = '#' ->
      let digits = String.sub name 1 (String.length name - 1) in
      let code =
        if
          String.length digits >= 2
          && (digits.[0] = 'x' || digits.[0] = 'X')
          && String.for_all is_hex
               (String.sub digits 1 (String.length digits - 1))
        then
          int_of_string_opt
            ("0x" ^ String.sub digits 1 (String.length digits - 1))
        else if String.length digits >= 1 && String.for_all is_digit digits
        then int_of_string_opt digits
        else None
      in
      (match code with
      | Some cp when cp >= 1 && cp <= 0x10FFFF -> add_utf8 b cp
      | Some cp -> raise_at c amp_pos
          "numeric character reference '&%s;' is out of range (%d)" name cp
      | None ->
          raise_at c amp_pos "malformed numeric character reference '&%s;'"
            name)
  | _ -> raise_at c amp_pos "unknown entity '&%s;'" name

(* Decodes entity references until [stop] (or end of input when [stop] is
   [None], the bare-fragment mode {!unescape} uses). *)
let scan_value ?stop ?open_pos c =
  let b = Buffer.create 16 in
  let rec go () =
    match (peek c, stop) with
    | None, None -> ()
    | None, Some _ ->
        let p = match open_pos with Some p -> p | None -> cur_pos c in
        raise_at c p "unterminated attribute value (quote opened here)"
    | Some ch, Some stop when ch = stop -> advance c
    | Some '&', _ ->
        read_entity c b;
        go ()
    | Some ch, _ ->
        Buffer.add_char b ch;
        advance c;
        go ()
  in
  go ();
  Buffer.contents b

let unescape s = scan_value (cursor ~file:"<fragment>" s)

let read_attr_value c =
  let open_pos = cur_pos c in
  expect c "\"";
  scan_value ~stop:'"' ~open_pos c

(* ------------------------------------------------------------------ *)
(* Elements                                                            *)
(* ------------------------------------------------------------------ *)

let rec parse_element c =
  skip_ws_and_comments c;
  let start_pos = cur_pos c in
  (match peek c with
  | Some '<' when not (looking_at c "</") -> ()
  | Some '<' -> fail c "unexpected closing tag"
  | Some ch -> fail c "expected an element, found %C (text content is not supported)" ch
  | None -> fail c "expected an element but reached end of input");
  expect c "<";
  let tag = read_name c in
  c.stack <- (tag, start_pos) :: c.stack;
  let rec attrs acc =
    skip_ws c;
    match peek c with
    | Some '/' | Some '>' -> List.rev acc
    | Some ch when is_name_char ch ->
        let k_pos = cur_pos c in
        let k = read_name c in
        (match List.find_opt (fun (k', _, _) -> String.equal k' k) acc with
        | Some (_, _, (first : pos)) ->
            raise_at c k_pos
              "duplicate attribute %s on <%s> (first occurrence at %s:%d:%d)"
              k tag c.file first.line first.col
        | None -> ());
        skip_ws c;
        expect c "=";
        skip_ws c;
        let v = read_attr_value c in
        attrs ((k, v, k_pos) :: acc)
    | Some ch ->
        fail c "unexpected %C in <%s> (expected an attribute name, '>' or '/>')"
          ch tag
    | None ->
        raise_at c start_pos "unterminated element <%s> (opened here)" tag
  in
  let attrs = attrs [] in
  skip_ws c;
  let finish children =
    c.stack <- List.tl c.stack;
    {
      tag;
      attrs = List.map (fun (k, v, _) -> (k, v)) attrs;
      children;
      t_pos = start_pos;
      t_attr_pos = List.map (fun (k, _, p) -> (k, p)) attrs;
    }
  in
  if looking_at c "/>" then begin
    advance_n c 2;
    finish []
  end
  else begin
    expect c ">";
    let rec children acc =
      skip_ws_and_comments c;
      if looking_at c "</" then begin
        let close_pos = cur_pos c in
        advance_n c 2;
        let close = read_name c in
        if not (String.equal close tag) then
          raise_at c close_pos
            "mismatched closing tag </%s> for <%s> (opened at %s:%d:%d)" close
            tag c.file start_pos.line start_pos.col;
        skip_ws c;
        expect c ">";
        List.rev acc
      end
      else if peek c = None then
        raise_at c start_pos "unterminated element <%s> (opened here)" tag
      else children (parse_element c :: acc)
    in
    finish (children [])
  end

let parse_tree ?file s =
  let c = cursor ?file s in
  if looking_at c "\xef\xbb\xbf" then advance_n c 3;
  skip_ws_and_comments c;
  if looking_at c "<?" then begin
    let open_pos = cur_pos c in
    let rec close () =
      if c.pos >= String.length c.src then
        raise_at c open_pos "unterminated XML declaration (opened here)"
      else if looking_at c "?>" then advance_n c 2
      else begin
        advance c;
        close ()
      end
    in
    close ()
  end;
  let t = parse_element c in
  skip_ws_and_comments c;
  (match peek c with
  | None -> ()
  | Some ch -> fail c "trailing content after the root element (found %C)" ch);
  t

(* ------------------------------------------------------------------ *)
(* IR -> tree                                                          *)
(* ------------------------------------------------------------------ *)

let ids_attr prefix ids =
  (prefix, String.concat "," (List.map string_of_int ids))

let loc_attrs prefix = function
  | None -> [ (prefix ^ "buf", "n"); (prefix ^ "off", "-1") ]
  | Some (l : Loc.t) ->
      [
        (prefix ^ "buf", Buffer_id.name l.Loc.buf);
        (prefix ^ "off", string_of_int l.Loc.index);
      ]

let step_to_tree (st : Ir.step) =
  let depid, deps =
    match st.Ir.depends with
    | [] -> ([ -1 ], [ -1 ])
    | ds -> (List.map fst ds, List.map snd ds)
  in
  el "step"
    ([ ("s", string_of_int st.Ir.s); ("type", Instr.opcode_name st.Ir.op) ]
    @ loc_attrs "src" st.Ir.src @ loc_attrs "dst" st.Ir.dst
    @ [
        ("cnt", string_of_int st.Ir.count);
        ids_attr "depid" depid;
        ids_attr "deps" deps;
        ("hasdep", if st.Ir.has_dep then "1" else "0");
      ])
    []

let tb_to_tree (tb : Ir.tb) =
  el "tb"
    [
      ("id", string_of_int tb.Ir.tb_id);
      ("send", string_of_int tb.Ir.send);
      ("recv", string_of_int tb.Ir.recv);
      ("chan", string_of_int tb.Ir.chan);
    ]
    (Array.to_list (Array.map step_to_tree tb.Ir.steps))

let gpu_to_tree (g : Ir.gpu) =
  el "gpu"
    [
      ("id", string_of_int g.Ir.gpu_id);
      ("i_chunks", string_of_int g.Ir.input_chunks);
      ("o_chunks", string_of_int g.Ir.output_chunks);
      ("s_chunks", string_of_int g.Ir.scratch_chunks);
    ]
    (Array.to_list (Array.map tb_to_tree g.Ir.tbs))

let to_tree (ir : Ir.t) =
  let coll = ir.Ir.collective in
  let coll_attrs =
    match coll.Collective.kind with
    | Collective.Broadcast r | Collective.Reduce r | Collective.Gather r
    | Collective.Scatter r ->
        [ ("coll", Collective.name coll); ("root", string_of_int r) ]
    | Collective.Custom c ->
        [
          ("coll", "custom");
          ("cname", c.Collective.custom_name);
          ("in_chunks", string_of_int c.Collective.input_chunks);
          ("out_chunks", string_of_int c.Collective.output_chunks);
        ]
    | Collective.Allreduce | Collective.Allgather | Collective.Reduce_scatter
    | Collective.Alltoall | Collective.Alltonext ->
        [ ("coll", Collective.name coll) ]
  in
  el "algo"
    ([
       ("name", ir.Ir.name);
       ("proto", Msccl_topology.Protocol.name ir.Ir.proto);
       ("nranks", string_of_int coll.Collective.num_ranks);
       ("chunk_factor", string_of_int coll.Collective.chunk_factor);
       ("inplace", if coll.Collective.inplace then "1" else "0");
     ]
    @ coll_attrs)
    (Array.to_list (Array.map gpu_to_tree ir.Ir.gpus))

let to_string ir =
  let b = Buffer.create 65536 in
  Buffer.add_string b "<?xml version=\"1.0\"?>\n";
  write_tree b 0 (to_tree ir);
  Buffer.add_char b '\n';
  Buffer.contents b

let save ir path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ir))

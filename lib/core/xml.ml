(* Offset-positioned XML subset parser and MSCCL-IR printer.

   The parser is one index scan over the source string. Every parsed
   element and attribute records the byte offset where it starts; offsets
   become 1-based line:col positions only when something asks (a
   diagnostic, {!nth_attr_pos}, a {!Parse_error}), through a line-start index
   built on first use. Every parse failure raises a structured
   {!Parse_error} carrying the message, the file label, the position and
   the stack of open elements rendered "<tag> at FILE:LINE:COL" — the
   ingestion layer (lib/interop) and the golden bad-XML corpus depend on
   those positions being exact. Decoding a tree back into an [Ir.t] is the
   ingestion layer's job; this module only parses and prints. *)

type pos = { line : int; col : int }

let no_pos = { line = 0; col = 0 }

(* A parsed document and the offset of each line start, computed on the
   first position lookup. *)
type source = { text : string; mutable line_starts : int array }

type tree = {
  tag : string;
  attrs : (string * string) list;
  children : tree list;
  t_src : source;
  t_off : int;
  t_parsed : (string * string) list;
  t_attr_offs : int array;
}

let synthetic = { text = ""; line_starts = [| 0 |] }

let source_length t = String.length t.t_src.text

(* Synthesized nodes (Mangle's additions) carry no source position. *)
let el tag attrs children =
  {
    tag;
    attrs;
    children;
    t_src = synthetic;
    t_off = -1;
    t_parsed = [];
    t_attr_offs = [||];
  }

let line_starts src =
  if Array.length src.line_starts = 0 then begin
    let s = src.text in
    let n = ref 1 in
    for i = 0 to String.length s - 1 do
      if String.unsafe_get s i = '\n' then incr n
    done;
    let starts = Array.make !n 0 in
    let k = ref 1 in
    for i = 0 to String.length s - 1 do
      if String.unsafe_get s i = '\n' then begin
        starts.(!k) <- i + 1;
        incr k
      end
    done;
    src.line_starts <- starts
  end;
  src.line_starts

(* Columns count bytes, and '\n' is the only line break. *)
let resolve src off =
  if off < 0 then no_pos
  else begin
    let starts = line_starts src in
    (* the last line starting at or before [off] *)
    let lo = ref 0 and hi = ref (Array.length starts - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if starts.(mid) <= off then lo := mid else hi := mid - 1
    done;
    { line = !lo + 1; col = off - starts.(!lo) + 1 }
  end

let pos t = resolve t.t_src t.t_off

(* [t_attr_offs] lines up with [t_parsed]. When [attrs] is no longer that
   list (a caller rewrote the tree), the [i]-th attribute is found among
   the parsed ones by name. *)
let rec parsed_pos t k j = function
  | [] -> pos t
  | (k', _) :: rest ->
      if String.equal k k' then resolve t.t_src t.t_attr_offs.(j)
      else parsed_pos t k (j + 1) rest

let nth_attr_pos t i =
  if i < 0 then pos t
  else if t.attrs == t.t_parsed then
    if i < Array.length t.t_attr_offs then resolve t.t_src t.t_attr_offs.(i)
    else pos t
  else
    match List.nth_opt t.attrs i with
    | Some (k, _) -> parsed_pos t k 0 t.t_parsed
    | None -> pos t

type error = {
  e_message : string;
  e_file : string;
  e_pos : pos;
  e_context : string list;
}

exception Parse_error of error

let frame ~file tag p =
  if p = no_pos then "<" ^ tag ^ ">"
  else
    String.concat ""
      [ "<"; tag; "> at "; file; ":"; string_of_int p.line; ":";
        string_of_int p.col ]

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* A loop, not [String.exists], which allocates a closure per call. *)
let needs_escape s =
  let i = ref 0 in
  while
    !i < String.length s
    && match String.unsafe_get s !i with
       | '&' | '<' | '>' | '"' | '\'' -> false
       | _ -> true
  do
    incr i
  done;
  !i < String.length s

let escape_into b s =
  if not (needs_escape s) then Buffer.add_string b s
  else
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

let add_attr b k v =
  Buffer.add_char b ' ';
  Buffer.add_string b k;
  Buffer.add_string b "=\"";
  escape_into b v;
  Buffer.add_char b '"'

let rec write_tree b depth t =
  Buffer.add_char b '<';
  Buffer.add_string b t.tag;
  List.iter (fun (k, v) -> add_attr b k v) t.attrs;
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
(* Scanning                                                            *)
(* ------------------------------------------------------------------ *)

let hash_slice s i n =
  let h = ref n in
  for k = i to i + n - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s k)
  done;
  !h

(* The hot scanning loops below are written without local closures, which
   would otherwise be allocated on every call. *)
let slice_equal s i n w =
  String.length w = n
  &&
  let k = ref 0 in
  while !k < n && String.unsafe_get s (i + !k) = String.unsafe_get w !k do
    incr k
  done;
  !k = n

(* An element whose open tag has been read and whose close tag has not. *)
type open_el = {
  f_tag : string;
  f_off : int;
  mutable f_attrs : (string * string) list;
  mutable f_attr_offs : int array;
  mutable f_kids : tree list;  (* reversed *)
}

type parser = {
  src : string;
  len : int;
  file : string;
  doc : source;
  mutable i : int;
  mutable stack : open_el list;  (* open elements, innermost first *)
  (* the attributes of the element being read, in document order *)
  mutable a_pairs : (string * string) array;
  mutable a_hashes : int array;  (* of each name, to skip most comparisons *)
  mutable a_offs : int array;
  mutable na : int;
  (* attribute name -> index, once an element has more than [linear_attrs] *)
  seen : (string, int) Hashtbl.t;
  (* Direct-mapped by the hash of the source slice, so that a repeat
     shares the first copy: the names read so far, and recent short
     name="value" pairs. Of a printed IR file's names 100% hit and of its
     attributes 88%; of the msccl-tools dialect files' 87% and 65%. *)
  names : string array;
  pairs : (string * string) array;
}

let linear_attrs = 32

let names_mask = 255

let short_value = 8

let pairs_mask = 1023

let parser ?(file = "<string>") s =
  {
    src = s;
    len = String.length s;
    file;
    doc = { text = s; line_starts = [||] };
    i = 0;
    stack = [];
    a_pairs = Array.make 16 ("", "");
    a_hashes = Array.make 16 0;
    a_offs = Array.make 16 0;
    na = 0;
    seen = Hashtbl.create 16;
    names = Array.make (names_mask + 1) "";
    pairs = Array.make (pairs_mask + 1) ("", "");
  }

let raise_at p off fmt =
  let context =
    List.map (fun f -> frame ~file:p.file f.f_tag (resolve p.doc f.f_off)) p.stack
  in
  Format.kasprintf
    (fun m ->
      raise
        (Parse_error
           {
             e_message = m;
             e_file = p.file;
             e_pos = resolve p.doc off;
             e_context = context;
           }))
    fmt

let fail p fmt = raise_at p p.i fmt

let looking_at p s =
  let n = String.length s in
  p.i + n <= p.len && slice_equal p.src p.i n s

(* [looking_at] a two-character string, without the call *)
let at2 p c1 c2 =
  p.i + 1 < p.len
  && String.unsafe_get p.src p.i = c1
  && String.unsafe_get p.src (p.i + 1) = c2

let expect p s =
  if looking_at p s then p.i <- p.i + String.length s
  else if p.i >= p.len then fail p "expected %S but reached end of input" s
  else fail p "expected %S, found %C" s p.src.[p.i]

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | ':' | '.' -> true
  | _ -> false

let skip_ws p =
  while
    p.i < p.len
    && match String.unsafe_get p.src p.i with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    p.i <- p.i + 1
  done

(* Advances past the first [close] at or after [from]; [msg] positioned at
   [opened] when there is none. *)
let skip_past p ~from ~close ~opened msg =
  let n = String.length close in
  let rec go j =
    if j >= p.len then raise_at p opened "%s" msg
    else if j + n <= p.len && slice_equal p.src j n close then p.i <- j + n
    else go (j + 1)
  in
  go from

let rec skip_ws_and_comments p =
  skip_ws p;
  if at2 p '<' '!' && looking_at p "<!--" then begin
    skip_past p ~from:(p.i + 4) ~close:"-->" ~opened:p.i
      "unterminated comment (opened here)";
    skip_ws_and_comments p
  end

(* The name under the cursor as a slice [start, p.i). *)
let scan_name p =
  let start = p.i in
  while p.i < p.len && is_name_char (String.unsafe_get p.src p.i) do
    p.i <- p.i + 1
  done;
  if p.i = start then
    if p.i >= p.len then fail p "expected a name but reached end of input"
    else fail p "expected a name, found %C" p.src.[p.i];
  start

(* The name [p.src.[start .. start + n)], whose [hash_slice] is [hash]. *)
let name_at p start n ~hash =
  let slot = hash land names_mask in
  let w = p.names.(slot) in
  if slice_equal p.src start n w then w
  else begin
    let w = String.sub p.src start n in
    p.names.(slot) <- w;
    w
  end

let read_name p =
  let start = scan_name p in
  let n = p.i - start in
  name_at p start n ~hash:(hash_slice p.src start n)

(* [expect] of the one-character string [c], without the call *)
let expect_char p c =
  if p.i < p.len && String.unsafe_get p.src p.i = c then p.i <- p.i + 1
  else expect p (String.make 1 c)

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

(* Decodes the entity whose '&' sits under the cursor. The ';' may lie
   past a closing quote: the reference is read before the value ends. *)
let read_entity p b =
  let amp = p.i in
  let start = amp + 1 in
  let rec scan j =
    if j - start > 12 then
      raise_at p amp "malformed entity: no ';' within 12 characters of '&'"
    else if j >= p.len then
      raise_at p amp "malformed entity: unterminated reference"
    else if p.src.[j] = ';' then j
    else scan (j + 1)
  in
  let semi = scan start in
  p.i <- semi + 1;
  let name = String.sub p.src start (semi - start) in
  match name with
  | "amp" -> Buffer.add_char b '&'
  | "lt" -> Buffer.add_char b '<'
  | "gt" -> Buffer.add_char b '>'
  | "quot" -> Buffer.add_char b '"'
  | "apos" -> Buffer.add_char b '\''
  | "" -> raise_at p amp "malformed entity: empty reference '&;'"
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
      | Some cp -> raise_at p amp
          "numeric character reference '&%s;' is out of range (%d)" name cp
      | None ->
          raise_at p amp "malformed numeric character reference '&%s;'"
            name)
  | _ -> raise_at p amp "unknown entity '&%s;'" name

(* Decodes from the cursor up to and past the closing '"' of the value
   whose quote sits at [quote], or to the end of input when [quote] is
   negative (the bare-fragment mode {!unescape} uses). *)
let decode_into p b ~quote =
  let rec go () =
    if p.i >= p.len then begin
      if quote >= 0 then
        raise_at p quote "unterminated attribute value (quote opened here)"
    end
    else
      match p.src.[p.i] with
      | '"' when quote >= 0 -> p.i <- p.i + 1
      | '&' ->
          read_entity p b;
          go ()
      | c ->
          Buffer.add_char b c;
          p.i <- p.i + 1;
          go ()
  in
  go ()

let unescape s =
  let p = parser ~file:"<fragment>" s in
  let b = Buffer.create (String.length s) in
  decode_into p b ~quote:(-1);
  Buffer.contents b

(* The attribute [k]="value" under the cursor: one String.sub per value,
   or none for a short pair in [p.pairs]; only values holding a '&' are
   decoded. *)
let read_attr p k ~hash =
  let quote = p.i in
  expect_char p '"';
  let start = p.i in
  let j = ref start in
  while
    !j < p.len
    && match String.unsafe_get p.src !j with '"' | '&' -> false | _ -> true
  do
    incr j
  done;
  if !j >= p.len then
    raise_at p quote "unterminated attribute value (quote opened here)"
  else if p.src.[!j] = '"' then begin
    let n = !j - start in
    p.i <- !j + 1;
    if n > short_value then (k, String.sub p.src start n)
    else begin
      let h = ((hash * 31) + hash_slice p.src start n) land pairs_mask in
      let ((k', v') as cached) = p.pairs.(h) in
      (* [k] comes from [p.names]: a name evicted there and read again
         is a new copy, which only costs a miss here *)
      if k' == k && slice_equal p.src start n v' then cached
      else begin
        let kv = (k, String.sub p.src start n) in
        p.pairs.(h) <- kv;
        kv
      end
    end
  end
  else begin
    let b = Buffer.create (!j - start + 16) in
    Buffer.add_substring b p.src start (!j - start);
    p.i <- !j;
    decode_into p b ~quote;
    (k, Buffer.contents b)
  end

(* ------------------------------------------------------------------ *)
(* Elements                                                            *)
(* ------------------------------------------------------------------ *)

let push_attr p kv ~hash off =
  if p.na = Array.length p.a_pairs then begin
    let grow a fill =
      let a' = Array.make (2 * p.na) fill in
      Array.blit a 0 a' 0 p.na;
      a'
    in
    p.a_pairs <- grow p.a_pairs ("", "");
    p.a_hashes <- grow p.a_hashes 0;
    p.a_offs <- grow p.a_offs 0
  end;
  p.a_pairs.(p.na) <- kv;
  p.a_hashes.(p.na) <- hash;
  p.a_offs.(p.na) <- off;
  p.na <- p.na + 1

(* Index of an earlier attribute named [k] of the element being read, or
   -1: a scan for the usual few attributes, a table past [linear_attrs]. *)
let earlier_attr p k ~hash =
  if p.na < linear_attrs then begin
    let j = ref 0 in
    while
      !j < p.na
      && not (p.a_hashes.(!j) = hash && String.equal (fst p.a_pairs.(!j)) k)
    do
      incr j
    done;
    if !j = p.na then -1 else !j
  end
  else begin
    if Hashtbl.length p.seen = 0 then
      for j = 0 to p.na - 1 do
        Hashtbl.replace p.seen (fst p.a_pairs.(j)) j
      done;
    match Hashtbl.find_opt p.seen k with Some j -> j | None -> -1
  end

let rec collect_attrs p j acc =
  if j < 0 then acc
  else collect_attrs p (j - 1) (p.a_pairs.(j) :: acc)

let read_attrs p (f : open_el) =
  p.na <- 0;
  if Hashtbl.length p.seen > 0 then Hashtbl.reset p.seen;
  let more = ref true in
  while !more do
    skip_ws p;
    if p.i >= p.len then
      raise_at p f.f_off "unterminated element <%s> (opened here)" f.f_tag
    else
      match p.src.[p.i] with
      | '/' | '>' -> more := false
      | ch when is_name_char ch ->
          let k_off = p.i in
          let start = scan_name p in
          let n = p.i - start in
          let hash = hash_slice p.src start n in
          let k = name_at p start n ~hash in
          let first = earlier_attr p k ~hash in
          if first >= 0 then begin
            let fp = resolve p.doc p.a_offs.(first) in
            raise_at p k_off
              "duplicate attribute %s on <%s> (first occurrence at %s:%d:%d)" k
              f.f_tag p.file fp.line fp.col
          end;
          skip_ws p;
          expect_char p '=';
          skip_ws p;
          let kv = read_attr p k ~hash in
          if Hashtbl.length p.seen > 0 then Hashtbl.replace p.seen k p.na;
          push_attr p kv ~hash k_off
      | ch ->
          fail p "unexpected %C in <%s> (expected an attribute name, '>' or '/>')"
            ch f.f_tag
  done;
  f.f_attrs <- collect_attrs p (p.na - 1) [];
  if p.na > 0 then f.f_attr_offs <- Array.sub p.a_offs 0 p.na

let tree_of p f children =
  {
    tag = f.f_tag;
    attrs = f.f_attrs;
    children;
    t_src = p.doc;
    t_off = f.f_off;
    t_parsed = f.f_attrs;
    t_attr_offs = f.f_attr_offs;
  }

(* Pops the innermost open element as a tree with [children]; returns it
   when it was the root. *)
let close p f children =
  let t = tree_of p f children in
  match p.stack with
  | _ :: (parent :: _ as rest) ->
      p.stack <- rest;
      parent.f_kids <- t :: parent.f_kids;
      None
  | _ ->
      p.stack <- [];
      Some t

(* Reads an open tag; returns the tree when it closed the root. *)
let open_element p =
  skip_ws_and_comments p;
  let start = p.i in
  if p.i >= p.len then fail p "expected an element but reached end of input";
  (match p.src.[p.i] with
  | '<' when not (at2 p '<' '/') -> ()
  | '<' -> fail p "unexpected closing tag"
  | ch -> fail p "expected an element, found %C (text content is not supported)" ch);
  p.i <- p.i + 1;
  let tag = read_name p in
  let f = { f_tag = tag; f_off = start; f_attrs = []; f_attr_offs = [||]; f_kids = [] } in
  p.stack <- f :: p.stack;
  read_attrs p f;
  skip_ws p;
  if at2 p '/' '>' then begin
    p.i <- p.i + 2;
    close p f []
  end
  else begin
    expect_char p '>';
    None
  end

(* Reads the close tag of the innermost open element, whose "</" sits
   under the cursor. *)
let close_element p f =
  let close_off = p.i in
  p.i <- p.i + 2;
  let start = scan_name p in
  let n = p.i - start in
  if not (slice_equal p.src start n f.f_tag) then begin
    let op = resolve p.doc f.f_off in
    raise_at p close_off "mismatched closing tag </%s> for <%s> (opened at %s:%d:%d)"
      (String.sub p.src start n) f.f_tag p.file op.line op.col
  end;
  skip_ws p;
  expect_char p '>';
  close p f (List.rev f.f_kids)

(* Elements nest through [p.stack], not the OCaml stack, so nesting depth
   costs heap, not native stack the GC rescans. *)
let parse_root p =
  let rec children () =
    match p.stack with
    | [] -> assert false
    | f :: _ -> (
        skip_ws_and_comments p;
        let closed =
          if at2 p '<' '/' then close_element p f
          else if p.i >= p.len then
            raise_at p f.f_off "unterminated element <%s> (opened here)" f.f_tag
          else open_element p
        in
        match closed with Some t -> t | None -> children ())
  in
  match open_element p with Some t -> t | None -> children ()

let parse_tree ?file s =
  let p = parser ?file s in
  if looking_at p "\xef\xbb\xbf" then p.i <- 3;
  skip_ws_and_comments p;
  if looking_at p "<?" then
    skip_past p ~from:p.i ~close:"?>" ~opened:p.i
      "unterminated XML declaration (opened here)";
  let t = parse_root p in
  skip_ws_and_comments p;
  if p.i < p.len then
    fail p "trailing content after the root element (found %C)" p.src.[p.i];
  t

(* ------------------------------------------------------------------ *)
(* IR -> text                                                          *)
(* ------------------------------------------------------------------ *)

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* [string_of_int n], without the string *)
let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

let int_attr b k n =
  Buffer.add_char b ' ';
  Buffer.add_string b k;
  Buffer.add_string b "=\"";
  add_int b n;
  Buffer.add_char b '"'

let rec add_ids b proj = function
  | [] -> ()
  | d :: rest ->
      add_int b (proj d);
      if rest <> [] then Buffer.add_char b ',';
      add_ids b proj rest

(* the [proj] of each dependency, comma-separated *)
let ids_attr b k proj deps =
  Buffer.add_char b ' ';
  Buffer.add_string b k;
  Buffer.add_string b "=\"";
  add_ids b proj deps;
  Buffer.add_char b '"'

let loc_attrs b ~buf ~off = function
  | None ->
      add_attr b buf "n";
      int_attr b off (-1)
  | Some (l : Loc.t) ->
      add_attr b buf (Buffer_id.name l.Loc.buf);
      int_attr b off l.Loc.index

let write_step b (st : Ir.step) =
  newline_indent b 3;
  Buffer.add_string b "<step";
  int_attr b "s" st.Ir.s;
  add_attr b "type" (Instr.opcode_name st.Ir.op);
  loc_attrs b ~buf:"srcbuf" ~off:"srcoff" st.Ir.src;
  loc_attrs b ~buf:"dstbuf" ~off:"dstoff" st.Ir.dst;
  int_attr b "cnt" st.Ir.count;
  (match st.Ir.depends with
  | [] ->
      int_attr b "depid" (-1);
      int_attr b "deps" (-1)
  | ds ->
      ids_attr b "depid" fst ds;
      ids_attr b "deps" snd ds);
  int_attr b "hasdep" (if st.Ir.has_dep then 1 else 0);
  Buffer.add_string b "/>"

(* [open_tag] has written "<tag attrs"; the children follow, one level
   deeper, or the tag closes itself when there are none. *)
let close_tag b depth tag ~empty =
  if empty then Buffer.add_string b "/>"
  else begin
    newline_indent b depth;
    Buffer.add_string b "</";
    Buffer.add_string b tag;
    Buffer.add_char b '>'
  end

let write_tb b (tb : Ir.tb) =
  newline_indent b 2;
  Buffer.add_string b "<tb";
  int_attr b "id" tb.Ir.tb_id;
  int_attr b "send" tb.Ir.send;
  int_attr b "recv" tb.Ir.recv;
  int_attr b "chan" tb.Ir.chan;
  let empty = Array.length tb.Ir.steps = 0 in
  if not empty then Buffer.add_char b '>';
  Array.iter (write_step b) tb.Ir.steps;
  close_tag b 2 "tb" ~empty

let write_gpu b (g : Ir.gpu) =
  newline_indent b 1;
  Buffer.add_string b "<gpu";
  int_attr b "id" g.Ir.gpu_id;
  int_attr b "i_chunks" g.Ir.input_chunks;
  int_attr b "o_chunks" g.Ir.output_chunks;
  int_attr b "s_chunks" g.Ir.scratch_chunks;
  let empty = Array.length g.Ir.tbs = 0 in
  if not empty then Buffer.add_char b '>';
  Array.iter (write_tb b) g.Ir.tbs;
  close_tag b 1 "gpu" ~empty

(* Prints the layout {!print_tree} gives the IR's tree, without building
   the tree. Steps print in 115 to 235 bytes, most under 144. *)
let to_string (ir : Ir.t) =
  let steps =
    Array.fold_left
      (fun n (g : Ir.gpu) ->
        Array.fold_left (fun n (tb : Ir.tb) -> n + Array.length tb.Ir.steps) n g.Ir.tbs)
      0 ir.Ir.gpus
  in
  let b = Buffer.create (1024 + (144 * steps)) in
  Buffer.add_string b "<?xml version=\"1.0\"?>\n<algo";
  let coll = ir.Ir.collective in
  add_attr b "name" ir.Ir.name;
  add_attr b "proto" (Msccl_topology.Protocol.name ir.Ir.proto);
  int_attr b "nranks" coll.Collective.num_ranks;
  int_attr b "chunk_factor" coll.Collective.chunk_factor;
  int_attr b "inplace" (if coll.Collective.inplace then 1 else 0);
  (match coll.Collective.kind with
  | Collective.Broadcast r | Collective.Reduce r | Collective.Gather r
  | Collective.Scatter r ->
      add_attr b "coll" (Collective.name coll);
      int_attr b "root" r
  | Collective.Custom c ->
      add_attr b "coll" "custom";
      add_attr b "cname" c.Collective.custom_name;
      int_attr b "in_chunks" c.Collective.input_chunks;
      int_attr b "out_chunks" c.Collective.output_chunks
  | Collective.Allreduce | Collective.Allgather | Collective.Reduce_scatter
  | Collective.Alltoall | Collective.Alltonext ->
      add_attr b "coll" (Collective.name coll));
  let empty = Array.length ir.Ir.gpus = 0 in
  if not empty then Buffer.add_char b '>';
  Array.iter (write_gpu b) ir.Ir.gpus;
  close_tag b 0 "algo" ~empty;
  Buffer.add_char b '\n';
  Buffer.contents b

let save ir path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ir))

(** MSCCL-IR XML printing, an offset-positioned XML lexer, and a tree
    parser built on it.

    The on-disk format follows the spirit of msccl's algorithm XML files:
    an [<algo>] root with per-GPU [<gpu>] elements containing [<tb>] thread
    blocks and [<step>] instructions. This module prints an IR, lexes XML
    text into events and parses it into a {!tree}; the one XML→IR decoder
    is [Msccl_interop.Ingest], which consumes the events, and reads
    {!to_string}'s output back with no diagnostics into an IR satisfying
    [Ir.equal], with one caveat: a [Custom] collective's postcondition is
    a function and cannot round-trip, so decoded custom collectives get a
    vacuous postcondition (shape-only) — built-in collectives round-trip
    exactly.

    The lexer is the repo's hostile-input boundary. It is one index scan
    over the source that emits start tag, attribute and end tag events
    (the Xmlm pull style): a name read again shares its first copy through
    a small per-document cache, an attribute value is a source range
    (decoded only when it holds a ['&']), and open elements nest on an
    explicit stack, so neither nesting depth nor attribute count costs
    more than linear time. Every element and attribute carries the byte
    offset where it starts; {!pos}, {!nth_attr_pos}, {!resolve} and
    {!Parse_error} turn offsets into 1-based [line:col] positions (columns
    count bytes, ['\n'] is the only line break) through a line-start index
    built on first use, so a document that draws no diagnostic never pays
    for positions. Every failure raises a structured {!Parse_error} with
    the message, a file label, the exact position and the stack of open
    elements rendered ["<tag> at FILE:LINE:COL"] (the 0install [qdom]
    style), at most {!max_context} of them. Attribute values decode the
    five named entities plus numeric character references ([&#NN;],
    [&#xNN;]); malformed or unknown entities and duplicate attributes are
    rejected with their source position. {!parse_tree} builds its tree
    from the events; a short [name="value"] pair read again shares its
    first copy there, and any other value is one [String.sub].

    The printer writes the IR straight into one buffer; no tree is built.
    {!print_tree} prints a generic tree in the same layout, for callers
    that rewrite trees ([Msccl_interop.Mangle]). *)

type pos = { line : int; col : int }
(** 1-based source position. {!no_pos} ([0:0]) marks synthesized nodes. *)

val no_pos : pos

type source
(** The text a tree was parsed from, with its line-start index. *)

val resolve : source -> int -> pos
(** The position of a byte offset of the text ({!no_pos} for a negative
    offset). *)

type tree = {
  tag : string;
  attrs : (string * string) list;  (** decoded values, in document order *)
  children : tree list;
  t_src : source;
  t_off : int;  (** byte offset of the opening ['<']; [-1] when synthesized *)
  t_parsed : (string * string) list;
      (** [attrs] as parsed; [t_attr_offs] is read by index only while
          [attrs] is physically this list *)
  t_attr_offs : int array;
      (** byte offset of each attribute's name, in the order of [t_parsed] *)
}

val source_length : tree -> int
(** Size in bytes of the document the tree was parsed from (0 for
    synthesized nodes). *)

val el : string -> (string * string) list -> tree list -> tree
(** Synthesized node carrying {!no_pos}. *)

val pos : tree -> pos
(** Position of the element's opening ['<'] ({!no_pos} when synthesized). *)

val nth_attr_pos : tree -> int -> pos
(** Position of the [i]-th attribute of [attrs], falling back to the
    element's. On a tree whose [attrs] was rewritten after the parse
    (e.g. [{ t with attrs = ... }]), the first parsed attribute of the
    same name gives the position. *)

val nth_attr_off : tree -> int -> int
(** The offset in [t_src] that {!nth_attr_pos} resolves. *)

type error = {
  e_message : string;
  e_file : string;  (** ["<string>"] when parsed from memory *)
  e_pos : pos;
  e_context : string list;
      (** Enclosing elements, innermost first, each rendered
          ["<tag> at FILE:LINE:COL"]. *)
}

exception Parse_error of error

val frame : file:string -> string -> pos -> string
(** ["<tag> at file:line:col"] (or ["<tag>"] at {!no_pos}). *)

val max_context : int
(** The most frames an [e_context] holds (32). A deeper document keeps
    the innermost [max_context - 2], then one
    ["(N more enclosing elements)"] frame, then the outermost. *)

(** {2 Lexer} *)

type lexer
(** A scan of one document, which {!next} advances one event at a
    time. *)

type event =
  | Start_tag  (** ["<tag"]: the token's [name] is the tag, [off] its ['<'] *)
  | Attribute
      (** [name="value"] in a start tag: the token holds the attribute's
          name, its offset and its value's range *)
  | Start_tag_end  (** the ['>'] or ["/>"] that ends the start tag *)
  | End_tag
      (** the close of the innermost open element (its ["</tag>"], or the
          ["/>"] of an empty one): the token's [name] and [off] are its
          start tag's *)
  | End_of_input  (** after the root closed and only comments followed *)

(** The data of the current event, updated in place by {!next}: a
    consumer reads the fields. An event allocates only a name that a small
    per-document cache does not hold. *)
type token = private {
  mutable name : string;
      (** a tag or attribute name; a name read again is usually the
          string of its earlier reads *)
  mutable off : int;  (** of the tag's ['<'], or of the attribute name *)
  mutable v_start : int;
      (** of an attribute value's first byte, after the opening quote *)
  mutable v_stop : int;  (** of an attribute value's closing quote *)
  mutable escaped : bool;
      (** whether the value holds an entity reference, so that its text
          differs from the source range *)
}

val lexer : ?file:string -> string -> lexer

val next : lexer -> event
(** The next event. Checks everything {!parse_tree} does, and raises
    the same {!Parse_error} at the same point of the scan. After
    [End_of_input], returns [End_of_input] again. *)

val token : lexer -> token
(** The lexer's one token. *)

val value : lexer -> string
(** The current attribute value, decoded. *)

val source : lexer -> source

(** {2 Trees} *)

val parse_tree : ?file:string -> string -> tree
(** Parses one element (after an optional BOM, declaration and comments)
    and demands end-of-input after it: the tree of the {!lexer}'s events.
    Raises {!Parse_error} with the exact position on failure. *)

val print_tree : Format.formatter -> tree -> unit
(** Prints one element per line, indented two spaces per depth, with
    escaped attributes; meant for a formatter at column 0. *)

val escape : string -> string

val unescape : string -> string
(** Decodes entity references in a bare fragment ([&amp;], [&lt;], [&gt;],
    [&quot;], [&apos;], [&#NN;], [&#xNN;]); raises {!Parse_error}
    positioned inside the fragment on malformed or unknown entities. *)

val to_string : Ir.t -> string

val save : Ir.t -> string -> unit
(** [save ir path] writes the XML file. *)


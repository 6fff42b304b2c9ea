(** MSCCL-IR XML printing and an offset-positioned XML tree parser.

    The on-disk format follows the spirit of msccl's algorithm XML files:
    an [<algo>] root with per-GPU [<gpu>] elements containing [<tb>] thread
    blocks and [<step>] instructions. This module prints an IR and parses
    XML text into a {!tree}; the one XML→IR decoder is
    [Msccl_interop.Ingest], which reads {!to_string}'s output back with no
    diagnostics into an IR satisfying [Ir.equal], with one caveat: a
    [Custom] collective's postcondition is a function and cannot
    round-trip, so decoded custom collectives get a vacuous postcondition
    (shape-only) — built-in collectives round-trip exactly.

    The parser is the repo's hostile-input boundary. It is one index scan
    over the source: a name or a short [name="value"] pair read again
    shares its first copy through a small per-parse cache, any other
    attribute value is one [String.sub] (decoded only when it holds a
    ['&']), and open elements nest on an explicit
    stack, so neither nesting depth nor attribute count costs more than
    linear time. Every element and attribute records the byte offset where
    it starts; {!pos}, {!nth_attr_pos} and {!Parse_error} resolve offsets to
    1-based [line:col] positions (columns count bytes, ['\n'] is the only
    line break) through a line-start index built on first use, so a
    document that draws no diagnostic never pays for positions. Every
    failure raises a structured {!Parse_error} with the message, a file
    label, the exact position and the stack of open elements rendered
    ["<tag> at FILE:LINE:COL"] (the 0install [qdom] style). Attribute
    values decode the five named entities plus numeric character
    references ([&#NN;], [&#xNN;]); malformed or unknown entities and
    duplicate attributes are rejected with their source position.

    The printer writes the IR straight into one buffer; no tree is built.
    {!print_tree} prints a generic tree in the same layout, for callers
    that rewrite trees ([Msccl_interop.Mangle]). *)

type pos = { line : int; col : int }
(** 1-based source position. {!no_pos} ([0:0]) marks synthesized nodes. *)

val no_pos : pos

type source
(** The text a tree was parsed from, with its line-start index. *)

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

val parse_tree : ?file:string -> string -> tree
(** Parses one element (after an optional BOM, declaration and comments)
    and demands end-of-input after it. Raises {!Parse_error} with the
    exact position on failure. *)

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


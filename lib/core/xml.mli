(** MSCCL-IR XML printing and a position-tracking XML tree parser.

    The on-disk format follows the spirit of msccl's algorithm XML files:
    an [<algo>] root with per-GPU [<gpu>] elements containing [<tb>] thread
    blocks and [<step>] instructions. This module prints an IR and parses
    XML text into a {!tree}; the one XML→IR decoder is
    [Msccl_interop.Ingest], which reads {!to_string}'s output back with no
    diagnostics into an IR satisfying [Ir.equal], with one caveat: a
    [Custom] collective's postcondition is a function and cannot
    round-trip, so decoded custom collectives get a vacuous postcondition
    (shape-only) — built-in collectives round-trip exactly.

    The parser is the repo's hostile-input boundary: every element and
    attribute carries its 1-based [line:col] source position, and every
    failure raises a structured {!Parse_error} with the message, a file
    label, the exact position and the stack of open elements rendered
    ["<tag> at FILE:LINE:COL"] (the 0install [qdom] style). Attribute
    values decode the five named entities plus numeric character
    references ([&#NN;], [&#xNN;]); malformed or unknown entities and
    duplicate attributes are rejected with their source position.

    A small generic XML subset (elements, attributes, comments, no text
    nodes) is exposed for reuse; [Msccl_interop.Ingest] decodes it,
    collecting every diagnostic, on top of {!parse_tree}. *)

type pos = { line : int; col : int }
(** 1-based source position. {!no_pos} ([0:0]) marks synthesized nodes. *)

val no_pos : pos

type tree = {
  tag : string;
  attrs : (string * string) list;  (** decoded values, in document order *)
  children : tree list;
  t_pos : pos;  (** position of the opening ['<'] *)
  t_attr_pos : (string * pos) list;  (** source position of each attribute *)
}

val el : string -> (string * string) list -> tree list -> tree
(** Synthesized node carrying {!no_pos} (what {!to_tree} builds). *)

val attr_pos : tree -> string -> pos
(** Position of a named attribute, falling back to the element's. *)

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
(** Pretty-prints with 2-space indentation and escaped attributes. *)

val escape : string -> string

val unescape : string -> string
(** Decodes entity references in a bare fragment ([&amp;], [&lt;], [&gt;],
    [&quot;], [&apos;], [&#NN;], [&#xNN;]); raises {!Parse_error}
    positioned inside the fragment on malformed or unknown entities. *)

val to_tree : Ir.t -> tree

val to_string : Ir.t -> string

val save : Ir.t -> string -> unit
(** [save ir path] writes the XML file. *)


(** Tolerant, diagnostics-collecting ingestion of MSCCL XML: the repo's
    one XML→IR decoder.

    {!Msccl_core.Xml} only lexes, parses trees and prints IR. Every reader of
    MSCCL-IR — the CLI, the fuzz oracles, the tests — decodes through
    this module. Real MSCCL programs come from the msccl-tools/TACCL
    toolchain in a dialect with extra attributes ([ngpus],
    [nchunksperloop], [nchannels], [outofplace], long opcode and buffer
    names...) and no ordering guarantees, and a production service must
    treat such files as untrusted input. This module is that boundary: a
    schema-validated decoder that

    - tolerates unknown attributes and unknown elements (warning
      diagnostics, never failures; at most {!max_warnings} per rule and
      document, then a count),
    - accepts attribute aliases and element reordering ([<gpu>]/[<tb>]
      blocks and [<step>]s are matched by their declared ids, not by
      document position),
    - defaults optional fields ([chan], [cnt], [hasdep], dependency
      lists...),
    - bounds the buffers a document may declare by its size (16 chunks
      per byte, at least 2{^16}, counting every gpu buffer and a custom
      collective's [in_chunks]/[out_chunks]), since every consumer
      allocates them,
    - collects {e all} diagnostics in one pass instead of failing fast,
      each carrying the exact [FILE:LINE:COL] position and element
      context of its cause, and
    - runs post-decode semantic validation (rank/channel/step/dependency
      references in range, buffer bounds, send/recv pairing) before
      handing a certified {!Msccl_core.Ir.t} — one that passed
      {!Msccl_core.Ir.validate} — to the analysis pipeline.

    {!of_string} never raises on any input, hostile or otherwise: every
    rejection is a structured diagnostic (the [ingest] fuzz oracle holds
    it to that over seeded {!Mangle} corruptions).

    Strict decoding is a pattern, not a mode: the repo's own
    {!Msccl_core.Xml.to_string} output must come back as [Ok (ir, [])] —
    no warning — with [ir] {!Msccl_core.Ir.equal} to the printed IR. *)

open Msccl_core

type severity = Error | Warning

type diag = {
  d_severity : severity;
  d_rule : string;
      (** ["parse"], ["schema"], ["range"], ["pairing"], ["validate"]... *)
  d_message : string;
  d_file : string;
  d_pos : Xml.pos;
  d_context : string list;  (** enclosing elements, innermost first *)
}

val max_warnings : int
(** The warnings of one rule reported per document (16). Past them, one
    warning of that rule at the end of the report, placed where the first
    unreported one arose, counts the rest. *)

val errors : diag list -> diag list

val warnings : diag list -> diag list

val diag_to_string : diag -> string
(** ["FILE:LINE:COL: severity[rule]: message"] plus one
    ["  in <tag> at ..."] line per context frame. *)

val diags_to_string : diag list -> string
(** All diagnostics, one per line group, in report order. *)

val diags_json : diag list -> string
(** JSON array of
    [{"severity","rule","message","file","line","col","context"}] —
    the machine-readable shape [msccl verify/lint/analyze FILE --json]
    emit on unusable input (exit 2). *)

val of_string : ?file:string -> string -> (Ir.t * diag list, diag list) result
(** [Ok (ir, warnings)] on acceptance — [ir] passed semantic validation
    and {!Msccl_core.Ir.validate} — or [Error diags] with at least one
    [Error]-severity diagnostic. Decodes the events of
    {!Msccl_core.Xml.lexer} as they come, building no tree. A parse error
    becomes the single structured ["parse"] diagnostic {!parse_diag}: the
    diagnostics of what was decoded before it are dropped. Never raises. *)

val of_tree : ?file:string -> Xml.tree -> (Ir.t * diag list, diag list) result
(** {!of_string} of a parsed (and possibly rewritten) tree: its elements
    and attributes are replayed as events into the same decoder. Each
    position resolves through its own node ({!Msccl_core.Xml.nth_attr_pos}
    for attributes), so synthesized nodes stay unpositioned. On a tree
    {!Msccl_core.Xml.parse_tree} returned, [of_tree ~file t] equals
    [of_string ~file] of its text: the same program and the same
    diagnostics. *)

val parse_diag : Xml.error -> diag
(** The ["parse"] diagnostic of a {!Msccl_core.Xml.Parse_error}. *)

val int_value : string -> int option
(** How every integer attribute value is read:
    [int_of_string_opt (String.trim v)], with a plain decimal
    ([-?[0-9]{1,18}]) read in place. *)

val load : string -> (Ir.t * diag list, diag list) result
(** Reads and ingests a file; unreadable files become a ["io"]
    diagnostic. Never raises. *)

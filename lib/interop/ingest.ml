open Msccl_core
module P = Msccl_topology.Protocol

type severity = Error | Warning

type diag = {
  d_severity : severity;
  d_rule : string;
  d_message : string;
  d_file : string;
  d_pos : Xml.pos;
  d_context : string list;
}

let errors ds = List.filter (fun d -> d.d_severity = Error) ds

let warnings ds = List.filter (fun d -> d.d_severity = Warning) ds

let sev_name = function Error -> "error" | Warning -> "warning"

let diag_to_string d =
  let head =
    if d.d_pos = Xml.no_pos then
      Printf.sprintf "%s: %s[%s]: %s" d.d_file (sev_name d.d_severity)
        d.d_rule d.d_message
    else
      Printf.sprintf "%s:%d:%d: %s[%s]: %s" d.d_file d.d_pos.Xml.line
        d.d_pos.Xml.col (sev_name d.d_severity) d.d_rule d.d_message
  in
  head ^ String.concat "" (List.map (fun c -> "\n  in " ^ c) d.d_context)

let diags_to_string ds = String.concat "\n" (List.map diag_to_string ds)

let diags_json ds =
  let one d =
    Printf.sprintf
      "{\"severity\":\"%s\",\"rule\":\"%s\",\"message\":\"%s\",\"file\":\"%s\",\
       \"line\":%d,\"col\":%d,\"context\":[%s]}"
      (sev_name d.d_severity) (Lint.json_escape d.d_rule)
      (Lint.json_escape d.d_message) (Lint.json_escape d.d_file)
      d.d_pos.Xml.line d.d_pos.Xml.col
      (String.concat ","
         (List.map (fun c -> "\"" ^ Lint.json_escape c ^ "\"") d.d_context))
  in
  "[" ^ String.concat "," (List.map one ds) ^ "]"

(* ------------------------------------------------------------------ *)
(* Diagnostic accumulation                                             *)
(* ------------------------------------------------------------------ *)

(* The elements enclosing a diagnostic's cause, innermost first, each
   with the document and offset of its '<'; rendered into frames only
   when a diagnostic is emitted. *)
type ctx = Top | In of { tag : string; src : Xml.source; off : int; up : ctx }

let rec frames ~file = function
  | Top -> []
  | In f -> Xml.frame ~file f.tag (Xml.resolve f.src f.off) :: frames ~file f.up

(* A warning rule's tally in one document, and where the first warning
   past the cap arose. *)
type held = {
  h_rule : string;
  mutable h_seen : int;
  mutable h_pos : Xml.pos;
  mutable h_ctx : ctx;
}

type st = {
  s_file : string;
  mutable s_diags : diag list; (* reversed *)
  mutable s_held : held list; (* reversed *)
  mutable s_errors : int;
  s_bytes : int;  (* document size *)
  mutable s_chunks_left : int;  (* of the chunk budget; -1 once exceeded *)
  (* short attribute values read so far, direct-mapped by the hash of
     their text, so that a repeat (an opcode, a buffer name, a flag) is
     the first copy *)
  s_words : string array;
}

(* Warnings reported per rule and document; one more warning at the end
   counts the rest, so a file with thousands of unknown attributes gets
   a short report. *)
let max_warnings = 16

let diag st sev rule ~pos ~ctx m =
  {
    d_severity = sev;
    d_rule = rule;
    d_message = m;
    d_file = st.s_file;
    d_pos = pos;
    d_context = frames ~file:st.s_file ctx;
  }

(* Tallies a warning of [rule]; whether it is within the cap. *)
let tally st rule ~pos ~ctx =
  let h =
    match List.find_opt (fun h -> String.equal h.h_rule rule) st.s_held with
    | Some h -> h
    | None ->
        let h = { h_rule = rule; h_seen = 0; h_pos = pos; h_ctx = ctx } in
        st.s_held <- h :: st.s_held;
        h
  in
  h.h_seen <- h.h_seen + 1;
  if h.h_seen = max_warnings + 1 then begin
    h.h_pos <- pos;
    h.h_ctx <- ctx
  end;
  h.h_seen <= max_warnings

let add st sev rule ~pos ~ctx fmt =
  if sev = Error || tally st rule ~pos ~ctx then
    Format.kasprintf
      (fun m ->
        if sev = Error then st.s_errors <- st.s_errors + 1;
        st.s_diags <- diag st sev rule ~pos ~ctx m :: st.s_diags)
      fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

(* The report so far, in order, then one count per capped rule. *)
let report st =
  List.rev st.s_diags
  @ List.filter_map
      (fun h ->
        if h.h_seen <= max_warnings then None
        else
          Some
            (diag st Warning h.h_rule ~pos:h.h_pos ~ctx:h.h_ctx
               (Printf.sprintf "%d more %s warning(s) not shown"
                  (h.h_seen - max_warnings) h.h_rule)))
      (List.rev st.s_held)

let err st = add st Error

let warn st = add st Warning

let failed st = st.s_errors > 0

(* Every consumer allocates the buffers a program declares, so a hostile
   file could ask for gigabytes in a few bytes. A document may declare
   16 chunks per byte of its text, and 2^16 whatever its size: the
   densest registry print (halving-doubling@256) declares 0.12 chunks
   per byte. *)
let chunk_budget ~bytes = max (1 lsl 16) (16 * bytes)

(* Charges [n] declared chunks to the budget. The first buffer that does
   not fit gets a range error; the document is then rejected, so later
   ones are not charged. *)
let charge st ~pos ~ctx what n =
  if st.s_chunks_left < 0 then ()
  else if n < 0 || n > st.s_chunks_left then begin
    err st "range" ~pos ~ctx
      "%s: %d chunk(s) exceed the chunk budget of this %d-byte document \
       (%d chunks, %d left)"
      what n st.s_bytes
      (chunk_budget ~bytes:st.s_bytes)
      st.s_chunks_left;
    st.s_chunks_left <- -1
  end
  else st.s_chunks_left <- st.s_chunks_left - n

(* ------------------------------------------------------------------ *)
(* Attributes, per element kind                                        *)
(* ------------------------------------------------------------------ *)

(* [slot] maps each attribute name an element kind knows to its slot in
   [0, nslots), or to [unknown] or [ignored]. *)
let unknown = -1

let ignored = -2

(* The element of one kind being decoded, reused for every element of
   that kind: its document, the offset of its '<' and the kind it nests
   in, and per slot the first attribute of that name: the name as
   written, where it starts, and its value as the range
   [starts, stops) of [bases] (the document, or the decoded value when
   it held an entity). [starts] is -1 for an absent attribute. *)
type slots = {
  tag : string;
  slot : string -> int;
  up : slots option;
  keys : string array;
  bases : string array;
  starts : int array;
  stops : int array;
  offs : int array;
  mutable src : Xml.source;
  mutable off : int;
}

let slots ~src ?up tag nslots slot =
  {
    tag;
    slot;
    up;
    keys = Array.make nslots "";
    bases = Array.make nslots "";
    starts = Array.make nslots (-1);
    stops = Array.make nslots 0;
    offs = Array.make nslots 0;
    src;
    off = -1;
  }

let rec ctx_of sl =
  In
    {
      tag = sl.tag;
      src = sl.src;
      off = sl.off;
      up = (match sl.up with None -> Top | Some u -> ctx_of u);
    }

(* The element's position. *)
let epos sl = Xml.resolve sl.src sl.off

(* [slot] when present, or -1; [get2] prefers [s1] to its alias [s2]. *)
let get sl slot = if sl.starts.(slot) >= 0 then slot else -1

let get2 sl s1 s2 = if sl.starts.(s1) >= 0 then s1 else get sl s2

let key sl slot = sl.keys.(slot)

let apos sl slot = Xml.resolve sl.src sl.offs.(slot)

let words_mask = 63

(* The value of [slot] as a string: one String.sub, or none for a short
   value in [st.s_words]. *)
let value st sl slot =
  let b = sl.bases.(slot) and i = sl.starts.(slot) in
  let n = sl.stops.(slot) - i in
  if n > 8 then String.sub b i n
  else begin
    let h = ref n in
    for k = i to i + n - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get b k)
    done;
    let h = !h land words_mask in
    let w = st.s_words.(h) in
    let k = ref 0 in
    if String.length w = n then
      while !k < n && String.unsafe_get w !k = String.unsafe_get b (i + !k) do
        incr k
      done;
    if String.length w = n && !k = n then w
    else begin
      let w = String.sub b i n in
      st.s_words.(h) <- w;
      w
    end
  end

(* The value of a plain decimal [-?[0-9]{1,18}] in [v.[i..j)], or
   [not_decimal]; eighteen digits cannot overflow. *)
let not_decimal = min_int

let decimal v i j =
  let neg = i < j && v.[i] = '-' in
  let i0 = if neg then i + 1 else i in
  if j - i0 < 1 || j - i0 > 18 then not_decimal
  else begin
    let n = ref 0 and k = ref i0 in
    while
      !k < j && match String.unsafe_get v !k with '0' .. '9' -> true | _ -> false
    do
      n := (!n * 10) + Char.code (String.unsafe_get v !k) - 48;
      incr k
    done;
    if !k < j then not_decimal else if neg then - !n else !n
  end

(* [Some n] for the ids, offsets and counts most attributes hold, shared
   rather than allocated per value. Filled by the first [decoder]: a
   table built as the program starts moves the GC's heap growth in runs
   that never ingest (perfbench's sym-frontier peak heap, 12.25 -> 14.85
   MiB). *)
let small_ints = ref [||]

(* [int_of_string_opt (String.trim v)] of [v.[i..j)], read in place when
   it is a plain decimal. *)
let int_in v i j =
  let n = decimal v i j and shared = !small_ints in
  if n >= -1 && n + 1 < Array.length shared then Array.unsafe_get shared (n + 1)
  else if n <> not_decimal then Some n
  else int_of_string_opt (String.trim (String.sub v i (j - i)))

let int_value v = int_in v 0 (String.length v)

(* [String.lowercase_ascii (String.trim v)], without the copies when
   [v] is already in that form. *)
let canonical v =
  let n = String.length v in
  let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false in
  let i = ref 0 in
  while !i < n && not (v.[!i] >= 'A' && v.[!i] <= 'Z') do
    incr i
  done;
  if !i = n && (n = 0 || not (is_space v.[0] || is_space v.[n - 1])) then v
  else String.lowercase_ascii (String.trim v)

let int_of st sl slot =
  match int_in sl.bases.(slot) sl.starts.(slot) sl.stops.(slot) with
  | Some n -> Some n
  | None ->
      err st "schema" ~pos:(apos sl slot) ~ctx:(ctx_of sl)
        "<%s> attribute %s: %S is not an integer" sl.tag (key sl slot)
        (value st sl slot);
      None

let req_int st sl slot name =
  match get sl slot with
  | -1 ->
      err st "schema" ~pos:(epos sl) ~ctx:(ctx_of sl)
        "<%s> is missing the required attribute %s" sl.tag name;
      None
  | s -> int_of st sl s

(* [found] is a slot from {!get}/{!get2}. *)
let opt_int st sl found ~default =
  match found with -1 -> Some default | s -> int_of st sl s

let bool_of st sl slot =
  let v = value st sl slot in
  match canonical v with
  | "1" | "true" -> Some true
  | "0" | "false" -> Some false
  | _ ->
      err st "schema" ~pos:(apos sl slot) ~ctx:(ctx_of sl)
        "<%s> attribute %s: %S is not a boolean (want 0/1/true/false)" sl.tag
        (key sl slot) v;
      None

(* ------------------------------------------------------------------ *)
(* Dialect vocabularies                                                *)
(* ------------------------------------------------------------------ *)

(* Short codes are the wire format shared with msccl-tools; the long
   names appear in hand-written and third-party files. *)
let opcode_of_dialect s =
  match Instr.opcode_of_name s with
  | Some _ as op -> op
  | None -> (
      match String.lowercase_ascii s with
      | "send" -> Some Instr.Send
      | "recv" | "receive" -> Some Instr.Recv
      | "copy" -> Some Instr.Copy
      | "reduce" -> Some Instr.Reduce
      | "recv_reduce_copy" | "recvreducecopy" -> Some Instr.Recv_reduce_copy
      | "recv_copy_send" | "recvcopysend" -> Some Instr.Recv_copy_send
      | "recv_reduce_send" | "recvreducesend" -> Some Instr.Recv_reduce_send
      | "recv_reduce_copy_send" | "recvreducecopysend" ->
          Some Instr.Recv_reduce_copy_send
      | "none" -> Some Instr.Nop
      | _ -> None)

let rooted = function
  | Collective.Broadcast _ | Collective.Reduce _ | Collective.Gather _
  | Collective.Scatter _ ->
      true
  | _ -> false

let with_root kind r =
  match kind with
  | Collective.Broadcast _ -> Collective.Broadcast r
  | Collective.Reduce _ -> Collective.Reduce r
  | Collective.Gather _ -> Collective.Gather r
  | Collective.Scatter _ -> Collective.Scatter r
  | k -> k

(* Elements decoded so far at one level, in document order. *)
type 'a acc = { mutable items : 'a array; mutable n : int }

let push acc x =
  if acc.n = Array.length acc.items then begin
    let items = Array.make (max 16 (2 * acc.n)) x in
    Array.blit acc.items 0 items 0 acc.n;
    acc.items <- items
  end;
  acc.items.(acc.n) <- x;
  acc.n <- acc.n + 1

let take acc =
  let a = Array.sub acc.items 0 acc.n in
  acc.n <- 0;
  a

(* [push] for ints, without the write barrier a polymorphic store pays. *)
let push_int (acc : int acc) x =
  if acc.n = Array.length acc.items then begin
    let items = Array.make (max 16 (2 * acc.n)) x in
    Array.blit acc.items 0 items 0 acc.n;
    acc.items <- items
  end;
  acc.items.(acc.n) <- x;
  acc.n <- acc.n + 1

(* ------------------------------------------------------------------ *)
(* Decoded intermediates (offsets kept for positioned semantic diags)  *)
(* ------------------------------------------------------------------ *)

(* A block's steps are decoded straight into the IR's form, into the
   array the IR keeps: a repair of a step's [has_dep] replaces its record
   there. Each step's document offset sits beside it in [dt_offs]; its
   document is [dt_sdocs.(i)], or [dt_doc] when [dt_sdocs] is empty (a
   block whose steps all come from its own document). *)
type dtb = {
  dt_doc : Xml.source;
  dt_off : int;
  dt_id : int;
  dt_send : int;
  dt_recv : int;
  dt_chan : int;
  dt_steps : Ir.step array;
  dt_offs : int array;
  dt_sdocs : Xml.source array;
}

type dgpu = {
  dg_doc : Xml.source;
  dg_off : int;
  dg_id : int;
  dg_in : int;  (* -1 = undeclared *)
  dg_out : int;  (* -1 = undeclared *)
  dg_scratch : int;
  dg_tbs : dtb array;
}

let step_doc tb i =
  if Array.length tb.dt_sdocs = 0 then tb.dt_doc else tb.dt_sdocs.(i)

(* Step [i] of [tb]'s position. *)
let step_pos tb i = Xml.resolve (step_doc tb i) tb.dt_offs.(i)

let tb_pos tb = Xml.resolve tb.dt_doc tb.dt_off

let gpu_pos g = Xml.resolve g.dg_doc g.dg_off

let gpu_ctx g up = In { tag = "gpu"; src = g.dg_doc; off = g.dg_off; up }

let tb_ctx tb up = In { tag = "tb"; src = tb.dt_doc; off = tb.dt_off; up }

let step_ctx tb i up =
  In { tag = "step"; src = step_doc tb i; off = tb.dt_offs.(i); up }

(* ------------------------------------------------------------------ *)
(* Step / tb / gpu decoding                                            *)
(* ------------------------------------------------------------------ *)

let st_s = 0 and st_type = 1 and st_srcbuf = 2 and st_srcoff = 3
and st_dstbuf = 4 and st_dstoff = 5 and st_cnt = 6 and st_count = 7
and st_depid = 8 and st_deps = 9 and st_hasdep = 10

let step_slot = function
  | "s" -> st_s | "type" -> st_type | "srcbuf" -> st_srcbuf
  | "srcoff" -> st_srcoff | "dstbuf" -> st_dstbuf | "dstoff" -> st_dstoff
  | "cnt" -> st_cnt | "count" -> st_count | "depid" -> st_depid
  | "deps" -> st_deps | "hasdep" -> st_hasdep | _ -> unknown

let tb_id = 0 and tb_send = 1 and tb_recv = 2 and tb_chan = 3

let tb_slot = function
  | "id" -> tb_id | "send" -> tb_send | "recv" -> tb_recv
  | "chan" -> tb_chan | _ -> unknown

let gpu_id = 0 and gpu_i = 1 and gpu_o = 2 and gpu_s = 3 and gpu_input = 4
and gpu_output = 5 and gpu_scratch = 6

let gpu_slot = function
  | "id" -> gpu_id | "i_chunks" -> gpu_i | "o_chunks" -> gpu_o
  | "s_chunks" -> gpu_s | "input_chunks" -> gpu_input
  | "output_chunks" -> gpu_output | "scratch_chunks" -> gpu_scratch
  | _ -> unknown

let al_name = 0 and al_proto = 1 and al_protocol = 2 and al_nranks = 3
and al_ngpus = 4 and al_chunk_factor = 5 and al_nchunksperloop = 6
and al_inplace = 7 and al_outofplace = 8 and al_coll = 9
and al_collective = 10 and al_root = 11 and al_cname = 12
and al_in_chunks = 13 and al_out_chunks = 14

let algo_slot = function
  | "name" -> al_name | "proto" -> al_proto | "protocol" -> al_protocol
  | "nranks" -> al_nranks | "ngpus" -> al_ngpus
  | "chunk_factor" -> al_chunk_factor
  | "nchunksperloop" -> al_nchunksperloop | "inplace" -> al_inplace
  | "outofplace" -> al_outofplace | "coll" -> al_coll
  | "collective" -> al_collective | "root" -> al_root
  | "cname" -> al_cname | "in_chunks" -> al_in_chunks
  | "out_chunks" -> al_out_chunks
  | "nchannels" | "minBytes" | "maxBytes" | "redop" | "version" -> ignored
  | _ -> unknown

(* [decode_loc]'s result when its diagnostic is recorded; told apart by
   physical equality. *)
let bad_loc = Some { Loc.rank = -1; buf = Buffer_id.Input; index = -1; count = 0 }

(* The location of a step of gpu [rank] moving [count] chunks, [None]
   when it has none. Loc.make's checks hold for any program that gets
   this far: the offset was just checked, a nonpositive count and gpu
   ids other than 0, 1, ... are errors. *)
let decode_loc st sl prefix ~buf ~off ~rank ~count =
  match get sl buf with
  | -1 -> None
  | bs -> (
      let v = value st sl bs in
      match canonical v with
      | "n" | "none" | "" -> None
      | b -> (
          match Buffer_id.of_name b with
          | None ->
              err st "schema" ~pos:(apos sl bs) ~ctx:(ctx_of sl)
                "<%s> attribute %s: unknown buffer %S (want i/o/s)" sl.tag
                (key sl bs) v;
              bad_loc
          | Some buffer -> (
              match get sl off with
              | -1 ->
                  err st "schema" ~pos:(epos sl) ~ctx:(ctx_of sl)
                    "<%s> has %sbuf=%S but no %soff" sl.tag prefix v prefix;
                  bad_loc
              | os -> (
                  match int_of st sl os with
                  | None -> bad_loc
                  | Some o when o < 0 ->
                      err st "range" ~pos:(apos sl os) ~ctx:(ctx_of sl)
                        "<%s> attribute %soff: negative offset %d" sl.tag
                        prefix o;
                      bad_loc
                  | Some index -> Some { Loc.rank; buf = buffer; index; count }))))

(* The list of an absent depid or deps, and of most present ones. *)
let no_ids = Some [ -1 ]

(* The comma-separated integers of [v.[i..stop)], each read as
   {!int_value} reads one; [None] when any is not an integer. *)
let rec id_list v i stop acc =
  let j = ref i in
  while !j < stop && String.unsafe_get v !j <> ',' do
    incr j
  done;
  let j = !j in
  let x = decimal v i j in
  if x <> not_decimal then more_ids v j stop acc x
  else
    match int_of_string_opt (String.trim (String.sub v i (j - i))) with
    | Some x -> more_ids v j stop acc x
    | None -> None

and more_ids v j stop acc x =
  if j < stop then id_list v (j + 1) stop (x :: acc)
  else if acc <> [] then Some (List.rev (x :: acc))
  else if x = -1 then no_ids
  else Some [ x ]

let decode_ids st sl slot =
  match get sl slot with
  | -1 -> no_ids
  | s -> (
      match id_list sl.bases.(s) sl.starts.(s) sl.stops.(s) [] with
      | Some ids -> Some ids
      | None ->
          err st "schema" ~pos:(apos sl s) ~ctx:(ctx_of sl)
            "<%s> attribute %s: bad id list %S" sl.tag (key sl slot)
            (value st sl s);
          None)

(* Decodes the step whose start tag has ended into [steps]; a step with
   an error is dropped, its diagnostics recorded. *)
(* [docs] stays empty while every step's document is [tb_doc], the
   block's own. *)
let decode_step st sl ~rank ~tb_doc ~offs ~docs steps =
  let s = req_int st sl st_s "s" in
  let op =
    match get sl st_type with
    | -1 ->
        err st "schema" ~pos:(epos sl) ~ctx:(ctx_of sl)
          "<step> is missing the required attribute type";
        None
    | k -> (
        let v = value st sl k in
        match opcode_of_dialect v with
        | Some op -> Some op
        | None ->
            err st "schema" ~pos:(apos sl k) ~ctx:(ctx_of sl)
              "<step> has unknown opcode %S" v;
            None)
  in
  let count =
    match opt_int st sl (get2 sl st_cnt st_count) ~default:1 with
    | Some n when n <= 0 ->
        let pos =
          match get2 sl st_cnt st_count with -1 -> epos sl | k -> apos sl k
        in
        err st "range" ~pos ~ctx:(ctx_of sl)
          "<step> attribute cnt: nonpositive count %d" n;
        None
    | x -> x
  in
  let loc_count = Option.value count ~default:1 in
  let src =
    decode_loc st sl "src" ~buf:st_srcbuf ~off:st_srcoff ~rank ~count:loc_count
  in
  let dst =
    decode_loc st sl "dst" ~buf:st_dstbuf ~off:st_dstoff ~rank ~count:loc_count
  in
  let depends =
    match (decode_ids st sl st_depid, decode_ids st sl st_deps) with
    | Some [ -1 ], Some [ -1 ] -> Some []
    | Some tbs, Some steps when List.length tbs = List.length steps ->
        Some (List.combine tbs steps)
    | Some _, Some _ ->
        err st "schema" ~pos:(epos sl) ~ctx:(ctx_of sl)
          "<step> depid/deps length mismatch";
        None
    | _ -> None
  in
  let has_dep =
    match get sl st_hasdep with -1 -> Some false | k -> bool_of st sl k
  in
  match (s, op, count, depends, has_dep) with
  | Some s, Some op, Some count, Some depends, Some has_dep
    when src != bad_loc && dst != bad_loc ->
      push steps { Ir.s; op; src; dst; count; depends; has_dep };
      push_int offs sl.off;
      if docs.n > 0 || sl.src != tb_doc then begin
        while docs.n < steps.n - 1 do
          push docs tb_doc
        done;
        push docs sl.src
      end
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Ordering tolerance: sort by declared id, reject duplicates and gaps *)
(* ------------------------------------------------------------------ *)

let order st ~ctx ~what ~id ~pos items =
  let in_order = ref true in
  Array.iteri (fun i x -> if id x <> i then in_order := false) items;
  if !in_order then items
  else begin
    let sorted = Array.copy items in
    Array.stable_sort (fun a b -> compare (id a) (id b)) sorted;
    let dup = ref false in
    for k = 1 to Array.length sorted - 1 do
      let a = sorted.(k - 1) and b = sorted.(k) in
      if id a = id b then begin
        dup := true;
        let first = pos a in
        err st "schema" ~pos:(pos b) ~ctx
          "duplicate %s id %d (first declared at %s:%d:%d)" what (id a)
          st.s_file first.Xml.line first.Xml.col
      end
    done;
    (* Report only the first gap; the rest are cascades of it. *)
    (if not !dup then
       let rec gap i =
         if i < Array.length sorted then
           let x = sorted.(i) in
           if id x <> i then
             err st "schema" ~pos:(pos x) ~ctx
               "%s ids are not contiguous: found id %d where %d was expected"
               what (id x) i
           else gap (i + 1)
       in
       gap 0);
    sorted
  end

(* ------------------------------------------------------------------ *)
(* Semantic validation over the decoded program                        *)
(* ------------------------------------------------------------------ *)

let buffer_size (g : dgpu) = function
  | Buffer_id.Input -> g.dg_in
  | Buffer_id.Output -> g.dg_out
  | Buffer_id.Scratch -> g.dg_scratch

(* Contexts and positions are built only for a diagnostic: a clean step
   or block allocates nothing here but its message counts. [gctx] is the
   gpu's context. *)
let check_bound st ~gctx g tb i (step : Ir.step) what = function
  | None -> ()
  | Some (l : Loc.t) ->
      let size = buffer_size g l.Loc.buf and off = l.Loc.index in
      if size >= 0 && off + step.Ir.count > size then
        err st "range" ~pos:(step_pos tb i) ~ctx:(step_ctx tb i (tb_ctx tb gctx))
          "step %d %s [%s %d..%d] beyond the %d-chunk %s buffer of gpu %d"
          step.Ir.s what (Buffer_id.name l.Loc.buf) off
          (off + step.Ir.count - 1)
          size (Buffer_id.long_name l.Loc.buf) g.dg_id

(* A dependency target not marked [has_dep] is repaired in place. *)
let rec check_deps st ~gctx g tb i (step : Ir.step) = function
  | [] -> ()
  | (dtb, dstep) :: rest ->
      let ntbs = Array.length g.dg_tbs in
      if dtb < 0 || dtb >= ntbs then
        err st "range" ~pos:(step_pos tb i) ~ctx:(step_ctx tb i (tb_ctx tb gctx))
          "step %d depends on unknown thread block %d (gpu %d has %d)" step.Ir.s
          dtb g.dg_id ntbs
      else if dtb = tb.dt_id then
        err st "range" ~pos:(step_pos tb i) ~ctx:(step_ctx tb i (tb_ctx tb gctx))
          "step %d has a same-tb dependency (ordering within a thread block \
           is implicit)"
          step.Ir.s
      else begin
        let target = g.dg_tbs.(dtb) in
        let tsteps = Array.length target.dt_steps in
        if dstep < 0 || dstep >= tsteps then
          err st "range" ~pos:(step_pos tb i) ~ctx:(step_ctx tb i (tb_ctx tb gctx))
            "step %d depends on unknown step %d of thread block %d (which has \
             %d)"
            step.Ir.s dstep dtb tsteps
        else
          let tgt = target.dt_steps.(dstep) in
          if not tgt.Ir.has_dep then begin
            warn st "repair" ~pos:(step_pos target dstep)
              ~ctx:(step_ctx tb i (tb_ctx tb gctx))
              "step %d of tb %d is a dependency target but not marked hasdep; \
               marking it"
              dstep dtb;
            target.dt_steps.(dstep) <- { tgt with Ir.has_dep = true }
          end
      end;
      check_deps st ~gctx g tb i step rest

let check_step st ~gctx g tb i =
  let step = tb.dt_steps.(i) in
  if Instr.sends step.Ir.op && tb.dt_send < 0 then
    err st "pairing" ~pos:(step_pos tb i) ~ctx:(step_ctx tb i (tb_ctx tb gctx))
      "step %d (%s) sends but its thread block has no send peer" step.Ir.s
      (Instr.opcode_name step.Ir.op);
  if Instr.receives step.Ir.op && tb.dt_recv < 0 then
    err st "pairing" ~pos:(step_pos tb i) ~ctx:(step_ctx tb i (tb_ctx tb gctx))
      "step %d (%s) receives but its thread block has no recv peer" step.Ir.s
      (Instr.opcode_name step.Ir.op);
  check_bound st ~gctx g tb i step "reads" step.Ir.src;
  check_bound st ~gctx g tb i step "writes" step.Ir.dst;
  check_deps st ~gctx g tb i step step.Ir.depends

let check_peer st ~gctx ~num_ranks g tb what p =
  if p >= num_ranks then
    err st "range" ~pos:(tb_pos tb) ~ctx:(tb_ctx tb gctx)
      "<tb> %s peer %d is out of range (program has %d ranks)" what p
      num_ranks
  else if p >= 0 && p = g.dg_id then
    err st "range" ~pos:(tb_pos tb) ~ctx:(tb_ctx tb gctx)
      "<tb> %s peer %d is the gpu itself" what p
  else if p < -1 then
    err st "range" ~pos:(tb_pos tb) ~ctx:(tb_ctx tb gctx)
      "<tb> %s peer %d is negative (use -1 for none)" what p

(* Connection ownership is read off the connection index of the decoded
   blocks: the first block, in block order, on a connection's side owns
   it, and every later block there is reported against that one. *)
let semantic_checks st ~ctx ~root_pos ~num_ranks ~(idx : Ir.index)
    (gpus : dgpu array) =
  (* Per-connection send and receive step counts, which must match.
     Every step of a block uses the block's one connection per
     direction, so each block adds its totals once. *)
  let sends = Hashtbl.create 32 and recvs = Hashtbl.create 32 in
  let add tbl key n =
    if n > 0 then
      Hashtbl.replace tbl key
        (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  Array.iteri
    (fun gi g ->
      let gctx = gpu_ctx g ctx in
      let base = idx.Ir.gpu_block.(gi) in
      (* The first block on block [b]'s side of its connection
         [conn_of.(b)], whose blocks start at [start]; [None] when that is
         [b] itself. *)
      let owner conn_of start b =
        let first = idx.Ir.ends.(start.(conn_of.(b))) in
        if first = b then None else Some g.dg_tbs.(first - base)
      in
      Array.iteri
        (fun ti tb ->
          let b = base + ti in
          if tb.dt_chan < 0 then
            err st "range" ~pos:(tb_pos tb) ~ctx:(tb_ctx tb gctx)
              "<tb> has negative channel %d" tb.dt_chan;
          check_peer st ~gctx ~num_ranks g tb "send" tb.dt_send;
          check_peer st ~gctx ~num_ranks g tb "recv" tb.dt_recv;
          (if tb.dt_send >= 0 then
             match owner idx.Ir.block_send idx.Ir.conn_start b with
             | Some first ->
                 let fp = tb_pos first in
                 err st "pairing" ~pos:(tb_pos tb) ~ctx:(tb_ctx tb gctx)
                   "two thread blocks send on connection %d->%d ch%d (first \
                    is tb %d at %s:%d:%d)"
                   g.dg_id tb.dt_send tb.dt_chan first.dt_id st.s_file
                   fp.Xml.line fp.Xml.col
             | None -> ());
          (if tb.dt_recv >= 0 then
             match owner idx.Ir.block_recv idx.Ir.conn_mid b with
             | Some first ->
                 let fp = tb_pos first in
                 err st "pairing" ~pos:(tb_pos tb) ~ctx:(tb_ctx tb gctx)
                   "two thread blocks receive on connection %d<-%d ch%d \
                    (first is tb %d at %s:%d:%d)"
                   g.dg_id tb.dt_recv tb.dt_chan first.dt_id st.s_file
                   fp.Xml.line fp.Xml.col
             | None -> ());
          let ns = ref 0 and nr = ref 0 in
          for i = 0 to Array.length tb.dt_steps - 1 do
            check_step st ~gctx g tb i;
            let op = tb.dt_steps.(i).Ir.op in
            if Instr.sends op then incr ns;
            if Instr.receives op then incr nr
          done;
          if tb.dt_send >= 0 then add sends (g.dg_id, tb.dt_send, tb.dt_chan) !ns;
          if tb.dt_recv >= 0 then add recvs (tb.dt_recv, g.dg_id, tb.dt_chan) !nr)
        g.dg_tbs)
    gpus;
  Hashtbl.iter
    (fun (src, dst, ch) n ->
      let m = Option.value ~default:0 (Hashtbl.find_opt recvs (src, dst, ch)) in
      if n <> m then
        err st "pairing" ~pos:(root_pos ()) ~ctx
          "connection %d->%d ch%d sends %d message(s) but receives %d" src
          dst ch n m)
    sends;
  Hashtbl.iter
    (fun (src, dst, ch) n ->
      if not (Hashtbl.mem sends (src, dst, ch)) then
        err st "pairing" ~pos:(root_pos ()) ~ctx
          "connection %d->%d ch%d receives %d message(s) without any sends"
          src dst ch n)
    recvs

(* ------------------------------------------------------------------ *)
(* Building the certified IR                                           *)
(* ------------------------------------------------------------------ *)

let build_ir ~name ~collective ~proto (gpus : dgpu array) =
  let tb_of tb =
    {
      Ir.tb_id = tb.dt_id;
      send = tb.dt_send;
      recv = tb.dt_recv;
      chan = tb.dt_chan;
      steps = tb.dt_steps;
    }
  in
  let gpu_of g =
    {
      Ir.gpu_id = g.dg_id;
      input_chunks = g.dg_in;
      output_chunks = g.dg_out;
      scratch_chunks = g.dg_scratch;
      tbs = Array.map tb_of g.dg_tbs;
    }
  in
  { Ir.name; collective; proto; gpus = Array.map gpu_of gpus }

(* ------------------------------------------------------------------ *)
(* The decoder                                                         *)
(* ------------------------------------------------------------------ *)

(* One document's decoding, fed one event at a time: the start of an
   element, each of its attributes, the end of its start tag, its end.
   <algo>, <gpu>, <tb> and <step> nest at fixed depths, so each kind has
   one [slots], one head (decoded once its start tag ends) and one
   accumulator of decoded children. *)
type dec = {
  st : st;
  algo : slots;
  gpu : slots;
  tb : slots;
  step : slots;
  mutable level : int;  (* decoded elements open: 1 in <algo>, 4 in <step> *)
  mutable skip : int;  (* open elements of a subtree that is not read *)
  mutable name : string;
  mutable proto : P.t option;
  mutable g_id : int option;
  mutable g_in : int option;
  mutable g_out : int option;
  mutable g_scratch : int option;
  mutable t_id : int option;
  mutable t_send : int option;
  mutable t_recv : int option;
  mutable t_chan : int option;
  gpus : dgpu acc;
  tbs : dtb acc;
  steps : Ir.step acc;  (* the open block's steps so far *)
  step_offs : int acc;
  step_docs : Xml.source acc;
  mutable result : (Ir.t * diag list, diag list) result option;
}

let decoder ~file ~bytes ~src =
  if Array.length !small_ints = 0 then
    small_ints := Array.init 1025 (fun n -> Some (n - 1));
  let algo = slots ~src "algo" 15 algo_slot in
  let gpu = slots ~src ~up:algo "gpu" 7 gpu_slot in
  let tb = slots ~src ~up:gpu "tb" 4 tb_slot in
  let step = slots ~src ~up:tb "step" 11 step_slot in
  {
    st =
      {
        s_file = file;
        s_diags = [];
        s_held = [];
        s_errors = 0;
        s_bytes = bytes;
        s_chunks_left = chunk_budget ~bytes;
        s_words = Array.make (words_mask + 1) "";
      };
    algo;
    gpu;
    tb;
    step;
    level = 0;
    skip = 0;
    name = "";
    proto = None;
    g_id = None;
    g_in = None;
    g_out = None;
    g_scratch = None;
    t_id = None;
    t_send = None;
    t_recv = None;
    t_chan = None;
    gpus = { items = [||]; n = 0 };
    tbs = { items = [||]; n = 0 };
    steps = { items = [||]; n = 0 };
    step_offs = { items = [||]; n = 0 };
    step_docs = { items = [||]; n = 0 };
    result = None;
  }

let open_element d sl ~src ~off =
  if sl.src != src then sl.src <- src;
  sl.off <- off;
  Array.fill sl.starts 0 (Array.length sl.starts) (-1);
  d.level <- d.level + 1

(* A child of [parent] is read when it is of kind [sl]; any other draws a
   warning, and its subtree is not read. *)
let child d parent sl ~src ~tag ~off =
  if String.equal tag sl.tag then open_element d sl ~src ~off
  else begin
    warn d.st "unknown-element" ~pos:(Xml.resolve src off) ~ctx:(ctx_of parent)
      "unknown element <%s> inside <%s> (ignored)" tag parent.tag;
    d.skip <- 1
  end

let start d ~src ~tag ~off =
  if d.skip > 0 then d.skip <- d.skip + 1
  else
    match d.level with
    | 0 ->
        if String.equal tag "algo" then open_element d d.algo ~src ~off
        else begin
          err d.st "schema" ~pos:(Xml.resolve src off) ~ctx:Top
            "expected <algo> root element, got <%s>" tag;
          d.skip <- 1
        end
    | 1 -> child d d.algo d.gpu ~src ~tag ~off
    | 2 -> child d d.gpu d.tb ~src ~tag ~off
    | 3 -> child d d.tb d.step ~src ~tag ~off
    | _ -> d.skip <- 1 (* a step's children are not read *)

let current d =
  match d.level with 1 -> d.algo | 2 -> d.gpu | 3 -> d.tb | _ -> d.step

(* An attribute whose value is [base.[start..stop)], and whose name
   starts at [off] of the element's document. *)
let attr d ~name ~base ~start ~stop ~off =
  if d.skip = 0 then begin
    let sl = current d in
    let slot = sl.slot name in
    if slot >= 0 then begin
      if sl.starts.(slot) < 0 then begin
        (* names are shared per document, and most values lie in the
           document: mostly the same strings again, stored without a
           write barrier *)
        if sl.keys.(slot) != name then sl.keys.(slot) <- name;
        if sl.bases.(slot) != base then sl.bases.(slot) <- base;
        sl.starts.(slot) <- start;
        sl.stops.(slot) <- stop;
        sl.offs.(slot) <- off
      end
    end
    else if slot = unknown then
      warn d.st "unknown-attribute" ~pos:(Xml.resolve sl.src off) ~ctx:(ctx_of sl)
        "<%s> has unknown attribute %s (ignored)" sl.tag name
  end

let algo_head d =
  let st = d.st and sl = d.algo in
  d.name <-
    (match get sl al_name with
    | -1 ->
        warn st "default" ~pos:(epos sl) ~ctx:(ctx_of sl)
          "<algo> has no name attribute; calling it \"imported\"";
        "imported"
    | k -> value st sl k);
  d.proto <-
    (match get2 sl al_proto al_protocol with
    | -1 ->
        warn st "default" ~pos:(epos sl) ~ctx:(ctx_of sl)
          "<algo> has no proto attribute; assuming Simple";
        Some P.Simple
    | k -> (
        let v = value st sl k in
        match P.of_string v with
        | Some p -> Some p
        | None ->
            err st "schema" ~pos:(apos sl k) ~ctx:(ctx_of sl)
              "unknown protocol %S (want Simple, LL, LL128 or SCCL)" v;
            None))

let gpu_head d =
  let st = d.st and sl = d.gpu in
  d.g_id <- req_int st sl gpu_id "id";
  let sized found what ~default =
    match opt_int st sl found ~default with
    | Some n when n < default ->
        err st "range" ~pos:(epos sl) ~ctx:(ctx_of sl)
          "<gpu> declares a negative %s buffer (%d chunks)" what n;
        None
    | Some n as x ->
        if found >= 0 then
          charge st ~pos:(apos sl found) ~ctx:(ctx_of sl)
            ("<gpu> attribute " ^ key sl found)
            n;
        x
    | None -> None
  in
  d.g_in <- sized (get2 sl gpu_i gpu_input) "input" ~default:(-1);
  d.g_out <- sized (get2 sl gpu_o gpu_output) "output" ~default:(-1);
  d.g_scratch <- sized (get2 sl gpu_s gpu_scratch) "scratch" ~default:0

let tb_head d =
  let st = d.st and sl = d.tb in
  d.t_id <- req_int st sl tb_id "id";
  d.t_send <- opt_int st sl (get sl tb_send) ~default:(-1);
  d.t_recv <- opt_int st sl (get sl tb_recv) ~default:(-1);
  d.t_chan <- opt_int st sl (get sl tb_chan) ~default:0

let start_done d =
  if d.skip = 0 then
    match d.level with
    | 1 -> algo_head d
    | 2 -> gpu_head d
    | 3 -> tb_head d
    | _ ->
        let rank = match d.g_id with Some id -> id | None -> 0 in
        decode_step d.st d.step ~rank ~tb_doc:d.tb.src ~offs:d.step_offs
          ~docs:d.step_docs d.steps

let tb_end d =
  let steps = take d.steps and offs = take d.step_offs in
  let sdocs = take d.step_docs in
  match (d.t_id, d.t_send, d.t_recv, d.t_chan) with
  | Some id, Some send, Some recv, Some chan ->
      push d.tbs
        {
          dt_doc = d.tb.src;
          dt_off = d.tb.off;
          dt_id = id;
          dt_send = send;
          dt_recv = recv;
          dt_chan = chan;
          dt_steps = steps;
          dt_offs = offs;
          dt_sdocs = sdocs;
        }
  | _ -> ()

let gpu_end d =
  let tbs = take d.tbs in
  match (d.g_id, d.g_in, d.g_out, d.g_scratch) with
  | Some id, Some i, Some o, Some s ->
      push d.gpus
        {
          dg_doc = d.gpu.src;
          dg_off = d.gpu.off;
          dg_id = id;
          dg_in = i;
          dg_out = o;
          dg_scratch = s;
          dg_tbs = tbs;
        }
  | _ -> ()

(* The rest of the <algo> attributes, read once its gpus are decoded
   (the rank count may have to come from them), then the whole program:
   ordering, footprints, semantic checks and the certified IR. *)
let algo_end d =
  let st = d.st and a = d.algo in
  let finish () = report st in
  let ctx = ctx_of a in
  let root_pos () = epos a in
  let name = d.name and proto = d.proto in
  let gpus = take d.gpus in
  let num_ranks =
    match (get a al_nranks, get a al_ngpus) with
    | -1, -1 ->
        warn st "default" ~pos:(root_pos ()) ~ctx
          "<algo> declares no nranks/ngpus; using the %d <gpu> element(s)"
          (Array.length gpus);
        Some (Array.length gpus)
    | k, -1 | -1, k -> (
        match int_of st a k with
        | Some n when n <= 0 ->
            err st "range" ~pos:(apos a k) ~ctx "nonpositive rank count %d" n;
            None
        | x -> x)
    | ka, kb -> (
        match (int_of st a ka, int_of st a kb) with
        | Some x, Some y when x <> y ->
            err st "schema" ~pos:(apos a kb) ~ctx
              "nranks=%d and ngpus=%d disagree" x y;
            None
        | x, _ -> x)
  in
  let kind =
    match get2 a al_coll al_collective with
    | -1 ->
        err st "schema" ~pos:(root_pos ()) ~ctx
          "<algo> is missing the required attribute coll";
        None
    | k when value st a k = "custom" -> (
        let cname =
          match get a al_cname with -1 -> "custom" | c -> value st a c
        in
        match
          ( req_int st a al_in_chunks "in_chunks",
            req_int st a al_out_chunks "out_chunks" )
        with
        | Some i, Some o when i > 0 && o > 0 ->
            charge st ~pos:(apos a al_in_chunks) ~ctx
              "<algo> attribute in_chunks" i;
            charge st ~pos:(apos a al_out_chunks) ~ctx
              "<algo> attribute out_chunks" o;
            Some
              (Collective.Custom
                 {
                   Collective.custom_name = cname;
                   input_chunks = i;
                   output_chunks = o;
                   expected = (fun ~rank:_ ~index:_ -> None);
                   initial = None;
                 })
        | Some i, Some o ->
            err st "range" ~pos:(root_pos ()) ~ctx
              "custom collective with empty buffers (in=%d out=%d)" i o;
            None
        | _ -> None)
    | k -> (
        let v = value st a k in
        match Collective.kind_of_name v with
        | None ->
            err st "schema" ~pos:(apos a k) ~ctx "unknown collective %S" v;
            None
        | Some kind when not (rooted kind) -> Some kind
        | Some kind -> (
            let root =
              match get a al_root with
              | -1 ->
                  warn st "default" ~pos:(root_pos ()) ~ctx
                    "rooted collective %S has no root attribute; assuming \
                     root 0"
                    v;
                  Some 0
              | r -> int_of st a r
            in
            match root with
            | None -> None
            | Some r ->
                (match num_ranks with
                | Some n when r < 0 || r >= n ->
                    err st "range" ~pos:(apos a al_root) ~ctx
                      "root %d is out of range (%d ranks)" r n
                | _ -> ());
                Some (with_root kind r)))
  in
  let chunk_factor =
    match kind with
    | Some (Collective.Custom _) -> Some 1
    | _ -> (
        match (get a al_chunk_factor, get a al_nchunksperloop) with
        | -1, -1 ->
            warn st "default" ~pos:(root_pos ()) ~ctx
              "<algo> declares no chunk_factor/nchunksperloop; assuming 1";
            Some 1
        | -1, k -> (
            (* msccl-tools declares total chunks per loop; for
               collectives whose input is ranks-wide, that is
               chunk_factor * nranks. *)
            match (int_of st a k, kind, num_ranks) with
            | Some n, _, _ when n <= 0 ->
                err st "range" ~pos:(apos a k) ~ctx
                  "nonpositive nchunksperloop %d" n;
                None
            | Some n, Some kd, Some ranks when ranks > 0 ->
                let divisor =
                  match kd with
                  | Collective.Reduce_scatter | Collective.Alltoall
                  | Collective.Scatter _ ->
                      ranks
                  | _ -> 1
                in
                if n mod divisor <> 0 then begin
                  err st "schema" ~pos:(apos a k) ~ctx
                    "nchunksperloop %d is not divisible by the rank count \
                     %d"
                    n divisor;
                  None
                end
                else Some (n / divisor)
            | x, _, _ -> x)
        | k, _ -> (
            match int_of st a k with
            | Some n when n <= 0 ->
                err st "range" ~pos:(apos a k) ~ctx
                  "nonpositive chunk_factor %d" n;
                None
            | x -> x))
  in
  let inplace =
    match (get a al_inplace, get a al_outofplace) with
    | -1, -1 ->
        warn st "default" ~pos:(root_pos ()) ~ctx
          "<algo> declares neither inplace nor outofplace; assuming \
           out-of-place";
        Some false
    | -1, k -> Option.map not (bool_of st a k)
    | k, _ -> bool_of st a k
  in
  (* Ordering tolerance: match gpus/tbs/steps by declared id. *)
  let gpus = order st ~ctx ~what:"gpu" ~id:(fun g -> g.dg_id) ~pos:gpu_pos gpus in
  let gpus =
    Array.map
      (fun g ->
        let gctx = gpu_ctx g ctx in
        let tbs =
          order st ~ctx:gctx ~what:"tb" ~id:(fun tb -> tb.dt_id) ~pos:tb_pos
            g.dg_tbs
        in
        let tbs =
          Array.map
            (fun tb ->
              let steps = tb.dt_steps in
              let rec in_order i =
                i >= Array.length steps
                || (steps.(i).Ir.s = i && in_order (i + 1))
              in
              if in_order 0 then tb
              else
                (* Order step indices, then the steps and their offsets
                   (and documents) alike. *)
                let perm =
                  order st ~ctx:(tb_ctx tb gctx) ~what:"step"
                    ~id:(fun i -> steps.(i).Ir.s)
                    ~pos:(step_pos tb)
                    (Array.init (Array.length steps) Fun.id)
                in
                let permute a = Array.map (fun i -> a.(i)) perm in
                {
                  tb with
                  dt_steps = permute steps;
                  dt_offs = permute tb.dt_offs;
                  dt_sdocs =
                    (if Array.length tb.dt_sdocs = 0 then [||]
                     else permute tb.dt_sdocs);
                })
            tbs
        in
        if tbs == g.dg_tbs then g else { g with dg_tbs = tbs })
      gpus
  in
  let ngpus = Array.length gpus in
  (match num_ranks with
  | Some n when ngpus > 0 && n <> ngpus ->
      err st "schema" ~pos:(root_pos ()) ~ctx
        "<algo> declares %d rank(s) but has %d <gpu> element(s)" n ngpus
  | _ -> ());
  if ngpus = 0 then
    err st "schema" ~pos:(root_pos ()) ~ctx "<algo> has no <gpu> elements";
  if failed st then Result.Error (finish ())
  else
    let num_ranks = Option.value ~default:ngpus num_ranks in
    let collective =
      match (kind, chunk_factor, inplace) with
      | Some kind, Some chunk_factor, Some inplace -> (
          try Some (Collective.make kind ~num_ranks ~chunk_factor ~inplace ())
          with Invalid_argument m ->
            err st "validate" ~pos:(root_pos ()) ~ctx "invalid collective: %s" m;
            None)
      | _ -> None
    in
    match (collective, proto) with
    | Some collective, Some proto -> (
        (* Resolve undeclared buffer sizes to the collective footprint
           and reject declared ones that cannot hold it (positioned
           pre-check of what Ir.validate would reject blindly). *)
        let need_in = Collective.input_buffer_size collective in
        let need_out = Collective.output_buffer_size collective in
        (* An undeclared buffer is charged to the attribute that sized
           the collective. *)
        let footprint (g : dgpu) slot what need =
          let pos =
            match (get a slot, get2 a al_chunk_factor al_nchunksperloop) with
            | -1, -1 -> root_pos ()
            | -1, k | k, _ -> apos a k
          in
          charge st ~pos ~ctx
            (Printf.sprintf "gpu %d's undeclared %s buffer" g.dg_id what)
            need
        in
        let gpus =
          Array.map
            (fun g ->
              if g.dg_in < 0 then footprint g al_in_chunks "input" need_in;
              if g.dg_out < 0 then footprint g al_out_chunks "output" need_out;
              if g.dg_in >= 0 && g.dg_in < need_in then
                err st "range" ~pos:(gpu_pos g) ~ctx:(gpu_ctx g ctx)
                  "gpu %d declares %d input chunk(s) but the collective \
                   needs %d"
                  g.dg_id g.dg_in need_in;
              if g.dg_out >= 0 && g.dg_out < need_out then
                err st "range" ~pos:(gpu_pos g) ~ctx:(gpu_ctx g ctx)
                  "gpu %d declares %d output chunk(s) but the collective \
                   needs %d"
                  g.dg_id g.dg_out need_out;
              {
                g with
                dg_in = (if g.dg_in >= 0 then g.dg_in else need_in);
                dg_out = (if g.dg_out >= 0 then g.dg_out else need_out);
              })
            gpus
        in
        if failed st then Result.Error (finish ())
        else begin
          (* One connection index serves ownership here and in
             Ir.validate; the IR shares the blocks' step arrays, so
             repairs made by the checks reach it. *)
          let ir = build_ir ~name ~collective ~proto gpus in
          let idx = Ir.index ir in
          semantic_checks st ~ctx ~root_pos ~num_ranks ~idx gpus;
          if failed st then Result.Error (finish ())
          else
            try
              Ir.validate ~idx ir;
              Result.Ok (ir, finish ())
            with Invalid_argument m ->
              err st "validate" ~pos:(root_pos ()) ~ctx "invalid program: %s" m;
              Result.Error (finish ())
        end)
    | _ -> Result.Error (finish ())

let end_ d =
  if d.skip > 0 then d.skip <- d.skip - 1
  else begin
    (match d.level with
    | 1 -> d.result <- Some (algo_end d)
    | 2 -> gpu_end d
    | 3 -> tb_end d
    | _ -> ());
    d.level <- d.level - 1
  end

(* The document has ended: a root other than <algo> is its one error. *)
let result d =
  match d.result with
  | Some r -> r
  | None -> Result.Error (report d.st)

(* ------------------------------------------------------------------ *)
(* Producers: the lexer, or a tree replayed                            *)
(* ------------------------------------------------------------------ *)

(* The events of [t] and of the subtrees the decoder reads. *)
let rec replay d (t : Xml.tree) =
  start d ~src:t.Xml.t_src ~tag:t.Xml.tag ~off:t.Xml.t_off;
  if d.skip > 0 then end_ d
  else begin
    List.iteri
      (fun i (k, v) ->
        attr d ~name:k ~base:v ~start:0 ~stop:(String.length v)
          ~off:(Xml.nth_attr_off t i))
      t.Xml.attrs;
    start_done d;
    List.iter (replay d) t.Xml.children;
    end_ d
  end

let of_tree ?(file = "<string>") (t : Xml.tree) =
  let d = decoder ~file ~bytes:(Xml.source_length t) ~src:t.Xml.t_src in
  replay d t;
  result d

let rec lex d lx (tok : Xml.token) ~src s =
  match Xml.next lx with
  | Xml.Start_tag ->
      start d ~src ~tag:tok.name ~off:tok.off;
      lex d lx tok ~src s
  | Xml.Attribute ->
      (if not tok.escaped then
         attr d ~name:tok.name ~base:s ~start:tok.v_start ~stop:tok.v_stop
           ~off:tok.off
       else if d.skip = 0 then
         let v = Xml.value lx in
         attr d ~name:tok.name ~base:v ~start:0 ~stop:(String.length v)
           ~off:tok.off);
      lex d lx tok ~src s
  | Xml.Start_tag_end ->
      start_done d;
      lex d lx tok ~src s
  | Xml.End_tag ->
      end_ d;
      lex d lx tok ~src s
  | Xml.End_of_input -> ()

let parse_diag (e : Xml.error) =
  {
    d_severity = Error;
    d_rule = "parse";
    d_message = e.Xml.e_message;
    d_file = e.Xml.e_file;
    d_pos = e.Xml.e_pos;
    d_context = e.Xml.e_context;
  }

let of_string ?(file = "<string>") s =
  let lx = Xml.lexer ~file s in
  let src = Xml.source lx in
  let d = decoder ~file ~bytes:(String.length s) ~src in
  match lex d lx (Xml.token lx) ~src s with
  | () -> result d
  | exception Xml.Parse_error e ->
      (* what was decoded before the error is dropped with its diagnostics *)
      Result.Error [ parse_diag e ]

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string ~file:path s
  | exception Sys_error m ->
      Result.Error
        [
          {
            d_severity = Error;
            d_rule = "io";
            d_message = m;
            d_file = path;
            d_pos = Xml.no_pos;
            d_context = [];
          };
        ]

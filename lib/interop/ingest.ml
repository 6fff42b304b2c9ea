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

type st = {
  s_file : string;
  mutable s_diags : diag list; (* reversed *)
  mutable s_errors : int;
}

let where ~file (t : Xml.tree) = Xml.frame ~file t.Xml.tag (Xml.pos t)

(* [ctx] is the list of enclosing elements, innermost first, rendered
   into frames only here, when a diagnostic is emitted. *)
let add st sev rule ~pos ~ctx fmt =
  Format.kasprintf
    (fun m ->
      if sev = Error then st.s_errors <- st.s_errors + 1;
      st.s_diags <-
        {
          d_severity = sev;
          d_rule = rule;
          d_message = m;
          d_file = st.s_file;
          d_pos = pos;
          d_context = List.map (where ~file:st.s_file) ctx;
        }
        :: st.s_diags)
    fmt

let err st = add st Error

let warn st = add st Warning

let failed st = st.s_errors > 0

(* ------------------------------------------------------------------ *)
(* Attribute access with aliases                                       *)
(* ------------------------------------------------------------------ *)

(* The attributes an element kind knows: [slot] maps each name to its
   slot in [0, nslots), or to [unknown] or [ignored]. *)
type schema = { slot : string -> int; nslots : int }

let unknown = -1

let ignored = -2

(* One element's attributes, indexed in one pass: per slot, the first
   attribute of that name and its document index (-1: absent). *)
type attrs = {
  a_tree : Xml.tree;
  a_kv : (string * string) array;
  a_at : int array;
}

let rec index_from st ~ctx sc a i = function
  | [] -> ()
  | ((k, _) as kv) :: rest ->
      let slot = sc.slot k in
      if slot >= 0 then begin
        if a.a_at.(slot) < 0 then begin
          a.a_kv.(slot) <- kv;
          a.a_at.(slot) <- i
        end
      end
      else if slot = unknown then begin
        let t = a.a_tree in
        warn st "unknown-attribute" ~pos:(Xml.nth_attr_pos t i) ~ctx
          "<%s> has unknown attribute %s (ignored)" t.Xml.tag k
      end;
      index_from st ~ctx sc a (i + 1) rest

let index st ~ctx sc (t : Xml.tree) =
  let a =
    {
      a_tree = t;
      a_kv = Array.make sc.nslots ("", "");
      a_at = Array.make sc.nslots (-1);
    }
  in
  index_from st ~ctx sc a 0 t.Xml.attrs;
  a

(* [slot] when present, or -1; [get2] prefers [s1] to its alias [s2]. *)
let get a slot = if a.a_at.(slot) >= 0 then slot else -1

let get2 a s1 s2 = if a.a_at.(s1) >= 0 then s1 else get a s2

let key a slot = fst a.a_kv.(slot)

let value a slot = snd a.a_kv.(slot)

let apos a slot = Xml.nth_attr_pos a.a_tree a.a_at.(slot)

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

(* [int_of_string_opt (String.trim v)], read straight from [v] when it is
   a plain decimal. *)
let int_value v =
  let n = decimal v 0 (String.length v) in
  if n <> not_decimal then Some n else int_of_string_opt (String.trim v)

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

let int_of st ~ctx a slot =
  let v = value a slot in
  match int_value v with
  | Some n -> Some n
  | None ->
      err st "schema" ~pos:(apos a slot) ~ctx
        "<%s> attribute %s: %S is not an integer" a.a_tree.Xml.tag
        (key a slot) v;
      None

let req_int st ~ctx a slot name =
  match get a slot with
  | -1 ->
      err st "schema" ~pos:(Xml.pos a.a_tree) ~ctx
        "<%s> is missing the required attribute %s" a.a_tree.Xml.tag name;
      None
  | s -> int_of st ~ctx a s

(* [found] is a slot from {!get}/{!get2}. *)
let opt_int st ~ctx a found ~default =
  match found with -1 -> Some default | s -> int_of st ~ctx a s

let bool_of st ~ctx a slot =
  let v = value a slot in
  match canonical v with
  | "1" | "true" -> Some true
  | "0" | "false" -> Some false
  | _ ->
      err st "schema" ~pos:(apos a slot) ~ctx
        "<%s> attribute %s: %S is not a boolean (want 0/1/true/false)"
        a.a_tree.Xml.tag (key a slot) v;
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

(* ------------------------------------------------------------------ *)
(* Decoded intermediates (trees kept for positioned semantic diags)    *)
(* ------------------------------------------------------------------ *)

type dstep = {
  ds_tree : Xml.tree;
  ds_s : int;
  ds_op : Instr.opcode;
  ds_src : (Buffer_id.t * int) option;
  ds_dst : (Buffer_id.t * int) option;
  ds_count : int;
  ds_depends : (int * int) list;
  mutable ds_has_dep : bool;
}

type dtb = {
  dt_tree : Xml.tree;
  dt_id : int;
  dt_send : int;
  dt_recv : int;
  dt_chan : int;
  dt_steps : dstep array;
}

type dgpu = {
  dg_tree : Xml.tree;
  dg_id : int;
  dg_in : int;  (* -1 = undeclared *)
  dg_out : int;  (* -1 = undeclared *)
  dg_scratch : int;
  dg_tbs : dtb array;
}

(* ------------------------------------------------------------------ *)
(* Step / tb / gpu decoding                                            *)
(* ------------------------------------------------------------------ *)

let st_s = 0 and st_type = 1 and st_srcbuf = 2 and st_srcoff = 3
and st_dstbuf = 4 and st_dstoff = 5 and st_cnt = 6 and st_count = 7
and st_depid = 8 and st_deps = 9 and st_hasdep = 10

let step_schema =
  {
    nslots = 11;
    slot =
      (function
      | "s" -> st_s | "type" -> st_type | "srcbuf" -> st_srcbuf
      | "srcoff" -> st_srcoff | "dstbuf" -> st_dstbuf | "dstoff" -> st_dstoff
      | "cnt" -> st_cnt | "count" -> st_count | "depid" -> st_depid
      | "deps" -> st_deps | "hasdep" -> st_hasdep | _ -> unknown);
  }

let tb_id = 0 and tb_send = 1 and tb_recv = 2 and tb_chan = 3

let tb_schema =
  {
    nslots = 4;
    slot =
      (function
      | "id" -> tb_id | "send" -> tb_send | "recv" -> tb_recv
      | "chan" -> tb_chan | _ -> unknown);
  }

let gpu_id = 0 and gpu_i = 1 and gpu_o = 2 and gpu_s = 3 and gpu_input = 4
and gpu_output = 5 and gpu_scratch = 6

let gpu_schema =
  {
    nslots = 7;
    slot =
      (function
      | "id" -> gpu_id | "i_chunks" -> gpu_i | "o_chunks" -> gpu_o
      | "s_chunks" -> gpu_s | "input_chunks" -> gpu_input
      | "output_chunks" -> gpu_output | "scratch_chunks" -> gpu_scratch
      | _ -> unknown);
  }

let al_name = 0 and al_proto = 1 and al_protocol = 2 and al_nranks = 3
and al_ngpus = 4 and al_chunk_factor = 5 and al_nchunksperloop = 6
and al_inplace = 7 and al_outofplace = 8 and al_coll = 9
and al_collective = 10 and al_root = 11 and al_cname = 12
and al_in_chunks = 13 and al_out_chunks = 14

let algo_schema =
  {
    nslots = 15;
    slot =
      (function
      | "name" -> al_name | "proto" -> al_proto | "protocol" -> al_protocol
      | "nranks" -> al_nranks | "ngpus" -> al_ngpus
      | "chunk_factor" -> al_chunk_factor
      | "nchunksperloop" -> al_nchunksperloop | "inplace" -> al_inplace
      | "outofplace" -> al_outofplace | "coll" -> al_coll
      | "collective" -> al_collective | "root" -> al_root
      | "cname" -> al_cname | "in_chunks" -> al_in_chunks
      | "out_chunks" -> al_out_chunks
      | "nchannels" | "minBytes" | "maxBytes" | "redop" | "version" -> ignored
      | _ -> unknown);
  }

let decode_loc st ~ctx a prefix ~buf ~off =
  (* [None] = hard failure (diag recorded); [Some None] = no location. *)
  let t = a.a_tree in
  match get a buf with
  | -1 -> Some None
  | bs -> (
      let v = value a bs in
      match canonical v with
      | "n" | "none" | "" -> Some None
      | b -> (
          match Buffer_id.of_name b with
          | None ->
              err st "schema" ~pos:(apos a bs) ~ctx
                "<%s> attribute %s: unknown buffer %S (want i/o/s)" t.Xml.tag
                (key a bs) v;
              None
          | Some buffer -> (
              match get a off with
              | -1 ->
                  err st "schema" ~pos:(Xml.pos t) ~ctx
                    "<%s> has %sbuf=%S but no %soff" t.Xml.tag prefix v prefix;
                  None
              | os -> (
                  match int_of st ~ctx a os with
                  | None -> None
                  | Some o when o < 0 ->
                      err st "range" ~pos:(apos a os) ~ctx
                        "<%s> attribute %soff: negative offset %d" t.Xml.tag
                        prefix o;
                      None
                  | Some o -> Some (Some (buffer, o))))))

(* The comma-separated integers of [v], each read as {!int_value} reads
   one; [None] when any is not an integer. *)
let rec id_list_from v i acc =
  let n = String.length v in
  let j = ref i in
  while !j < n && String.unsafe_get v !j <> ',' do
    incr j
  done;
  let j = !j in
  let id =
    match decimal v i j with
    | x when x <> not_decimal -> Some x
    | _ -> int_of_string_opt (String.trim (String.sub v i (j - i)))
  in
  match id with
  | None -> None
  | Some x when j = n -> Some (List.rev (x :: acc))
  | Some x -> id_list_from v (j + 1) (x :: acc)

let id_list v = id_list_from v 0 []

let decode_ids st ~ctx a slot ~default =
  match get a slot with
  | -1 -> Some default
  | s -> (
      let v = value a s in
      match id_list v with
      | Some ids -> Some ids
      | None ->
          err st "schema" ~pos:(apos a s) ~ctx
            "<%s> attribute %s: bad id list %S" a.a_tree.Xml.tag
            (key a slot) v;
          None)

let decode_step st ~ctx (t : Xml.tree) =
  let ctx = t :: ctx in
  let a = index st ~ctx step_schema t in
  let s = req_int st ~ctx a st_s "s" in
  let op =
    match get a st_type with
    | -1 ->
        err st "schema" ~pos:(Xml.pos t) ~ctx
          "<step> is missing the required attribute type";
        None
    | k -> (
        let v = value a k in
        match opcode_of_dialect v with
        | Some op -> Some op
        | None ->
            err st "schema" ~pos:(apos a k) ~ctx "<step> has unknown opcode %S" v;
            None)
  in
  let count =
    match opt_int st ~ctx a (get2 a st_cnt st_count) ~default:1 with
    | Some n when n <= 0 ->
        let pos =
          match get2 a st_cnt st_count with
          | -1 -> Xml.pos t
          | k -> apos a k
        in
        err st "range" ~pos ~ctx "<step> attribute cnt: nonpositive count %d"
          n;
        None
    | x -> x
  in
  let src = decode_loc st ~ctx a "src" ~buf:st_srcbuf ~off:st_srcoff in
  let dst = decode_loc st ~ctx a "dst" ~buf:st_dstbuf ~off:st_dstoff in
  let depends =
    match
      ( decode_ids st ~ctx a st_depid ~default:[ -1 ],
        decode_ids st ~ctx a st_deps ~default:[ -1 ] )
    with
    | Some [ -1 ], Some [ -1 ] -> Some []
    | Some tbs, Some steps when List.length tbs = List.length steps ->
        Some (List.combine tbs steps)
    | Some _, Some _ ->
        err st "schema" ~pos:(Xml.pos t) ~ctx
          "<step> depid/deps length mismatch";
        None
    | _ -> None
  in
  let has_dep =
    match get a st_hasdep with
    | -1 -> Some false
    | k -> bool_of st ~ctx a k
  in
  match (s, op, count, src, dst, depends, has_dep) with
  | ( Some s,
      Some op,
      Some count,
      Some src,
      Some dst,
      Some depends,
      Some has_dep ) ->
      Some
        {
          ds_tree = t;
          ds_s = s;
          ds_op = op;
          ds_src = src;
          ds_dst = dst;
          ds_count = count;
          ds_depends = depends;
          ds_has_dep = has_dep;
        }
  | _ -> None (* diagnostics already recorded; drop the step *)

(* The decoded [want] children of [t]; any other child draws a warning. *)
let decode_children st ~ctx (t : Xml.tree) want decode =
  Array.of_list
    (List.filter_map
       (fun (c : Xml.tree) ->
         if c.Xml.tag = want then decode st ~ctx c
         else begin
           warn st "unknown-element" ~pos:(Xml.pos c) ~ctx
             "unknown element <%s> inside <%s> (ignored)" c.Xml.tag t.Xml.tag;
           None
         end)
       t.Xml.children)

let decode_tb st ~ctx (t : Xml.tree) =
  let ctx' = t :: ctx in
  let a = index st ~ctx:ctx' tb_schema t in
  let id = req_int st ~ctx:ctx' a tb_id "id" in
  let send = opt_int st ~ctx:ctx' a (get a tb_send) ~default:(-1) in
  let recv = opt_int st ~ctx:ctx' a (get a tb_recv) ~default:(-1) in
  let chan = opt_int st ~ctx:ctx' a (get a tb_chan) ~default:0 in
  let steps = decode_children st ~ctx:ctx' t "step" decode_step in
  match (id, send, recv, chan) with
  | Some id, Some send, Some recv, Some chan ->
      Some
        {
          dt_tree = t;
          dt_id = id;
          dt_send = send;
          dt_recv = recv;
          dt_chan = chan;
          dt_steps = steps;
        }
  | _ -> None

let decode_gpu st ~ctx (t : Xml.tree) =
  let ctx' = t :: ctx in
  let a = index st ~ctx:ctx' gpu_schema t in
  let id = req_int st ~ctx:ctx' a gpu_id "id" in
  let sized found what ~default =
    match opt_int st ~ctx:ctx' a found ~default with
    | Some n when n < default ->
        err st "range" ~pos:(Xml.pos t) ~ctx:ctx'
          "<gpu> declares a negative %s buffer (%d chunks)" what n;
        None
    | x -> x
  in
  let i_chunks = sized (get2 a gpu_i gpu_input) "input" ~default:(-1) in
  let o_chunks = sized (get2 a gpu_o gpu_output) "output" ~default:(-1) in
  let s_chunks = sized (get2 a gpu_s gpu_scratch) "scratch" ~default:0 in
  let tbs = decode_children st ~ctx:ctx' t "tb" decode_tb in
  match (id, i_chunks, o_chunks, s_chunks) with
  | Some id, Some i, Some o, Some s ->
      Some
        {
          dg_tree = t;
          dg_id = id;
          dg_in = i;
          dg_out = o;
          dg_scratch = s;
          dg_tbs = tbs;
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Ordering tolerance: sort by declared id, reject duplicates and gaps *)
(* ------------------------------------------------------------------ *)

let order st ~ctx ~what ~id ~tree items =
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
        let first = Xml.pos (tree a) in
        err st "schema" ~pos:(Xml.pos (tree b)) ~ctx
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
             err st "schema" ~pos:(Xml.pos (tree x)) ~ctx
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
   allocates nothing here. *)
let check_bound st ~tctx g ds what = function
  | None -> ()
  | Some (buf, off) ->
      let size = buffer_size g buf in
      if size >= 0 && off + ds.ds_count > size then
        err st "range" ~pos:(Xml.pos ds.ds_tree) ~ctx:(ds.ds_tree :: tctx)
          "step %d %s [%s %d..%d] beyond the %d-chunk %s buffer of gpu %d"
          ds.ds_s what (Buffer_id.name buf) off
          (off + ds.ds_count - 1)
          size (Buffer_id.long_name buf) g.dg_id

let rec check_deps st ~tctx g tb ds = function
  | [] -> ()
  | (dtb, dstep) :: rest ->
      let ntbs = Array.length g.dg_tbs in
      let sctx = ds.ds_tree :: tctx in
      if dtb < 0 || dtb >= ntbs then
        err st "range" ~pos:(Xml.pos ds.ds_tree) ~ctx:sctx
          "step %d depends on unknown thread block %d (gpu %d has %d)" ds.ds_s
          dtb g.dg_id ntbs
      else if dtb = tb.dt_id then
        err st "range" ~pos:(Xml.pos ds.ds_tree) ~ctx:sctx
          "step %d has a same-tb dependency (ordering within a thread block \
           is implicit)"
          ds.ds_s
      else begin
        let target = g.dg_tbs.(dtb) in
        let tsteps = Array.length target.dt_steps in
        if dstep < 0 || dstep >= tsteps then
          err st "range" ~pos:(Xml.pos ds.ds_tree) ~ctx:sctx
            "step %d depends on unknown step %d of thread block %d (which has \
             %d)"
            ds.ds_s dstep dtb tsteps
        else
          let tgt = target.dt_steps.(dstep) in
          if not tgt.ds_has_dep then begin
            warn st "repair" ~pos:(Xml.pos tgt.ds_tree) ~ctx:sctx
              "step %d of tb %d is a dependency target but not marked hasdep; \
               marking it"
              dstep dtb;
            tgt.ds_has_dep <- true
          end
      end;
      check_deps st ~tctx g tb ds rest

let check_step st ~tctx g tb (ds : dstep) =
  if Instr.sends ds.ds_op && tb.dt_send < 0 then
    err st "pairing" ~pos:(Xml.pos ds.ds_tree) ~ctx:(ds.ds_tree :: tctx)
      "step %d (%s) sends but its thread block has no send peer" ds.ds_s
      (Instr.opcode_name ds.ds_op);
  if Instr.receives ds.ds_op && tb.dt_recv < 0 then
    err st "pairing" ~pos:(Xml.pos ds.ds_tree) ~ctx:(ds.ds_tree :: tctx)
      "step %d (%s) receives but its thread block has no recv peer" ds.ds_s
      (Instr.opcode_name ds.ds_op);
  check_bound st ~tctx g ds "reads" ds.ds_src;
  check_bound st ~tctx g ds "writes" ds.ds_dst;
  check_deps st ~tctx g tb ds ds.ds_depends

let semantic_checks st ~ctx ~root ~num_ranks (gpus : dgpu array) =
  Array.iter
    (fun g ->
      let gctx = g.dg_tree :: ctx in
      let seen_send = Hashtbl.create 8 and seen_recv = Hashtbl.create 8 in
      Array.iter
        (fun tb ->
          let tctx = tb.dt_tree :: gctx in
          let tpos () = Xml.pos tb.dt_tree in
          if tb.dt_chan < 0 then
            err st "range" ~pos:(tpos ()) ~ctx:tctx "<tb> has negative channel %d"
              tb.dt_chan;
          let peer what p =
            if p >= num_ranks then
              err st "range" ~pos:(tpos ()) ~ctx:tctx
                "<tb> %s peer %d is out of range (program has %d ranks)" what
                p num_ranks
            else if p >= 0 && p = g.dg_id then
              err st "range" ~pos:(tpos ()) ~ctx:tctx
                "<tb> %s peer %d is the gpu itself" what p
            else if p < -1 then
              err st "range" ~pos:(tpos ()) ~ctx:tctx
                "<tb> %s peer %d is negative (use -1 for none)" what p
          in
          peer "send" tb.dt_send;
          peer "recv" tb.dt_recv;
          (if tb.dt_send >= 0 then
             let key = (tb.dt_send, tb.dt_chan) in
             match Hashtbl.find_opt seen_send key with
             | Some (first : dtb) ->
                 let fp = Xml.pos first.dt_tree in
                 err st "pairing" ~pos:(tpos ()) ~ctx:tctx
                   "two thread blocks send on connection %d->%d ch%d (first \
                    is tb %d at %s:%d:%d)"
                   g.dg_id tb.dt_send tb.dt_chan first.dt_id st.s_file
                   fp.Xml.line fp.Xml.col
             | None -> Hashtbl.add seen_send key tb);
          (if tb.dt_recv >= 0 then
             let key = (tb.dt_recv, tb.dt_chan) in
             match Hashtbl.find_opt seen_recv key with
             | Some (first : dtb) ->
                 let fp = Xml.pos first.dt_tree in
                 err st "pairing" ~pos:(tpos ()) ~ctx:tctx
                   "two thread blocks receive on connection %d<-%d ch%d \
                    (first is tb %d at %s:%d:%d)"
                   g.dg_id tb.dt_recv tb.dt_chan first.dt_id st.s_file
                   fp.Xml.line fp.Xml.col
             | None -> Hashtbl.add seen_recv key tb);
          Array.iter (check_step st ~tctx g tb) tb.dt_steps)
        g.dg_tbs)
    gpus;
  (* Per-connection send and receive step counts must match. *)
  let sends = Hashtbl.create 32 and recvs = Hashtbl.create 32 in
  let bump tbl key =
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  Array.iter
    (fun g ->
      Array.iter
        (fun tb ->
          Array.iter
            (fun (ds : dstep) ->
              if Instr.sends ds.ds_op && tb.dt_send >= 0 then
                bump sends (g.dg_id, tb.dt_send, tb.dt_chan);
              if Instr.receives ds.ds_op && tb.dt_recv >= 0 then
                bump recvs (tb.dt_recv, g.dg_id, tb.dt_chan))
            tb.dt_steps)
        g.dg_tbs)
    gpus;
  Hashtbl.iter
    (fun (src, dst, ch) n ->
      let m = Option.value ~default:0 (Hashtbl.find_opt recvs (src, dst, ch)) in
      if n <> m then
        err st "pairing" ~pos:(Xml.pos root) ~ctx
          "connection %d->%d ch%d sends %d message(s) but receives %d" src
          dst ch n m)
    sends;
  Hashtbl.iter
    (fun (src, dst, ch) n ->
      if not (Hashtbl.mem sends (src, dst, ch)) then
        err st "pairing" ~pos:(Xml.pos root) ~ctx
          "connection %d->%d ch%d receives %d message(s) without any sends"
          src dst ch n)
    recvs

(* ------------------------------------------------------------------ *)
(* Building the certified IR                                           *)
(* ------------------------------------------------------------------ *)

let loc_of (g : dgpu) (ds : dstep) = function
  | None -> None
  | Some (buf, index) ->
      Some (Loc.make ~rank:g.dg_id ~buf ~index ~count:ds.ds_count)

let build_ir ~name ~collective ~proto (gpus : dgpu array) =
  let step_of g (ds : dstep) =
    {
      Ir.s = ds.ds_s;
      op = ds.ds_op;
      src = loc_of g ds ds.ds_src;
      dst = loc_of g ds ds.ds_dst;
      count = ds.ds_count;
      depends = ds.ds_depends;
      has_dep = ds.ds_has_dep;
    }
  in
  let tb_of g tb =
    {
      Ir.tb_id = tb.dt_id;
      send = tb.dt_send;
      recv = tb.dt_recv;
      chan = tb.dt_chan;
      steps = Array.map (step_of g) tb.dt_steps;
    }
  in
  let gpu_of g =
    {
      Ir.gpu_id = g.dg_id;
      input_chunks = g.dg_in;
      output_chunks = g.dg_out;
      scratch_chunks = g.dg_scratch;
      tbs = Array.map (tb_of g) g.dg_tbs;
    }
  in
  { Ir.name; collective; proto; gpus = Array.map gpu_of gpus }

(* ------------------------------------------------------------------ *)
(* Root decoding                                                       *)
(* ------------------------------------------------------------------ *)

let of_tree ?(file = "<string>") (t : Xml.tree) =
  let st = { s_file = file; s_diags = []; s_errors = 0 } in
  let finish () = List.rev st.s_diags in
  if t.Xml.tag <> "algo" then begin
    err st "schema" ~pos:(Xml.pos t) ~ctx:[]
      "expected <algo> root element, got <%s>" t.Xml.tag;
    Result.Error (finish ())
  end
  else begin
    let ctx = [ t ] in
    let root_pos () = Xml.pos t in
    let a = index st ~ctx algo_schema t in
    let name =
      match get a al_name with
      | -1 ->
          warn st "default" ~pos:(root_pos ()) ~ctx
            "<algo> has no name attribute; calling it \"imported\"";
          "imported"
      | k -> value a k
    in
    let proto =
      match get2 a al_proto al_protocol with
      | -1 ->
          warn st "default" ~pos:(root_pos ()) ~ctx
            "<algo> has no proto attribute; assuming Simple";
          Some P.Simple
      | k -> (
          let v = value a k in
          match P.of_string v with
          | Some p -> Some p
          | None ->
              err st "schema" ~pos:(apos a k) ~ctx
                "unknown protocol %S (want Simple, LL, LL128 or SCCL)" v;
              None)
    in
    (* GPUs first: the rank count may have to come from them. *)
    let gpus = decode_children st ~ctx t "gpu" decode_gpu in
    let num_ranks =
      match (get a al_nranks, get a al_ngpus) with
      | -1, -1 ->
          warn st "default" ~pos:(root_pos ()) ~ctx
            "<algo> declares no nranks/ngpus; using the %d <gpu> element(s)"
            (Array.length gpus);
          Some (Array.length gpus)
      | k, -1 | -1, k -> (
          match int_of st ~ctx a k with
          | Some n when n <= 0 ->
              err st "range" ~pos:(apos a k) ~ctx "nonpositive rank count %d" n;
              None
          | x -> x)
      | ka, kb -> (
          match (int_of st ~ctx a ka, int_of st ~ctx a kb) with
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
      | k when value a k = "custom" -> (
          let cname =
            match get a al_cname with -1 -> "custom" | c -> value a c
          in
          match
            ( req_int st ~ctx a al_in_chunks "in_chunks",
              req_int st ~ctx a al_out_chunks "out_chunks" )
          with
          | Some i, Some o when i > 0 && o > 0 ->
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
          let v = value a k in
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
                | r -> int_of st ~ctx a r
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
              match (int_of st ~ctx a k, kind, num_ranks) with
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
              match int_of st ~ctx a k with
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
      | -1, k -> Option.map not (bool_of st ~ctx a k)
      | k, _ -> bool_of st ~ctx a k
    in
    (* Ordering tolerance: match gpus/tbs/steps by declared id. *)
    let gpus =
      order st ~ctx ~what:"gpu"
        ~id:(fun g -> g.dg_id)
        ~tree:(fun g -> g.dg_tree)
        gpus
    in
    let gpus =
      Array.map
        (fun g ->
          let gctx = g.dg_tree :: ctx in
          let tbs =
            order st ~ctx:gctx ~what:"tb"
              ~id:(fun tb -> tb.dt_id)
              ~tree:(fun tb -> tb.dt_tree)
              g.dg_tbs
          in
          let tbs =
            Array.map
              (fun tb ->
                let steps =
                  order st ~ctx:(tb.dt_tree :: gctx) ~what:"step"
                    ~id:(fun s -> s.ds_s)
                    ~tree:(fun s -> s.ds_tree)
                    tb.dt_steps
                in
                if steps == tb.dt_steps then tb else { tb with dt_steps = steps })
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
            try
              Some (Collective.make kind ~num_ranks ~chunk_factor ~inplace ())
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
          let gpus =
            Array.map
              (fun g ->
                let gctx = g.dg_tree :: ctx in
                if g.dg_in >= 0 && g.dg_in < need_in then
                  err st "range" ~pos:(Xml.pos g.dg_tree) ~ctx:gctx
                    "gpu %d declares %d input chunk(s) but the collective \
                     needs %d"
                    g.dg_id g.dg_in need_in;
                if g.dg_out >= 0 && g.dg_out < need_out then
                  err st "range" ~pos:(Xml.pos g.dg_tree) ~ctx:gctx
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
            semantic_checks st ~ctx ~root:t ~num_ranks gpus;
            if failed st then Result.Error (finish ())
            else
              let ir = build_ir ~name ~collective ~proto gpus in
              try
                Ir.validate ir;
                Result.Ok (ir, finish ())
              with Invalid_argument m ->
                err st "validate" ~pos:(root_pos ()) ~ctx "invalid program: %s" m;
                Result.Error (finish ())
          end)
      | _ -> Result.Error (finish ())
  end

let of_string ?(file = "<string>") s =
  match Xml.parse_tree ~file s with
  | t -> of_tree ~file t
  | exception Xml.Parse_error e ->
      Result.Error
        [
          {
            d_severity = Error;
            d_rule = "parse";
            d_message = e.Xml.e_message;
            d_file = e.Xml.e_file;
            d_pos = e.Xml.e_pos;
            d_context = e.Xml.e_context;
          };
        ]

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

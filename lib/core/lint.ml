type severity =
  | Error
  | Warning
  | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type at = {
  at_gpu : int;
  at_tb : int;
  at_step : int;
}

type diagnostic = {
  d_rule : string;
  d_severity : severity;
  d_at : at option;
  d_message : string;
}

type category =
  | Correctness
  | Perf

let category_name = function Correctness -> "correctness" | Perf -> "perf"

type rule = {
  rule_id : string;
  rule_doc : string;
  rule_severity : severity;
  rule_category : category;
}

let rules =
  [
    {
      rule_id = "race";
      rule_doc =
        "two steps on different thread blocks of one GPU touch overlapping \
         buffer intervals without a happens-before ordering";
      rule_severity = Error;
      rule_category = Correctness;
    };
    {
      rule_id = "fifo-deadlock";
      rule_doc =
        "the waiting graph (program order, depends, send/receive matching, \
         FIFO back-pressure) has a cycle: the kernel hangs";
      rule_severity = Error;
      rule_category = Correctness;
    };
    {
      rule_id = "conn-mismatch";
      rule_doc =
        "a connection's send and receive counts differ: a message is lost \
         or a receive waits forever";
      rule_severity = Error;
      rule_category = Correctness;
    };
    {
      rule_id = "dangling-depends";
      rule_doc =
        "a depends entry names a missing thread block or step, the step's \
         own thread block, or a target not marked has_dep";
      rule_severity = Error;
      rule_category = Correctness;
    };
    {
      rule_id = "oob-access";
      rule_doc =
        "a step reads or writes past its GPU's declared input/output/\
         scratch buffer size";
      rule_severity = Error;
      rule_category = Correctness;
    };
    {
      rule_id = "dead-scratch";
      rule_doc = "scratch chunks are written but never read";
      rule_severity = Warning;
      rule_category = Correctness;
    };
    {
      rule_id = "channel-contention";
      rule_doc =
        "more thread blocks share one (gpu, channel) than the contention \
         threshold; they serialize on the channel's connections";
      rule_severity = Warning;
      rule_category = Correctness;
    };
    {
      rule_id = "unused-scratch";
      rule_doc = "declared scratch chunks are never accessed";
      rule_severity = Info;
      rule_category = Correctness;
    };
    {
      rule_id = "uninitialized-read";
      rule_doc =
        "a step reads a buffer slot no prior step (nor the collective's \
         precondition) wrote: the executor would crash at runtime; the \
         provenance pass reports it statically with the reading instruction";
      rule_severity = Error;
      rule_category = Correctness;
    };
    {
      rule_id = "dead-store";
      rule_doc =
        "a step's written slots are all either overwritten before any read \
         or left unread at the end outside the constrained output: the \
         write (and the work feeding it) is wasted";
      rule_severity = Warning;
      rule_category = Correctness;
    };
    {
      rule_id = "unread-scratch";
      rule_doc =
        "a scratch slot is written but (tracked through the chunk dataflow, \
         unlike dead-scratch's syntactic read check) none of its values \
         ever contribute to a constrained output position";
      rule_severity = Warning;
      rule_category = Correctness;
    };
    {
      rule_id = "below-bandwidth-optimal";
      rule_doc =
        "the algorithm's bandwidth efficiency (alpha-beta-gamma lower bound \
         over its own critical path and congestion) falls below the \
         threshold: a better schedule provably exists";
      rule_severity = Warning;
      rule_category = Perf;
    };
    {
      rule_id = "link-hotspot";
      rule_doc =
        "one physical link's transfer time (bytes over capacity) exceeds \
         the mean over loaded links by the hotspot factor; the schedule \
         serializes on that wire";
      rule_severity = Warning;
      rule_category = Perf;
    };
    {
      rule_id = "tb-imbalance";
      rule_doc =
        "one thread block's modelled work exceeds the mean by the imbalance \
         factor; stragglers bound the kernel's finish time";
      rule_severity = Warning;
      rule_category = Perf;
    };
    {
      rule_id = "redundant-send";
      rule_doc =
        "a send delivers data the destination rank provably already holds \
         (tracked through the chunk dataflow): pure wasted wire time";
      rule_severity = Warning;
      rule_category = Perf;
    };
    {
      rule_id = "missed-fusion";
      rule_doc =
        "a received chunk takes a scratch round-trip that a fused opcode \
         (recv-copy-send / recv-reduce-send) would eliminate";
      rule_severity = Info;
      rule_category = Perf;
    };
  ]

let severity_of_rule id =
  match List.find_opt (fun r -> r.rule_id = id) rules with
  | Some r -> r.rule_severity
  | None -> invalid_arg ("Lint: unknown rule " ^ id)

let diag ?at id fmt =
  Format.kasprintf
    (fun msg ->
      { d_rule = id; d_severity = severity_of_rule id; d_at = at; d_message = msg })
    fmt

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let check_races hb fp (ir : Ir.t) =
  List.map
    (fun (r : Races.race) ->
      diag
        ~at:{ at_gpu = r.Races.r_gpu; at_tb = r.Races.r_tb1; at_step = r.Races.r_step1 }
        "race" "%a" Races.pp_race r)
    (Races.find ~hb ~fp ir)

let check_fifo_deadlock hb slots =
  match Hbgraph.cycle_size hb with
  | 0 -> []
  | k ->
      [
        diag "fifo-deadlock"
          "dependency cycle through %d step(s) (with %d FIFO slots)" k slots;
      ]

let check_conn_mismatch hb =
  List.map
    (fun (src, dst, ch, sends, recvs) ->
      diag "conn-mismatch" "connection %d->%d ch%d: %d send(s) vs %d receive(s)"
        src dst ch sends recvs)
    (Hbgraph.mismatched_connections hb)

let dangling (g : Ir.gpu) (tb : Ir.tb) (st : Ir.step) =
  diag
    ~at:{ at_gpu = g.Ir.gpu_id; at_tb = tb.Ir.tb_id; at_step = st.Ir.s }
    "dangling-depends"

(* Adds to [out] a diagnostic per bad entry of [depends]; a plain loop, so
   a clean step allocates nothing. *)
let rec check_depends out (g : Ir.gpu) (tb : Ir.tb) st = function
  | [] -> ()
  | (dtb, dstep) :: rest ->
      if dtb < 0 || dtb >= Array.length g.Ir.tbs then
        out := dangling g tb st "depends on unknown thread block %d" dtb :: !out
      else if dstep < 0 || dstep >= Array.length g.Ir.tbs.(dtb).Ir.steps then
        out :=
          dangling g tb st "depends on unknown step (%d, %d)" dtb dstep :: !out
      else if dtb = tb.Ir.tb_id then
        out :=
          dangling g tb st
            "depends on its own thread block (program order already covers \
             step %d)"
            dstep
          :: !out
      else if not g.Ir.tbs.(dtb).Ir.steps.(dstep).Ir.has_dep then
        out :=
          dangling g tb st
            "depends on (%d, %d) which is not marked has_dep: the runtime \
             will not post its semaphore"
            dtb dstep
          :: !out;
      check_depends out g tb st rest

let check_dangling_depends (ir : Ir.t) =
  let out = ref [] in
  Ir.iter_steps ir (fun g tb st -> check_depends out g tb st st.Ir.depends);
  !out

let declared_size (g : Ir.gpu) = function
  | Buffer_id.Input -> g.Ir.input_chunks
  | Buffer_id.Output -> g.Ir.output_chunks
  | Buffer_id.Scratch -> g.Ir.scratch_chunks

let check_oob (fp : Races.footprints) (ir : Ir.t) =
  let out = ref [] in
  Array.iteri
    (fun gi (g : Ir.gpu) ->
      Races.iter_gpu_accesses fp ~gpu:gi g (fun tb st a ->
          let buf = Races.bufs.(Races.buffer fp a) in
          let index = fp.Races.fp_index.(a) and size = declared_size g buf in
          let last = index + fp.Races.fp_count.(a) - 1 in
          if last >= size then
            out :=
              diag
                ~at:
                  {
                    at_gpu = g.Ir.gpu_id;
                    at_tb = tb.Ir.tb_id;
                    at_step = st.Ir.s;
                  }
                "oob-access" "%s %s[%d..%d] but gpu %d declares %d %s chunk(s)"
                (if Races.is_write fp a then "writes" else "reads")
                (Buffer_id.long_name buf) index last g.Ir.gpu_id size
                (Buffer_id.long_name buf)
              :: !out))
    ir.Ir.gpus;
  !out

module Writers = Set.Make (Int)

(* Scratch liveness from the accessed intervals alone: a sweep over the
   sorted interval boundaries, so memory is O(accesses) however many
   chunks the GPU declares. Between two consecutive boundaries every
   index has the same written/read status and the same first writer. *)
let check_scratch (fp : Races.footprints) (ir : Ir.t) =
  let out = ref [] in
  Array.iteri
    (fun gi (g : Ir.gpu) ->
      let size = g.Ir.scratch_chunks in
      if size > 0 then begin
        (* The GPU's scratch accesses [lo, hi), numbered in scan order,
           so the least open writer is the first in scan order. *)
        let n = Races.num_accesses fp ~gpu:gi in
        let lo = Array.make n 0 and hi = Array.make n 0 in
        let wr = Array.make n false and tbs = Array.make n 0 in
        let steps = Array.make n 0 and m = ref 0 in
        Races.iter_gpu_accesses fp ~gpu:gi g (fun tb st a ->
            let l = fp.Races.fp_index.(a) in
            let h = min (l + fp.Races.fp_count.(a)) size in
            if Races.buffer fp a = 2 && l < h then begin
              lo.(!m) <- l;
              hi.(!m) <- h;
              wr.(!m) <- Races.is_write fp a;
              tbs.(!m) <- tb.Ir.tb_id;
              steps.(!m) <- st.Ir.s;
              incr m
            end);
        (* Event 2e opens access e's interval, 2e + 1 closes it. *)
        let n = 2 * !m in
        let pos v = if v land 1 = 0 then lo.(v lsr 1) else hi.(v lsr 1) in
        let events = Array.init n Fun.id in
        Array.stable_sort (fun x y -> Int.compare (pos x) (pos y)) events;
        let writers = ref Writers.empty in
        let readers = ref 0 and touched = ref 0 in
        let dead = ref (-1) and dead_lo = ref 0 and i = ref 0 in
        while !i < n do
          let here = pos events.(!i) in
          while !i < n && pos events.(!i) = here do
            let e = events.(!i) lsr 1 and opens = events.(!i) land 1 = 0 in
            (if wr.(e) then
               writers :=
                 (if opens then Writers.add else Writers.remove) e !writers
             else readers := !readers + if opens then 1 else -1);
            incr i
          done;
          (* [here, next boundary) now has one status; past the last
             boundary nothing is open. *)
          let written = not (Writers.is_empty !writers) in
          let is_dead = written && !readers = 0 in
          if !dead >= 0 && not is_dead then begin
            out :=
              diag
                ~at:
                  {
                    at_gpu = g.Ir.gpu_id;
                    at_tb = tbs.(!dead);
                    at_step = steps.(!dead);
                  }
                "dead-scratch"
                "gpu %d scratch[%d..%d] is written but never read"
                g.Ir.gpu_id !dead_lo (here - 1)
              :: !out;
            dead := -1
          end
          else if !dead < 0 && is_dead then begin
            dead := Writers.min_elt !writers;
            dead_lo := here
          end;
          if written || !readers > 0 then
            touched := !touched + (pos events.(!i) - here)
        done;
        let untouched = size - !touched in
        if untouched > 0 then
          out :=
            diag "unused-scratch"
              "gpu %d declares %d scratch chunk(s) but %d are never accessed"
              g.Ir.gpu_id size untouched
            :: !out
      end)
    ir.Ir.gpus;
  !out

(* Thread blocks with connections per (gpu, channel) above which the
   channel-contention rule fires. *)
let max_tbs_per_channel = 8

let check_channel_contention (ir : Ir.t) =
  let out = ref [] in
  Array.iter
    (fun (g : Ir.gpu) ->
      let per_chan = Hashtbl.create 4 in
      Array.iter
        (fun (tb : Ir.tb) ->
          if tb.Ir.send >= 0 || tb.Ir.recv >= 0 then
            Hashtbl.replace per_chan tb.Ir.chan
              (1 + Option.value ~default:0 (Hashtbl.find_opt per_chan tb.Ir.chan)))
        g.Ir.tbs;
      Hashtbl.iter
        (fun chan n ->
          if n > max_tbs_per_channel then
            out :=
              diag "channel-contention"
                "gpu %d channel %d is shared by %d thread blocks (threshold \
                 %d); consider spreading connections over more channels"
                g.Ir.gpu_id chan n max_tbs_per_channel
              :: !out)
        per_chan)
    ir.Ir.gpus;
  !out

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let compare_diag a b =
  let at_key = function
    | None -> (-1, -1, -1)
    | Some { at_gpu; at_tb; at_step } -> (at_gpu, at_tb, at_step)
  in
  compare
    (severity_rank a.d_severity, at_key a.d_at, a.d_rule, a.d_message)
    (severity_rank b.d_severity, at_key b.d_at, b.d_rule, b.d_message)

let run (ir : Ir.t) =
  let slots = Msccl_topology.Protocol.num_slots ir.Ir.proto in
  let hb = Hbgraph.build ~fifo_slots:slots ir and fp = Races.footprints ir in
  List.concat
    [
      check_races hb fp ir;
      check_fifo_deadlock hb slots;
      check_conn_mismatch hb;
      check_dangling_depends ir;
      check_oob fp ir;
      check_scratch fp ir;
      check_channel_contention ir;
    ]
  |> List.sort compare_diag

let errors ds = List.filter (fun d -> d.d_severity = Error) ds

let has_errors ds = List.exists (fun d -> d.d_severity = Error) ds

let pp_diagnostic fmt d =
  (match d.d_at with
  | Some at ->
      Format.fprintf fmt "%s[%s] gpu %d tb %d step %d: "
        (severity_name d.d_severity)
        d.d_rule at.at_gpu at.at_tb at.at_step
  | None ->
      Format.fprintf fmt "%s[%s]: " (severity_name d.d_severity) d.d_rule);
  Format.pp_print_string fmt d.d_message

let pp fmt ds =
  List.iter (fun d -> Format.fprintf fmt "%a@." pp_diagnostic d) ds;
  let count s = List.length (List.filter (fun d -> d.d_severity = s) ds) in
  Format.fprintf fmt "%d error(s), %d warning(s), %d info@." (count Error)
    (count Warning) (count Info)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json ds =
  let one d =
    let loc =
      match d.d_at with
      | None -> ""
      | Some at ->
          Printf.sprintf "\"gpu\":%d,\"tb\":%d,\"step\":%d," at.at_gpu
            at.at_tb at.at_step
    in
    Printf.sprintf "{\"rule\":\"%s\",\"severity\":\"%s\",%s\"message\":\"%s\"}"
      (json_escape d.d_rule)
      (severity_name d.d_severity)
      loc
      (json_escape d.d_message)
  in
  "[" ^ String.concat "," (List.map one ds) ^ "]"

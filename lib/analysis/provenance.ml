open Msccl_core

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

type site = { p_rank : int; p_tb : int; p_step : int; p_op : Instr.opcode }

type kind =
  | Never_written
  | Missing_contribution of { missing : int }
  | Duplicated_contribution of { multiplicity : int; distinct : int }
  | Divergent
  | Overwritten_before_read of { overwriter : site }
  | Uninitialized_read of Loc.t
  | Out_of_bounds of Loc.t
  | Missing_operand of string
  | Message_size of { sent : int; expected : int }
  | Deadlock of string
  | Connection_mismatch of {
      src : int;
      dst : int;
      chan : int;
      sends : int;
      recvs : int;
    }
  | Undelivered_messages of { src : int; dst : int; chan : int; count : int }

type diag = {
  dg_kind : kind;
  dg_rank : int;
  dg_loc : Loc.t option;
  dg_site : site option;
  dg_members : int;
}

let pp_site fmt s =
  Format.fprintf fmt "rank %d tb %d step %d (%s)" s.p_rank s.p_tb s.p_step
    (Instr.opcode_name s.p_op)

let kind_name = function
  | Never_written -> "never-written"
  | Missing_contribution _ -> "missing-contribution"
  | Duplicated_contribution _ -> "duplicated-contribution"
  | Divergent -> "divergent"
  | Overwritten_before_read _ -> "overwritten-before-read"
  | Uninitialized_read _ -> "uninitialized-read"
  | Out_of_bounds _ -> "out-of-bounds"
  | Missing_operand _ -> "missing-operand"
  | Message_size _ -> "message-size"
  | Deadlock _ -> "deadlock"
  | Connection_mismatch _ -> "conn-mismatch"
  | Undelivered_messages _ -> "undelivered"

let pp_opt_site fmt = function
  | None -> Format.pp_print_string fmt "never written"
  | Some s -> Format.fprintf fmt "last written by %a" pp_site s

let pp_diag fmt d =
  let loc fmt () =
    match d.dg_loc with
    | Some l -> Format.fprintf fmt "%a" Loc.pp l
    | None -> Format.fprintf fmt "rank %d" d.dg_rank
  in
  (match d.dg_kind with
  | Never_written ->
      Format.fprintf fmt "%a: constrained output slot never written" loc ()
  | Missing_contribution { missing } ->
      Format.fprintf fmt "%a: %d expected contribution(s) missing (%a)" loc ()
        missing pp_opt_site d.dg_site
  | Duplicated_contribution { multiplicity; distinct } ->
      Format.fprintf fmt
        "%a: double-counted reduction — %d contributions over %d distinct \
         source(s) (%a)"
        loc () multiplicity distinct pp_opt_site d.dg_site
  | Divergent ->
      Format.fprintf fmt "%a: value diverges from the postcondition (%a)" loc
        () pp_opt_site d.dg_site
  | Overwritten_before_read { overwriter } ->
      Format.fprintf fmt
        "%a: value %a was overwritten before any read, by %a" loc ()
        pp_opt_site d.dg_site pp_site overwriter
  | Uninitialized_read l ->
      Format.fprintf fmt "%a: reads %a, which no instruction initialized"
        pp_opt_site d.dg_site Loc.pp l
  | Out_of_bounds l ->
      Format.fprintf fmt "%a: access past the end of the buffer at %a"
        pp_opt_site d.dg_site Loc.pp l
  | Missing_operand what -> (
      match d.dg_site with
      | Some s -> Format.fprintf fmt "%a: has no %s operand" pp_site s what
      | None -> Format.fprintf fmt "%a: a step has no %s operand" loc () what)
  | Message_size { sent; expected } -> (
      match d.dg_site with
      | Some s ->
          Format.fprintf fmt "%a: received %d chunk(s), expected %d" pp_site s
            sent expected
      | None ->
          Format.fprintf fmt "%a: a step received %d chunk(s), expected %d"
            loc () sent expected)
  | Deadlock msg -> Format.fprintf fmt "deadlock: %s" msg
  | Connection_mismatch { src; dst; chan; sends; recvs } ->
      Format.fprintf fmt "connection %d->%d ch%d: %d send(s) vs %d receive(s)"
        src dst chan sends recvs
  | Undelivered_messages { src; dst; chan; count } ->
      Format.fprintf fmt
        "connection %d->%d ch%d: %d message(s) left in flight" src dst chan
        count);
  Format.pp_print_string fmt (Orbit.symmetric_suffix (d.dg_members - 1))

let diag_json d =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "{\"kind\": \"%s\", \"rank\": %d" (kind_name d.dg_kind)
       d.dg_rank);
  (match d.dg_loc with
  | Some l ->
      Buffer.add_string b
        (Printf.sprintf ", \"buffer\": \"%s\", \"index\": %d, \"count\": %d"
           (Buffer_id.long_name l.Loc.buf)
           l.Loc.index l.Loc.count)
  | None -> ());
  (match d.dg_site with
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf
           ", \"site\": {\"rank\": %d, \"tb\": %d, \"step\": %d, \"op\": \
            \"%s\"}"
           s.p_rank s.p_tb s.p_step (Instr.opcode_name s.p_op))
  | None -> ());
  if d.dg_members > 1 then
    Buffer.add_string b (Printf.sprintf ", \"members\": %d" d.dg_members);
  Buffer.add_string b
    (Printf.sprintf ", \"message\": \"%s\"}"
       (Lint.json_escape (Format.asprintf "%a" pp_diag d)));
  Buffer.contents b

type mode = Full | Quotient of { orbits : int; interpreted_ranks : int }

type report = {
  r_mode : mode;
  r_diags : diag list;
  r_lints : Lint.diagnostic list;
  r_steps_interpreted : int;
  r_slots_checked : int;
}

(* ------------------------------------------------------------------ *)
(* Rank bitsets                                                        *)
(* ------------------------------------------------------------------ *)

let bs_make nb = Bytes.make nb '\000'

let bs_set b q =
  let i = q lsr 3 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lor (1 lsl (q land 7))))

let bs_mem b q =
  Char.code (Bytes.get b (q lsr 3)) land (1 lsl (q land 7)) <> 0

let bs_with b q =
  let b' = Bytes.copy b in
  bs_set b' q;
  b'

let bs_union a b =
  let n = Bytes.length a in
  let c = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set c i
      (Char.chr (Char.code (Bytes.get a i) lor Char.code (Bytes.get b i)))
  done;
  c

let popcount_tbl =
  Array.init 256 (fun x ->
      let rec go x = if x = 0 then 0 else (x land 1) + go (x lsr 1) in
      go x)

let bs_count b =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_tbl.(Char.code c)) b;
  !n

let bs_subset a b =
  (* every bit of [a] also in [b] *)
  let n = Bytes.length a in
  let rec go i =
    i >= n
    || Char.code (Bytes.get a i) land lnot (Char.code (Bytes.get b i)) = 0
       && go (i + 1)
  in
  go 0

let bs_iter f b =
  Bytes.iteri
    (fun i c ->
      let c = Char.code c in
      if c <> 0 then
        for k = 0 to 7 do
          if c land (1 lsl k) <> 0 then f ((i lsl 3) + k)
        done)
    b

(* ------------------------------------------------------------------ *)
(* The contribution lattice                                            *)
(* ------------------------------------------------------------------ *)

(* A source id encodes the input chunk (rank, logical index) as
   [rank * stride + index]. [One] is a copied (unreduced) single source;
   [Red] is a reduction, abstracted as its support — per logical index, a
   bitset of contributing ranks — plus the total multiplicity (with
   duplicates), which is what catches double-counted reductions; [Poison]
   is the result of reading an uninitialized slot (the executor would
   have crashed there — we keep going and taint everything downstream). *)
type pv =
  | One of int
  | Red of { idx : int array; ranks : Bytes.t array; mult : int }
  | Poison

(* Insertion point of [i] in sorted [idx]: [Ok k] when present. *)
let find_idx idx i =
  let lo = ref 0 and hi = ref (Array.length idx) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if idx.(mid) < i then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length idx && idx.(!lo) = i then Ok !lo else Error !lo

let red_singleton ~nbytes ~stride id extra_mult =
  let q = id / stride and i = id mod stride in
  let row = bs_make nbytes in
  bs_set row q;
  Red { idx = [| i |]; ranks = [| row |]; mult = 1 + extra_mult }

let red_add ~stride r id =
  match r with
  | Red { idx; ranks; mult } -> (
      let q = id / stride and i = id mod stride in
      match find_idx idx i with
      | Ok k ->
          let ranks' = Array.copy ranks in
          ranks'.(k) <- bs_with ranks.(k) q;
          Red { idx; ranks = ranks'; mult = mult + 1 }
      | Error k ->
          let n = Array.length idx in
          let idx' = Array.make (n + 1) 0 in
          let ranks' = Array.make (n + 1) ranks.(0) in
          Array.blit idx 0 idx' 0 k;
          Array.blit ranks 0 ranks' 0 k;
          idx'.(k) <- i;
          let row = bs_make (Bytes.length ranks.(0)) in
          bs_set row q;
          ranks'.(k) <- row;
          Array.blit idx k idx' (k + 1) (n - k);
          Array.blit ranks k ranks' (k + 1) (n - k);
          Red { idx = idx'; ranks = ranks'; mult = mult + 1 })
  | _ -> assert false

let red_merge a b =
  match (a, b) with
  | ( Red { idx = i1; ranks = r1; mult = m1 },
      Red { idx = i2; ranks = r2; mult = m2 } ) ->
      let n1 = Array.length i1 and n2 = Array.length i2 in
      let idx = Array.make (n1 + n2) 0 in
      let ranks = Array.make (n1 + n2) r1.(0) in
      let k = ref 0 and a = ref 0 and b = ref 0 in
      while !a < n1 || !b < n2 do
        if !b >= n2 || (!a < n1 && i1.(!a) < i2.(!b)) then begin
          idx.(!k) <- i1.(!a);
          ranks.(!k) <- r1.(!a);
          incr a
        end
        else if !a >= n1 || i2.(!b) < i1.(!a) then begin
          idx.(!k) <- i2.(!b);
          ranks.(!k) <- r2.(!b);
          incr b
        end
        else begin
          idx.(!k) <- i1.(!a);
          ranks.(!k) <- bs_union r1.(!a) r2.(!b);
          incr a;
          incr b
        end;
        incr k
      done;
      Red
        {
          idx = Array.sub idx 0 !k;
          ranks = Array.sub ranks 0 !k;
          mult = m1 + m2;
        }
  | _ -> assert false

let pv_reduce ~nbytes ~stride a b =
  match (a, b) with
  | Poison, _ | _, Poison -> Poison
  | One x, One y ->
      let r = red_singleton ~nbytes ~stride x 0 in
      red_add ~stride r y
  | One x, (Red _ as r) | (Red _ as r), One x -> red_add ~stride r x
  | (Red _ as r1), (Red _ as r2) -> red_merge r1 r2

(* ------------------------------------------------------------------ *)
(* Expected values (postcondition chunks as lattice points)            *)
(* ------------------------------------------------------------------ *)

type expect =
  | E_one of int
  | E_many of { e_idx : int array; e_ranks : Bytes.t array; e_count : int }

module CH = Hashtbl.Make (struct
  type t = Chunk.t

  let equal = Chunk.equal
  let hash = Chunk.hash
end)

(* Reusable per-index rows for building expected sets: generation
   stamps avoid clearing all [stride] rows between chunks, and
   [Chunk.iter_inputs] skips the sorted-multiset materialization, so a
   width-n expected reduction costs O(n) instead of O(n log n) plus a
   hashtable. *)
type scratch = {
  sc_rows : Bytes.t array;
  sc_gen : int array;
  mutable sc_g : int;
}

let mk_scratch ~nbytes ~stride =
  let n = max stride 1 in
  {
    sc_rows = Array.init n (fun _ -> bs_make nbytes);
    sc_gen = Array.make n 0;
    sc_g = 0;
  }

let expect_of_chunk ~nbytes ~stride scratch memo c =
  match CH.find_opt memo c with
  | Some e -> e
  | None ->
      let e =
        let g = scratch.sc_g + 1 in
        scratch.sc_g <- g;
        let touched = ref [] in
        let total = ref 0 in
        let off_stride = ref false in
        let lq = ref (-1) and li = ref (-1) in
        Chunk.iter_inputs
          (fun q i ->
            incr total;
            lq := q;
            li := i;
            if i < 0 || i >= stride then off_stride := true
            else begin
              let row = scratch.sc_rows.(i) in
              if scratch.sc_gen.(i) <> g then begin
                scratch.sc_gen.(i) <- g;
                Bytes.fill row 0 nbytes '\000';
                touched := i :: !touched
              end;
              bs_set row q
            end)
          c;
        if !off_stride then
          (* an input index outside the encodable stride (custom
             preconditions only): generic sorted-multiset path *)
          match Chunk.inputs c with
          | None | Some [] -> E_one (-1)
          | Some [ (q, i) ] -> E_one ((q * stride) + i)
          | Some ids ->
              let tbl = Hashtbl.create 16 in
              List.iter
                (fun (q, i) ->
                  match Hashtbl.find_opt tbl i with
                  | Some row -> bs_set row q
                  | None ->
                      let row = bs_make nbytes in
                      bs_set row q;
                      Hashtbl.add tbl i row)
                ids;
              let keys =
                Hashtbl.fold (fun i _ acc -> i :: acc) tbl []
                |> List.sort compare |> Array.of_list
              in
              E_many
                {
                  e_idx = keys;
                  e_ranks = Array.map (Hashtbl.find tbl) keys;
                  e_count = List.length ids;
                }
        else if !total = 0 then E_one (-1) (* uninit expected *)
        else if !total = 1 then E_one ((!lq * stride) + !li)
        else
          let keys = List.sort compare !touched |> Array.of_list in
          E_many
            {
              e_idx = keys;
              e_ranks =
                Array.map
                  (fun i -> Bytes.sub scratch.sc_rows.(i) 0 nbytes)
                  keys;
              e_count = !total;
            }
      in
      CH.add memo c e;
      e

(* Compare a slot's abstract value against the spec and classify the
   divergence. The (support, multiplicity) abstraction is exact against
   duplicate-free expected multisets (all builtin collectives): equality
   holds iff the supports coincide and the multiplicity equals the
   expected count. *)
let classify expect v =
  let sub_red idx ranks e_idx e_ranks =
    Array.for_all
      (fun k ->
        match find_idx e_idx idx.(k) with
        | Ok j -> bs_subset ranks.(k) e_ranks.(j)
        | Error _ -> false)
      (Array.init (Array.length idx) (fun k -> k))
  in
  match (v, expect) with
  | One x, E_one y when x = y && x >= 0 -> `Ok
  | Poison, _ -> `Kind Divergent
  | One x, E_many { e_idx; e_ranks; e_count } ->
      let q_stride_member =
        (* membership of a single id in the expected support *)
        fun stride ->
         let q = x / stride and i = x mod stride in
         match find_idx e_idx i with
         | Ok j -> bs_mem e_ranks.(j) q
         | Error _ -> false
      in
      `Classify_one (q_stride_member, e_count)
  | One _, E_one _ -> `Kind Divergent
  | Red { mult; _ }, E_one _ ->
      (* expected a plain copy, got a reduction *)
      `Kind (Duplicated_contribution { multiplicity = mult; distinct = 1 })
  | Red { idx; ranks; mult }, E_many { e_idx; e_ranks; e_count } ->
      let distinct = Array.fold_left (fun a r -> a + bs_count r) 0 ranks in
      let sup_eq =
        Array.length idx = Array.length e_idx
        && idx = e_idx
        && Array.for_all2 Bytes.equal ranks e_ranks
      in
      if sup_eq then
        if mult = e_count then `Ok
        else `Kind (Duplicated_contribution { multiplicity = mult; distinct })
      else if sub_red idx ranks e_idx e_ranks then
        if mult > distinct then
          `Kind (Duplicated_contribution { multiplicity = mult; distinct })
        else `Kind (Missing_contribution { missing = e_count - distinct })
      else `Kind Divergent

(* ------------------------------------------------------------------ *)
(* Interpreter state                                                   *)
(* ------------------------------------------------------------------ *)

(* Per physical buffer: the abstract values plus per-slot provenance
   metadata — the last writer (as a node id), whether anything read the
   slot since that write, and the first overwrite-of-an-unread-value
   event (clobbered writer, clobbering writer), which backs the
   [Overwritten_before_read] classification. *)
type buf = {
  vals : pv option array;
  writer : int array;
  rsince : bool array;
  ow : int array;
  ow_prev : int array;
}

let mk_buf n =
  {
    vals = Array.make n None;
    writer = Array.make n (-1);
    rsince = Array.make n false;
    ow = Array.make n (-1);
    ow_prev = Array.make n (-1);
  }

type rank_bufs = { rb_in : buf; rb_out : buf; rb_scr : buf }

(* Write-event graph, materialized only when lints are requested: one
   event per executed instruction, with dataflow edges to the events
   whose values it consumed (slot reads and received messages). *)
type events = {
  ev_srcs : int list array;
  ev_writes : int array;
  ev_kills : int array;
  ev_unread : int array;
  scr_writers : int list array array; (* rank -> scratch slot -> writers *)
}

type engine = {
  e_ir : Ir.t;
  e_inplace : bool;
  e_nranks : int;
  e_stride : int;
  e_nbytes : int;
  e_in_size : int;
  e_out_size : int;
  e_bufs : rank_bufs array;
  e_tb_base : int array array; (* (rank, tb) -> node id base *)
  e_rank_start : int array; (* rank -> first node id (ascending) *)
  e_n_nodes : int;
  mutable e_executed : int;
  mutable e_diags : diag list; (* reversed *)
  e_seen : (int, unit) Hashtbl.t; (* dedup uninit/oob/operand per node *)
  e_events : events option;
}

exception Fallback

let node_of eng rank tb step = eng.e_tb_base.(rank).(tb) + step

let site_at eng ((rank, tb, step) as at) =
  let op = Executor.step_op eng.e_ir at in
  { p_rank = rank; p_tb = tb; p_step = step; p_op = op }

let site_of_node eng nid =
  (* binary search the rank, then the thread block *)
  let lo = ref 0 and hi = ref (eng.e_nranks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if eng.e_rank_start.(mid) <= nid then lo := mid else hi := mid - 1
  done;
  let rank = !lo in
  let bases = eng.e_tb_base.(rank) in
  let t = ref 0 in
  Array.iteri (fun k b -> if b <= nid then t := k) bases;
  site_at eng (rank, !t, nid - bases.(!t))

let opt_site eng nid = if nid < 0 then None else Some (site_of_node eng nid)

let make_engine ?(events = false) ?only (ir : Ir.t) ~stride =
  let coll = ir.Ir.collective in
  let inplace = coll.Collective.inplace in
  let nranks = Ir.num_ranks ir in
  let nbytes = (nranks + 7) / 8 in
  let in_size = Collective.input_buffer_size coll in
  let out_size = Collective.output_buffer_size coll in
  (* [only] restricts buffer allocation and precondition initialization
     to the ranks the quotient actually interprets and checks; the other
     ranks' buffers are never touched in that mode. *)
  let wanted r = match only with None -> true | Some reps -> reps.(r) in
  let bufs =
    Array.map
      (fun (g : Ir.gpu) ->
        let size n = if wanted g.Ir.gpu_id then n else 0 in
        let rb_in = mk_buf (size g.Ir.input_chunks) in
        {
          rb_in;
          rb_out =
            (if inplace then rb_in else mk_buf (size g.Ir.output_chunks));
          rb_scr = mk_buf (size g.Ir.scratch_chunks);
        })
      ir.Ir.gpus
  in
  (* initial values from the collective's precondition *)
  Array.iter
    (fun (g : Ir.gpu) ->
      if wanted g.Ir.gpu_id then begin
        let b = bufs.(g.Ir.gpu_id).rb_in in
        for index = 0 to min in_size (Array.length b.vals) - 1 do
          let c = Collective.precondition coll ~rank:g.Ir.gpu_id ~index in
          if not (Chunk.is_uninit c) then
            b.vals.(index) <-
              (match Chunk.inputs c with
              | Some [ (q, i) ] when i < stride -> Some (One ((q * stride) + i))
              | _ -> Some Poison (* unencodable custom precondition *))
        done
      end)
    ir.Ir.gpus;
  let tb_base =
    Array.map (fun (g : Ir.gpu) -> Array.make (Array.length g.Ir.tbs) 0)
      ir.Ir.gpus
  in
  let n = ref 0 in
  let rank_start = Array.make nranks 0 in
  Array.iteri
    (fun r (g : Ir.gpu) ->
      rank_start.(r) <- !n;
      Array.iteri
        (fun t (tb : Ir.tb) ->
          tb_base.(r).(t) <- !n;
          n := !n + Array.length tb.Ir.steps)
        g.Ir.tbs)
    ir.Ir.gpus;
  let ev =
    if not events then None
    else
      Some
        {
          ev_srcs = Array.make !n [];
          ev_writes = Array.make !n 0;
          ev_kills = Array.make !n 0;
          ev_unread = Array.make !n 0;
          scr_writers =
            Array.map
              (fun (g : Ir.gpu) -> Array.make g.Ir.scratch_chunks [])
              ir.Ir.gpus;
        }
  in
  {
    e_ir = ir;
    e_inplace = inplace;
    e_nranks = nranks;
    e_stride = stride;
    e_nbytes = nbytes;
    e_in_size = in_size;
    e_out_size = out_size;
    e_bufs = bufs;
    e_tb_base = tb_base;
    e_rank_start = rank_start;
    e_n_nodes = !n;
    e_executed = 0;
    e_diags = [];
    e_seen = Hashtbl.create 16;
    e_events = ev;
  }

let buffer_of eng (l : Loc.t) =
  let b = eng.e_bufs.(l.Loc.rank) in
  match l.Loc.buf with
  | Buffer_id.Input -> b.rb_in
  | Buffer_id.Output -> b.rb_out
  | Buffer_id.Scratch -> b.rb_scr

let add_diag eng d = eng.e_diags <- d :: eng.e_diags

(* Read a span; uninitialized or out-of-bounds slots poison the result
   and report a diagnostic (once per instruction) instead of crashing
   like the executor. Each read slot's writer becomes a dataflow edge of
   the event graph. *)
let read_span eng ~nid (l : Loc.t) =
  let b = buffer_of eng l in
  Array.init l.Loc.count (fun k ->
      let idx = l.Loc.index + k in
      if idx >= Array.length b.vals then begin
        (if not (Hashtbl.mem eng.e_seen nid) then begin
           Hashtbl.add eng.e_seen nid ();
           add_diag eng
             {
               dg_kind = Out_of_bounds l;
               dg_rank = l.Loc.rank;
               dg_loc = Some l;
               dg_site = opt_site eng nid;
               dg_members = 1;
             }
         end);
        Poison
      end
      else begin
        b.rsince.(idx) <- true;
        (match eng.e_events with
        | Some ev when b.writer.(idx) >= 0 ->
            ev.ev_srcs.(nid) <- b.writer.(idx) :: ev.ev_srcs.(nid)
        | _ -> ());
        match b.vals.(idx) with
        | Some v -> v
        | None ->
            (if not (Hashtbl.mem eng.e_seen nid) then begin
               Hashtbl.add eng.e_seen nid ();
               add_diag eng
                 {
                   dg_kind =
                     Uninitialized_read
                       (Loc.make ~rank:l.Loc.rank ~buf:l.Loc.buf ~index:idx
                          ~count:1);
                   dg_rank = l.Loc.rank;
                   dg_loc = Some l;
                   dg_site = opt_site eng nid;
                   dg_members = 1;
                 }
             end);
            Poison
      end)

let write_span eng ~nid (l : Loc.t) vals =
  let b = buffer_of eng l in
  let n = Array.length b.vals in
  if l.Loc.index + l.Loc.count > n && not (Hashtbl.mem eng.e_seen (nid + eng.e_n_nodes)) then begin
    Hashtbl.add eng.e_seen (nid + eng.e_n_nodes) ();
    add_diag eng
      {
        dg_kind = Out_of_bounds l;
        dg_rank = l.Loc.rank;
        dg_loc = Some l;
        dg_site = opt_site eng nid;
        dg_members = 1;
      }
  end;
  Array.iteri
    (fun k v ->
      let idx = l.Loc.index + k in
      if idx < n then begin
        (if b.writer.(idx) >= 0 && not b.rsince.(idx) then begin
           (match eng.e_events with
           | Some ev -> ev.ev_kills.(b.writer.(idx)) <- ev.ev_kills.(b.writer.(idx)) + 1
           | None -> ());
           if b.ow.(idx) < 0 then begin
             b.ow.(idx) <- nid;
             b.ow_prev.(idx) <- b.writer.(idx)
           end
         end);
        b.vals.(idx) <- Some v;
        b.writer.(idx) <- nid;
        b.rsince.(idx) <- false;
        match eng.e_events with
        | Some ev ->
            ev.ev_writes.(nid) <- ev.ev_writes.(nid) + 1;
            if l.Loc.buf = Buffer_id.Scratch then
              ev.scr_writers.(l.Loc.rank).(idx) <-
                nid :: ev.scr_writers.(l.Loc.rank).(idx)
        | None -> ()
      end)
    vals

(* A step without the operand its opcode uses (ingestion accepts an rcs
   with no destination) or a receive whose message has the wrong number
   of chunks is reported once, where the executor raises; the scheduler
   reads Poison for it and drops the write, so the FIFOs stay balanced. *)
let fault eng ~nid ~rank f =
  let key = nid + (2 * eng.e_n_nodes) in
  if not (Hashtbl.mem eng.e_seen key) then begin
    Hashtbl.add eng.e_seen key ();
    add_diag eng
      {
        dg_kind =
          (match f with
          | Executor.No_operand what -> Missing_operand what
          | Executor.Message_size { sent; expected; _ } ->
              Message_size { sent; expected });
        dg_rank = rank;
        dg_loc = None;
        dg_site = opt_site eng nid;
        dg_members = 1;
      }
  end

(* ------------------------------------------------------------------ *)
(* The executor's scheduler over the lattice                           *)
(* ------------------------------------------------------------------ *)

(* Both modes run [Executor.schedule] over the executor's connection
   FIFOs; the quotient interpretation re-addresses each representative
   receive to its canonical image and translates what it pops. *)
let interp eng =
  let nid (r, t, s) = node_of eng r t s in
  {
    Executor.read = (fun at l -> read_span eng ~nid:(nid at) l);
    write = (fun at l vals -> write_span eng ~nid:(nid at) l vals);
    reduce = pv_reduce ~nbytes:eng.e_nbytes ~stride:eng.e_stride;
    fault =
      (fun ((rank, _, _) as at) f ->
        fault eng ~nid:(nid at) ~rank f;
        Poison);
    received =
      (fun at ~sender _ ->
        match eng.e_events with
        | Some ev ->
            let n = nid at in
            ev.ev_srcs.(n) <- nid sender :: ev.ev_srcs.(n)
        | None -> ());
  }

let blocked_summary eng stuck =
  let n = List.length stuck in
  Printf.sprintf "no thread block can make progress; %d blocked: %s%s" n
    (String.concat "; "
       (List.filteri (fun i _ -> i < 4) stuck
       |> List.map (fun (((r, t, s) as at), _) ->
              Printf.sprintf "gpu %d tb %d at step %d (%s)" r t s
                (Instr.opcode_name (Executor.step_op eng.e_ir at)))))
    (if n > 4 then "; ..." else "")

(* ------------------------------------------------------------------ *)
(* Full interpretation                                                 *)
(* ------------------------------------------------------------------ *)

(* Returns whether every step ran (no deadlock). *)
let run_full eng idx ~slots =
  let port, in_flight = Executor.fifos ~slots idx in
  let o =
    Executor.schedule (interp eng) (Executor.own_ports idx port) eng.e_ir.Ir.gpus
  in
  eng.e_executed <- o.Executor.executed;
  match o.Executor.stuck with
  | [] ->
      List.iter
        (fun ((src, dst, chan), count, sender) ->
          add_diag eng
            {
              dg_kind = Undelivered_messages { src; dst; chan; count };
              dg_rank = src;
              dg_loc = None;
              dg_site = Some (site_at eng sender);
              dg_members = 1;
            })
        (in_flight ());
      true
  | stuck ->
      add_diag eng
        {
          dg_kind = Deadlock (blocked_summary eng stuck);
          dg_rank = -1;
          dg_loc = None;
          dg_site = None;
          dg_members = 1;
        };
      false

(* ------------------------------------------------------------------ *)
(* Orbit-quotient interpretation                                       *)
(* ------------------------------------------------------------------ *)

(* The quotient needs one certified generator whose π-cycles are exactly
   the orbit partition, a rank-uniform input-chunk bijection ψ (to build
   the id translation Φ), a precondition that places every input id at a
   unique slot, and a spec that is itself symmetric under (π, ψ, Φ).
   Anything else falls back to the full interpretation — slower, never
   wrong. *)
type qplan = {
  q_orbit : Orbit.t;
  q_inv : int array; (* π⁻¹ *)
  q_off : int array; (* rank -> power of π from its representative *)
  q_phi1 : int array; (* source id translation under one application *)
  q_phi_pow : (int, int array) Hashtbl.t;
  q_reps : bool array;
  q_post : rank:int -> index:int -> Chunk.t option;
      (* the postcondition closure used while certifying the spec; its
         per-index sum cache is already warm, so the final comparison
         reuses it instead of rebuilding every expected reduction *)
}

(* Powers of Φ by binary exponentiation: only the O(log n) square tables
   Φ^(2^k) are ever materialized (memoized under key k), and Φ^m is
   applied per id by chaining the tables of m's set bits. Composed
   per-power tables are deliberately never built — a wide fan-in (one
   distinct sender offset per peer, as in allpairs) would otherwise
   materialize n tables of n·stride entries each. Φ's powers commute, so
   the chaining order is irrelevant. *)
let phi_apply plan m =
  if m = 0 then None (* identity: skip translation entirely *)
  else begin
    let rec pow2 k =
      match Hashtbl.find_opt plan.q_phi_pow k with
      | Some t -> t
      | None ->
          let t =
            if k = 0 then plan.q_phi1
            else
              let h = pow2 (k - 1) in
              Array.map (fun id -> if id < 0 then -1 else h.(id)) h
          in
          Hashtbl.add plan.q_phi_pow k t;
          t
    in
    let rec collect k rest acc =
      if rest = 0 then acc
      else
        collect (k + 1) (rest lsr 1)
          (if rest land 1 = 1 then pow2 k :: acc else acc)
    in
    let tables = collect 0 m [] in
    Some
      (fun id ->
        List.fold_left
          (fun id t -> if id < 0 then -1 else t.(id))
          id tables)
  end

let translate_pv ~nbytes ~stride apply = function
  | Poison -> Poison
  | One id ->
      let id' = apply id in
      if id' < 0 then raise Fallback;
      One id'
  | Red { idx; ranks; mult } ->
      let acc = Hashtbl.create 8 in
      Array.iteri
        (fun k i ->
          bs_iter
            (fun q ->
              let id' = apply ((q * stride) + i) in
              if id' < 0 then raise Fallback;
              let q' = id' / stride and i' = id' mod stride in
              match Hashtbl.find_opt acc i' with
              | Some row -> bs_set row q'
              | None ->
                  let row = bs_make nbytes in
                  bs_set row q';
                  Hashtbl.add acc i' row)
            ranks.(k))
        idx;
      let keys =
        Hashtbl.fold (fun i _ a -> i :: a) acc []
        |> List.sort compare |> Array.of_list
      in
      Red { idx = keys; ranks = Array.map (Hashtbl.find acc) keys; mult }

(* Quotient provenance does strictly more work per representative than the
   full pass does per rank: reduction provenance rows are bitsets over all
   ranks and every step's value is translated through the generator, so a
   representative costs O(nranks) where a full-pass rank costs O(1) per
   step. Measured on hierarchical allreduce at 1024 ranks (128 orbits of
   size 8), the quotient pass ran ~3x slower than the full pass; with one
   orbit of 1024 it ran ~3x faster. Only take the quotient when orbits are
   large enough that the rank-count saving pays for the per-representative
   overhead — except on small machines, where both passes are
   sub-millisecond and keeping the quotient engaged keeps its path
   exercised and its per-representative diagnostics available. *)
let quotient_min_orbit_size = 32
let quotient_always_below_ranks = 256

(* Decide whether the quotient applies; [None] means run full. *)
let plan_of (ir : Ir.t) (sym : Symmetry.t) =
  let orb = sym.Symmetry.s_orbit in
  let nranks = Ir.num_ranks ir in
  if
    (not (Symmetry.certified sym))
    || Orbit.num_orbits orb >= nranks
    || nranks >= quotient_always_below_ranks
       && Orbit.num_orbits orb * quotient_min_orbit_size > nranks
  then None
  else begin
    let coll = ir.Ir.collective in
    let cycle_matches (g : Symmetry.generator) =
      let perm = g.Symmetry.g_perm in
      let ok = ref true in
      Array.iteri
        (fun r p -> if orb.Orbit.rep.(p) <> orb.Orbit.rep.(r) then ok := false)
        perm;
      !ok
      && List.for_all
           (fun rep ->
             let len = ref 1 and r = ref perm.(rep) in
             while !r <> rep && !len <= nranks do
               incr len;
               r := perm.(!r)
             done;
             !r = rep && !len = Orbit.orbit_size orb rep)
           (Orbit.reps orb)
    in
    match List.find_opt cycle_matches sym.Symmetry.s_generators with
    | None -> None
    | Some gen -> (
        let perm = gen.Symmetry.g_perm in
        let psi_in = gen.Symmetry.g_psi.(0) in
        let psi_out =
          if coll.Collective.inplace then psi_in else gen.Symmetry.g_psi.(1)
        in
        match (psi_in, psi_out) with
        | None, _ | _, None -> None
        | Some psi_in, Some psi_out -> (
            let in_size = Collective.input_buffer_size coll in
            let out_size = Collective.output_buffer_size coll in
            let stride = max 1 (Collective.input_chunks coll) in
            (* where does each input id initially live? *)
            let idspace = nranks * stride in
            let pos_rank = Array.make idspace (-1) in
            let pos_idx = Array.make idspace (-1) in
            let id_at = Array.make_matrix nranks in_size (-1) in
            let ok = ref true in
            for r = 0 to nranks - 1 do
              for p = 0 to in_size - 1 do
                let c = Collective.precondition coll ~rank:r ~index:p in
                if not (Chunk.is_uninit c) then
                  match Chunk.inputs c with
                  | Some [ (q, i) ] when q < nranks && i < stride ->
                      let id = (q * stride) + i in
                      if pos_rank.(id) >= 0 then ok := false
                      else begin
                        pos_rank.(id) <- r;
                        pos_idx.(id) <- p;
                        id_at.(r).(p) <- id
                      end
                  | _ -> ok := false
              done
            done;
            if not !ok then None
            else begin
              let phi1 =
                Array.init idspace (fun id ->
                    if pos_rank.(id) < 0 then -1
                    else
                      let p = pos_idx.(id) in
                      if p >= Array.length psi_in then -1
                      else
                        let p' = psi_in.(p) in
                        if p' < 0 || p' >= in_size then -1
                        else id_at.(perm.(pos_rank.(id))).(p'))
              in
              (* spec symmetry: expected(π r, ψ_out j) = Φ(expected(r, j)).
                 AllReduce/AllGather postconditions are rank-invariant by
                 construction, so one rank's sweep suffices there. *)
              let post = Collective.postcondition_fn coll in
              (* Multiset test Φ(inputs c) = inputs c' on a
                 generation-stamped count array: no sorting, no list
                 materialization, O(|c| + |c'|) per output slot. *)
              let cnt = Array.make idspace 0 in
              let stamp = Array.make idspace 0 in
              let gen = ref 0 in
              let specs_match c c' =
                if Chunk.is_uninit c || Chunk.is_uninit c' then false
                else begin
                  incr gen;
                  let g = !gen in
                  let touched = ref [] in
                  let bad = ref false in
                  let na = ref 0 and nb = ref 0 in
                  let bump id delta n =
                    incr n;
                    if stamp.(id) <> g then begin
                      stamp.(id) <- g;
                      cnt.(id) <- 0;
                      touched := id :: !touched
                    end;
                    cnt.(id) <- cnt.(id) + delta
                  in
                  Chunk.iter_inputs
                    (fun q i ->
                      if q >= nranks || i >= stride then bad := true
                      else
                        let id' = phi1.((q * stride) + i) in
                        if id' < 0 then bad := true else bump id' 1 na)
                    c;
                  Chunk.iter_inputs
                    (fun q i ->
                      if q >= nranks || i >= stride then bad := true
                      else bump ((q * stride) + i) (-1) nb)
                    c';
                  (not !bad)
                  && !na = !nb
                  && List.for_all (fun id -> cnt.(id) = 0) !touched
                end
              in
              let spec_rank_ok r =
                let ok = ref true in
                let j = ref 0 in
                while !ok && !j < out_size do
                  let e = post ~rank:r ~index:!j in
                  let j' =
                    if !j < Array.length psi_out then psi_out.(!j) else -1
                  in
                  (match e with
                  | None ->
                      if j' >= 0 && j' < out_size
                         && post ~rank:perm.(r) ~index:j' <> None
                      then ok := false
                  | Some c -> (
                      if j' < 0 || j' >= out_size then ok := false
                      else
                        match post ~rank:perm.(r) ~index:j' with
                        | None -> ok := false
                        | Some c' -> if not (specs_match c c') then ok := false));
                  incr j
                done;
                !ok
              in
              let rank_invariant =
                match coll.Collective.kind with
                | Collective.Allreduce | Collective.Allgather -> true
                | _ -> false
              in
              let spec_ok =
                if rank_invariant then spec_rank_ok 0
                else
                  let rec go r = r >= nranks || (spec_rank_ok r && go (r + 1)) in
                  go 0
              in
              if not spec_ok then None
              else begin
                let off = Array.make nranks 0 in
                List.iter
                  (fun rep ->
                    let m = ref 0 and r = ref rep in
                    let continue = ref true in
                    while !continue do
                      off.(!r) <- !m;
                      incr m;
                      r := perm.(!r);
                      if !r = rep then continue := false
                    done)
                  (Orbit.reps orb);
                let reps = Array.make nranks false in
                List.iter (fun r -> reps.(r) <- true) (Orbit.reps orb);
                let inv = Array.make nranks 0 in
                Array.iteri (fun r p -> inv.(p) <- r) perm;
                Some
                  {
                    q_orbit = orb;
                    q_inv = inv;
                    q_off = off;
                    q_phi1 = phi1;
                    q_phi_pow = Hashtbl.create 8;
                    q_reps = reps;
                    q_post = post;
                  }
              end
            end))
  end

(* The canonical image of a receive on rank [dst] from [src]: the orbit
   representative of [src], and [dst] moved back by the [q_off.(src)]
   applications of π that carry that representative to [src]. *)
let canonical_recv plan ~src ~dst =
  let d = ref dst in
  for _ = 1 to plan.q_off.(src) do
    d := plan.q_inv.(!d)
  done;
  (plan.q_orbit.Orbit.rep.(src), !d)

let run_quotient eng plan idx ~slots =
  let ir = eng.e_ir in
  let orb = plan.q_orbit in
  let reps = Array.of_list (Orbit.reps orb) in
  let active = Array.map (fun r -> ir.Ir.gpus.(r)) reps in
  (* Representatives send into the executor's connection FIFOs as usual.
     Each representative receive reads the FIFO of its canonical image
     (srep, image_dst, chan), i.e. the inbox of the image receiver, and
     translates the payload by its π-power; each FIFO has at most one
     reader. A certified symmetry maps blocks to blocks, so every image
     is a connection of the index. *)
  let port, _ = Executor.fifos ~slots idx in
  (* [analyze] found every connection balanced, so a block whose receive
     peer is no rank has no receiving step: it reads nothing. *)
  let reads (tb : Ir.tb) = tb.Ir.recv >= 0 && tb.Ir.recv < Ir.num_ranks ir in
  let image = Array.make (Ir.num_thread_blocks ir) (-1) in
  let read = Bytes.make idx.Ir.conns '\000' in
  Array.iter
    (fun r ->
      let g = ir.Ir.gpus.(r) in
      Array.iteri
        (fun t (tb : Ir.tb) ->
          if reads tb then begin
            let src, dst =
              canonical_recv plan ~src:tb.Ir.recv ~dst:g.Ir.gpu_id
            in
            let c = Ir.find_conn idx ~src ~dst ~chan:tb.Ir.chan in
            if c < 0 || Bytes.get read c <> '\000' then raise Fallback;
            Bytes.set read c '\001';
            image.(idx.Ir.gpu_block.(r) + t) <- c
          end)
        g.Ir.tbs)
    reps;
  (* The re-addressing happens here, once per block, when the scheduler
     connects it. *)
  let comm i t =
    let b = idx.Ir.gpu_block.(reps.(i)) + t in
    let own = Executor.own_ports idx port reps.(i) t in
    let send_ready =
      let c = idx.Ir.block_send.(b) in
      if c >= 0 && Bytes.get read c <> '\000' then own.Executor.send_ready
      else (* a connection no representative reads never blocks *)
        fun () -> true
    in
    if image.(b) < 0 then
      { own with Executor.recv_ready = (fun () -> false); send_ready }
    else
      let inbox = port ~inbox:image.(b) ~outbox:(-1) in
      let pop =
        match phi_apply plan plan.q_off.(active.(i).Ir.tbs.(t).Ir.recv) with
        | None -> inbox.Executor.pop
        | Some apply ->
            fun () ->
              let vals, sender = inbox.Executor.pop () in
              ( Array.map
                  (translate_pv ~nbytes:eng.e_nbytes ~stride:eng.e_stride apply)
                  vals,
                sender )
      in
      {
        own with
        Executor.recv_ready = inbox.Executor.recv_ready;
        pop;
        send_ready;
      }
  in
  (* a quotient deadlock may be a translation artifact: let the full
     interpretation decide *)
  let o = Executor.schedule (interp eng) comm active in
  if o.Executor.stuck <> [] then raise Fallback;
  eng.e_executed <- o.Executor.executed;
  active

(* ------------------------------------------------------------------ *)
(* Final comparison against the postcondition                          *)
(* ------------------------------------------------------------------ *)

(* Per-connection send/receive balance over every rank. [analyze] runs
   it before choosing a mode: under a certified generator every
   connection's counts equal those of its image, so the quotient needs
   no scan of its own. *)
let connection_diags (idx : Ir.index) =
  let acc = ref [] in
  for c = idx.Ir.conns - 1 downto 0 do
    let sends = idx.Ir.conn_sends.(c) and recvs = idx.Ir.conn_recvs.(c) in
    if sends <> recvs then
      let src = idx.Ir.conn_src.(c) in
      acc :=
        {
          dg_kind =
            Connection_mismatch
              { src; dst = idx.Ir.conn_dst.(c); chan = idx.Ir.conn_chan.(c); sends; recvs };
          dg_rank = src;
          dg_loc = None;
          dg_site = None;
          dg_members = 1;
        }
        :: !acc
  done;
  !acc

let compare_outputs ?post eng ~checked ~members =
  let coll = eng.e_ir.Ir.collective in
  let post =
    match post with Some f -> f | None -> Collective.postcondition_fn coll
  in
  let memo = CH.create 64 in
  let scratch = mk_scratch ~nbytes:eng.e_nbytes ~stride:eng.e_stride in
  let slots_checked = ref 0 in
  let out = ref [] in
  List.iter
    (fun rank ->
      let b = eng.e_bufs.(rank).rb_out in
      for j = 0 to eng.e_out_size - 1 do
        match post ~rank ~index:j with
        | None -> ()
        | Some expected ->
            incr slots_checked;
            let e =
              expect_of_chunk ~nbytes:eng.e_nbytes ~stride:eng.e_stride scratch
                memo expected
            in
            let v = if j < Array.length b.vals then b.vals.(j) else None in
            let verdict =
              match v with
              | None -> Some Never_written
              | Some v -> (
                  match classify e v with
                  | `Ok -> None
                  | `Kind k -> Some k
                  | `Classify_one (member, e_count) ->
                      if member eng.e_stride then
                        Some (Missing_contribution { missing = e_count - 1 })
                      else Some Divergent)
            in
            (match verdict with
            | None -> ()
            | Some k ->
                let k, site =
                  (* prefer the clobber root cause when the slot saw an
                     unread overwrite *)
                  if j < Array.length b.ow && b.ow.(j) >= 0 && k <> Never_written
                  then
                    ( Overwritten_before_read
                        { overwriter = site_of_node eng b.ow.(j) },
                      opt_site eng b.ow_prev.(j) )
                  else
                    ( k,
                      if j < Array.length b.writer then
                        opt_site eng b.writer.(j)
                      else None )
                in
                out :=
                  {
                    dg_kind = k;
                    dg_rank = rank;
                    dg_loc =
                      Some
                        (Loc.make ~rank ~buf:Buffer_id.Output ~index:j ~count:1);
                    dg_site = site;
                    dg_members = members rank;
                  }
                  :: !out)
      done)
    checked;
  (List.rev !out, !slots_checked)

(* ------------------------------------------------------------------ *)
(* Liveness lints over the write-event graph                           *)
(* ------------------------------------------------------------------ *)

let range_string indices =
  (* "3, 5..9" from a sorted index list *)
  let b = Buffer.create 32 in
  let flush lo hi =
    if Buffer.length b > 0 then Buffer.add_string b ", ";
    if lo = hi then Buffer.add_string b (string_of_int lo)
    else Buffer.add_string b (Printf.sprintf "%d..%d" lo hi)
  in
  let rec go lo hi = function
    | [] -> flush lo hi
    | x :: tl when x = hi + 1 -> go lo x tl
    | x :: tl ->
        flush lo hi;
        go x x tl
  in
  (match indices with [] -> () | x :: tl -> go x x tl);
  Buffer.contents b

let build_lints eng ~checked ~members =
  match eng.e_events with
  | None -> []
  | Some ev ->
      let coll = eng.e_ir.Ir.collective in
      let post = Collective.postcondition_fn coll in
      let constrained rank j =
        j < eng.e_out_size && post ~rank ~index:j <> None
      in
      (* backward liveness from the last writers of constrained output *)
      let live = Array.make (max 1 eng.e_n_nodes) false in
      let stack = ref [] in
      let mark n =
        if n >= 0 && not live.(n) then begin
          live.(n) <- true;
          stack := n :: !stack
        end
      in
      List.iter
        (fun rank ->
          let b = eng.e_bufs.(rank).rb_out in
          for j = 0 to min eng.e_out_size (Array.length b.writer) - 1 do
            if constrained rank j then mark b.writer.(j)
          done)
        checked;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | n :: tl ->
            stack := tl;
            List.iter mark ev.ev_srcs.(n)
      done;
      (* end-of-program unread accounting *)
      List.iter
        (fun rank ->
          let rb = eng.e_bufs.(rank) in
          let scan ~landing b =
            Array.iteri
              (fun j w ->
                if w >= 0 && not b.rsince.(j) then
                  if not (landing && constrained rank j) then
                    ev.ev_unread.(w) <- ev.ev_unread.(w) + 1)
              b.writer
          in
          scan ~landing:true rb.rb_out;
          if not eng.e_inplace then scan ~landing:false rb.rb_in;
          scan ~landing:false rb.rb_scr)
        checked;
      let sfx rank = Orbit.symmetric_suffix (members rank - 1) in
      let lints = ref [] in
      let add d = lints := d :: !lints in
      (* uninitialized-read: from the check diagnostics *)
      List.iter
        (fun d ->
          match (d.dg_kind, d.dg_site) with
          | Uninitialized_read l, Some s ->
              add
                (Lint.diag
                   ~at:
                     {
                       Lint.at_gpu = s.p_rank;
                       at_tb = s.p_tb;
                       at_step = s.p_step;
                     }
                   "uninitialized-read"
                   "%s reads rank %d %s[%d], which no prior instruction nor \
                    the precondition initialized — the executor would crash \
                    here%s"
                   (Instr.opcode_name s.p_op) l.Loc.rank
                   (Buffer_id.long_name l.Loc.buf)
                   l.Loc.index (sfx s.p_rank))
          | _ -> ())
        (List.rev eng.e_diags);
      (* dead-store: every written slot overwritten-unread or end-unread
         outside the constrained output (senders excluded: their value
         lives on in the message) *)
      for nid = 0 to eng.e_n_nodes - 1 do
        if
          ev.ev_writes.(nid) > 0
          && ev.ev_kills.(nid) + ev.ev_unread.(nid) = ev.ev_writes.(nid)
        then begin
          let s = site_of_node eng nid in
          if not (Instr.sends s.p_op) then
            add
              (Lint.diag
                 ~at:
                   { Lint.at_gpu = s.p_rank; at_tb = s.p_tb; at_step = s.p_step }
                 "dead-store"
                 "all %d slot(s) written by this %s are overwritten before \
                  any read or never read — the write is wasted%s"
                 ev.ev_writes.(nid)
                 (Instr.opcode_name s.p_op)
                 (sfx s.p_rank))
        end
      done;
      (* unread-scratch: scratch slots none of whose writers are live *)
      List.iter
        (fun rank ->
          let groups : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
          Array.iteri
            (fun j writers ->
              match writers with
              | [] -> ()
              | _ when List.exists (fun w -> live.(w)) writers -> ()
              | writers -> (
                  (* group by the first (chronologically) writer *)
                  let first = List.nth writers (List.length writers - 1) in
                  match Hashtbl.find_opt groups first with
                  | Some l -> l := j :: !l
                  | None -> Hashtbl.add groups first (ref [ j ])))
            ev.scr_writers.(rank);
          Hashtbl.fold (fun nid l acc -> (nid, !l) :: acc) groups []
          |> List.sort compare
          |> List.iter (fun (nid, slots) ->
                 let s = site_of_node eng nid in
                 add
                   (Lint.diag
                      ~at:
                        {
                          Lint.at_gpu = s.p_rank;
                          at_tb = s.p_tb;
                          at_step = s.p_step;
                        }
                      "unread-scratch"
                      "scratch[%s] of rank %d: no value written here ever \
                       contributes to a constrained output position (first \
                       written by this %s)%s"
                      (range_string (List.sort compare slots))
                      rank
                      (Instr.opcode_name s.p_op)
                      (sfx s.p_rank)))
        )
        checked;
      List.sort Lint.compare_diag !lints

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let stride_of (ir : Ir.t) =
  let coll = ir.Ir.collective in
  let base = max 1 (Collective.input_chunks coll) in
  match coll.Collective.kind with
  | Collective.Custom _ ->
      (* custom pre/postconditions may reference arbitrary indices; widen
         the id stride so encoding stays collision-free *)
      let m = ref (base - 1) in
      let scan = function
        | None -> ()
        | Some c -> (
            match Chunk.inputs c with
            | None -> ()
            | Some ids -> List.iter (fun (_, i) -> m := max !m i) ids)
      in
      let post = Collective.postcondition_fn coll in
      for r = 0 to Ir.num_ranks ir - 1 do
        for i = 0 to Collective.input_buffer_size coll - 1 do
          scan (Some (Collective.precondition coll ~rank:r ~index:i))
        done;
        for j = 0 to Collective.output_buffer_size coll - 1 do
          scan (post ~rank:r ~index:j)
        done
      done;
      !m + 1
  | _ -> base

let analyze ?symmetry ?(lints = true) (ir : Ir.t) =
  let slots =
    max 1 (Msccl_topology.Protocol.num_slots ir.Ir.proto)
  in
  let stride = stride_of ir in
  let all_ranks = List.init (Ir.num_ranks ir) (fun r -> r) in
  let idx = Ir.index ir in
  let conn = connection_diags idx in
  let run_full_mode () =
    let eng = make_engine ~events:lints ir ~stride in
    let (slot_diags, slots_checked), lint_diags =
      if run_full eng idx ~slots then
        ( compare_outputs eng ~checked:all_ranks ~members:(fun _ -> 1),
          build_lints eng ~checked:all_ranks ~members:(fun _ -> 1) )
      else (([], 0), [])
    in
    {
      r_mode = Full;
      r_diags = conn @ List.rev eng.e_diags @ slot_diags;
      r_lints = lint_diags;
      r_steps_interpreted = eng.e_executed;
      r_slots_checked = slots_checked;
    }
  in
  let quotient_mode sym plan =
    let eng = make_engine ~events:lints ~only:plan.q_reps ir ~stride in
    let active = run_quotient eng plan idx ~slots in
    let orb = sym.Symmetry.s_orbit in
    let checked = Orbit.reps orb in
    let members r = Orbit.orbit_size orb r in
    let slot_diags, slots_checked =
      compare_outputs ~post:plan.q_post eng ~checked ~members
    in
    let lint_diags = build_lints eng ~checked ~members in
    {
      r_mode =
        Quotient
          {
            orbits = Orbit.num_orbits orb;
            interpreted_ranks = Array.length active;
          };
      r_diags = List.rev eng.e_diags @ slot_diags;
      r_lints = lint_diags;
      r_steps_interpreted = eng.e_executed;
      r_slots_checked = slots_checked;
    }
  in
  (* An unbalanced connection is reported by the full pass, which also
     re-derives every other diagnostic verbatim. *)
  match symmetry with
  | Some sym when conn = [] -> (
      match plan_of ir sym with
      | None -> run_full_mode ()
      | Some plan -> (
          try quotient_mode sym plan with Fallback -> run_full_mode ()))
  | _ -> run_full_mode ()

let check ?symmetry ir =
  let r = analyze ?symmetry ~lints:false ir in
  match r.r_diags with [] -> Ok () | ds -> Error ds

let lint ?symmetry ir = (analyze ?symmetry ~lints:true ir).r_lints

let report_json r =
  let b = Buffer.create 256 in
  (match r.r_mode with
  | Full -> Buffer.add_string b "{\"mode\": \"full\""
  | Quotient { orbits; interpreted_ranks } ->
      Buffer.add_string b
        (Printf.sprintf
           "{\"mode\": \"quotient\", \"orbits\": %d, \"interpreted_ranks\": %d"
           orbits interpreted_ranks));
  Buffer.add_string b
    (Printf.sprintf
       ", \"steps_interpreted\": %d, \"slots_checked\": %d, \"ok\": %b"
       r.r_steps_interpreted r.r_slots_checked (r.r_diags = []));
  Buffer.add_string b ", \"diags\": [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (diag_json d))
    r.r_diags;
  Buffer.add_string b "], \"lints\": ";
  Buffer.add_string b (Lint.to_json r.r_lints);
  Buffer.add_string b "}";
  Buffer.contents b


type hazard =
  | Raw
  | War
  | Waw

let hazard_name = function Raw -> "RAW" | War -> "WAR" | Waw -> "WAW"

type race = {
  r_gpu : int;
  r_tb1 : int;
  r_step1 : int;
  r_tb2 : int;
  r_step2 : int;
  r_hazard : hazard;
  r_buf : Buffer_id.t;
  r_lo : int;
  r_hi : int;
}

(* One local access of a step: its happens-before node, coordinates,
   kind and canonical location. *)
type access = { node : int; tb : int; step : int; write : bool; loc : Loc.t }

(* Calls [f is_write loc] on each local access of [st], reads first,
   with the buffer canonicalized for in-place aliasing. *)
let iter_footprint (ir : Ir.t) (st : Ir.step) f =
  let inplace = ir.Ir.collective.Collective.inplace in
  let each w = function
    | Some (l : Loc.t) ->
        f w
          (if inplace && Buffer_id.equal l.Loc.buf Buffer_id.Output then
             { l with Loc.buf = Buffer_id.Input }
           else l)
    | None -> ()
  in
  if Instr.reads_local st.Ir.op then each false st.Ir.src;
  (* Reduce accumulates into dst, so it reads it too. *)
  (match st.Ir.op with Instr.Reduce -> each false st.Ir.dst | _ -> ());
  if Instr.writes_local st.Ir.op then each true st.Ir.dst

let footprint (ir : Ir.t) (st : Ir.step) =
  let acc = ref [] in
  iter_footprint ir st (fun w l -> acc := (w, l) :: !acc);
  List.rev !acc

let build_hb (ir : Ir.t) =
  Hbgraph.build ~fifo_slots:(Msccl_topology.Protocol.num_slots ir.Ir.proto) ir

(* Records the race between two overlapping accesses of one GPU in
   [seen], keyed by step pair, hazard and buffer. A step pair can overlap
   through several location pairs; the least record per key survives, so
   the result does not depend on enumeration order. *)
let add_race seen gpu a b =
  let a, b = if (a.tb, a.step) <= (b.tb, b.step) then (a, b) else (b, a) in
  let hazard =
    match (a.write, b.write) with
    | true, true -> Waw
    | true, false -> Raw
    | false, true -> War
    | false, false -> assert false
  in
  let key = (a.tb, a.step, b.tb, b.step, hazard, a.loc.Loc.buf) in
  let race =
    {
      r_gpu = gpu;
      r_tb1 = a.tb;
      r_step1 = a.step;
      r_tb2 = b.tb;
      r_step2 = b.step;
      r_hazard = hazard;
      r_buf = a.loc.Loc.buf;
      r_lo = max a.loc.Loc.index b.loc.Loc.index;
      r_hi =
        min
          (a.loc.Loc.index + a.loc.Loc.count)
          (b.loc.Loc.index + b.loc.Loc.count)
        - 1;
    }
  in
  match Hashtbl.find_opt seen key with
  | Some prev -> if compare race prev < 0 then Hashtbl.replace seen key race
  | None -> Hashtbl.replace seen key race

let buf_ix (l : Loc.t) =
  match l.Loc.buf with
  | Buffer_id.Input -> 0
  | Buffer_id.Output -> 1
  | Buffer_id.Scratch -> 2

(* The distinct segment boundaries [index] and [index + count] of the
   accesses to buffer [b], sorted. *)
let boundaries accs b =
  let p = ref [] in
  Array.iter
    (fun a ->
      if buf_ix a.loc = b then
        p := a.loc.Loc.index :: (a.loc.Loc.index + a.loc.Loc.count) :: !p)
    accs;
  Array.of_list (List.sort_uniq Int.compare !p)

(* Race freedom of one GPU's accesses, certified in one pass over
   topological positions. Each buffer's index space is cut into
   elementary segments at every access boundary; per segment the pass
   keeps the last write [L] and the reads since [L]. Accesses are taken in
   position order, a step's reads before its writes: a read [y] needs
   [L ⇝ y]; a write [y] needs [L ⇝ y] and [r ⇝ y] for every read [r]
   since [L], and then becomes [L]. The same node or the same thread
   block counts as ordered (program order).

   Since [⇝] is transitive and position is a topological order, passing
   every check orders every overlapping pair with a write, so the
   pairwise sweep would find no race; a failed check is itself a racing
   pair. Every query is one the pairwise sweep would also make. The
   pairwise sweep treats a nonpositive count differently from an
   interval overlap, so such an access (or a negative index, which no
   [Loc.make] builds) leaves the GPU to the sweep. *)
let certified hb gpu (accs : access array) =
  let m = Array.length accs in
  Array.for_all (fun a -> a.loc.Loc.count >= 1 && a.loc.Loc.index >= 0) accs
  && begin
       (* Segment ids are global, buffer b's starting at seg0.(b). *)
       let pts = Array.init 3 (boundaries accs) in
       let seg0 = Array.make 4 0 in
       for b = 0 to 2 do
         seg0.(b + 1) <- seg0.(b) + max 0 (Array.length pts.(b) - 1)
       done;
       (* The global id of the segment starting at boundary [x]. *)
       let seg b x =
         let a = pts.(b) in
         let lo = ref 0 and hi = ref (Array.length a - 1) in
         while !lo < !hi do
           let mid = (!lo + !hi) / 2 in
           if a.(mid) < x then lo := mid + 1 else hi := mid
         done;
         seg0.(b) + !lo
       in
       (* Accesses per node, as lists threaded through [next]. *)
       let order = Hbgraph.local_order hb gpu in
       let base = Array.fold_left Int.min max_int order in
       let span =
         Array.fold_left (fun s v -> Int.max s (v - base + 1)) 0 order
       in
       let head = Array.make span (-1) and next = Array.make m (-1) in
       for i = m - 1 downto 0 do
         let v = accs.(i).node - base in
         next.(i) <- head.(v);
         head.(v) <- i
       done;
       let last = Array.make seg0.(3) (-1) and reads = Array.make seg0.(3) [] in
       let stamp = Array.make m (-1) in
       (* [x] before [y]: same node, same thread block or a path. Each
          earlier access is asked about once per [y]. *)
       let before x y =
         stamp.(x) = y
         ||
         let ax = accs.(x) and ay = accs.(y) in
         stamp.(x) <- y;
         ax.node = ay.node || ax.tb = ay.tb
         || Hbgraph.reaches hb ax.node ay.node
       in
       let ok = ref true in
       let visit y =
         let l = accs.(y).loc and b = buf_ix accs.(y).loc in
         for s = seg b l.Loc.index to seg b (l.Loc.index + l.Loc.count) - 1 do
           if !ok then begin
             if last.(s) >= 0 && not (before last.(s) y) then ok := false;
             if accs.(y).write then begin
               if not (List.for_all (fun r -> before r y) reads.(s)) then
                 ok := false;
               last.(s) <- y;
               reads.(s) <- []
             end
             else reads.(s) <- y :: reads.(s)
           end
         done
       in
       let k = ref 0 in
       while !ok && !k < Array.length order do
         let v = order.(!k) - base in
         (* A step's reads before its writes. *)
         List.iter
           (fun write ->
             let i = ref head.(v) in
             while !i >= 0 do
               if accs.(!i).write = write then visit !i;
               i := next.(!i)
             done)
           [ false; true ];
         incr k
       done;
       !ok
     end

(* The pairwise sweep: race records for one GPU's accesses, as the
   dedup table's contents. Candidate pairs must touch the same buffer
   with overlapping index intervals, so instead of testing all O(m^2)
   access pairs, accesses are bucketed per buffer and swept in interval
   order: at each access only the still-open intervals (hi > current lo)
   are candidates. Only those pairs reach the happens-before query. The
   emitted set is exactly the overlapping same-buffer pairs the pairwise
   loop found; dedup and the final sort make the output independent of
   sweep order. *)
let sweep hb gpu accs =
  let seen = Hashtbl.create 16 in
  let check a b =
    if
      a.tb <> b.tb
      && (a.write || b.write)
      && not (Hbgraph.ordered hb a.node b.node)
    then add_race seen gpu a b
  in
  for b = 0 to 2 do
    let accs = List.filter (fun a -> buf_ix a.loc = b) (Array.to_list accs) in
    let accs = Array.of_list accs in
    Array.sort (fun a b -> compare a.loc.Loc.index b.loc.Loc.index) accs;
    let active = ref [] in
    Array.iter
      (fun acc ->
        let l = acc.loc in
        active :=
          List.filter
            (fun a -> a.loc.Loc.index + a.loc.Loc.count > l.Loc.index)
            !active;
        List.iter (fun open_acc -> check open_acc acc) !active;
        active := acc :: !active)
      accs
  done;
  seen

(* Race records for one GPU, as the dedup table's contents: empty when
   the graph is acyclic and the GPU's race freedom is certified, else
   the pairwise sweep's. *)
let find_gpu hb (ir : Ir.t) (g : Ir.gpu) =
  let accs = ref [] in
  Array.iter
    (fun (tb : Ir.tb) ->
      Array.iter
        (fun (st : Ir.step) ->
          let node =
            Hbgraph.node hb ~gpu:g.Ir.gpu_id ~tb:tb.Ir.tb_id ~step:st.Ir.s
          in
          iter_footprint ir st (fun write loc ->
              let a = { node; tb = tb.Ir.tb_id; step = st.Ir.s; write; loc } in
              accs := a :: !accs))
        tb.Ir.steps)
    g.Ir.tbs;
  let accs = Array.of_list !accs in
  if Hbgraph.cycle_size hb = 0 && certified hb g.Ir.gpu_id accs then
    Hashtbl.create 1
  else sweep hb g.Ir.gpu_id accs

let find ?hb (ir : Ir.t) =
  let hb = match hb with Some h -> h | None -> build_hb ir in
  let races = ref [] in
  Array.iter
    (fun g ->
      Hashtbl.iter (fun _key r -> races := r :: !races) (find_gpu hb ir g))
    ir.Ir.gpus;
  List.sort compare !races

let pp_race fmt r =
  Format.fprintf fmt
    "gpu %d: %s hazard on %s[%d..%d] between tb %d step %d and tb %d step %d \
     (no happens-before edge orders them)"
    r.r_gpu (hazard_name r.r_hazard)
    (Buffer_id.long_name r.r_buf)
    r.r_lo r.r_hi r.r_tb1 r.r_step1 r.r_tb2 r.r_step2

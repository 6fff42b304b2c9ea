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

(* ---- The step-footprint table ------------------------------------ *)

type footprints = {
  fp_gpu_block : int array;
  fp_block_step : int array;
  fp_step_acc : int array;
  fp_kind : Bytes.t;
  fp_index : int array;
  fp_count : int array;
}

let bufs = [| Buffer_id.Input; Buffer_id.Output; Buffer_id.Scratch |]

let buf_ix = function
  | Buffer_id.Input -> 0
  | Buffer_id.Output -> 1
  | Buffer_id.Scratch -> 2

let[@inline] kind fp a = Char.code (Bytes.unsafe_get fp.fp_kind a)
let[@inline] is_write fp a = kind fp a land 1 = 1
let[@inline] buffer fp a = kind fp a lsr 1

(* Reads, then the write: [src] if the opcode reads it, [dst] if it is a
   reduce (which accumulates into dst), [dst] if the opcode writes. *)
let iter_accesses (st : Ir.step) f =
  if Instr.reads_local st.Ir.op then f false st.Ir.src;
  (match st.Ir.op with Instr.Reduce -> f false st.Ir.dst | _ -> ());
  if Instr.writes_local st.Ir.op then f true st.Ir.dst

let footprints (ir : Ir.t) =
  let ng = Array.length ir.Ir.gpus in
  let nb = Ir.num_thread_blocks ir and ns = Ir.num_steps ir in
  let fp_gpu_block = Array.make (ng + 1) nb in
  let fp_block_step = Array.make (nb + 1) ns in
  let fp_step_acc = Array.make (ns + 1) 0 in
  let n = ref 0 in
  let count _ l = if Option.is_some l then incr n in
  Ir.iter_steps ir (fun _ _ st -> iter_accesses st count);
  let fp_kind = Bytes.create !n in
  let fp_index = Array.make !n 0 and fp_count = Array.make !n 0 in
  (* In-place collectives alias output onto input. *)
  let out_ix = if ir.Ir.collective.Collective.inplace then 0 else 1 in
  let b = ref 0 and k = ref 0 and a = ref 0 in
  let add w = function
    | Some (l : Loc.t) ->
        let buf =
          match l.Loc.buf with Buffer_id.Output -> out_ix | b -> buf_ix b
        in
        Bytes.set fp_kind !a (Char.chr ((buf lsl 1) lor Bool.to_int w));
        fp_index.(!a) <- l.Loc.index;
        fp_count.(!a) <- l.Loc.count;
        incr a
    | None -> ()
  in
  Array.iteri
    (fun gi (g : Ir.gpu) ->
      fp_gpu_block.(gi) <- !b;
      Array.iter
        (fun (tb : Ir.tb) ->
          fp_block_step.(!b) <- !k;
          incr b;
          Array.iter
            (fun (st : Ir.step) ->
              fp_step_acc.(!k) <- !a;
              incr k;
              iter_accesses st add)
            tb.Ir.steps)
        g.Ir.tbs)
    ir.Ir.gpus;
  fp_step_acc.(ns) <- !a;
  { fp_gpu_block; fp_block_step; fp_step_acc; fp_kind; fp_index; fp_count }

let access_loc (ir : Ir.t) (st : Ir.step) q =
  let r = ref None and i = ref 0 in
  iter_accesses st (fun _ -> function
    | Some (l : Loc.t) ->
        if !i = q then r := Some l;
        incr i
    | None -> ());
  let l = Option.get !r in
  if ir.Ir.collective.Collective.inplace && l.Loc.buf = Buffer_id.Output then
    { l with Loc.buf = Buffer_id.Input }
  else l

let first_step fp ~gpu ~tb = fp.fp_block_step.(fp.fp_gpu_block.(gpu) + tb)

let first_access fp ~gpu = fp.fp_step_acc.(first_step fp ~gpu ~tb:0)

let num_accesses fp ~gpu = first_access fp ~gpu:(gpu + 1) - first_access fp ~gpu

let iter_gpu_accesses fp ~gpu (g : Ir.gpu) f =
  Array.iteri
    (fun ti (tb : Ir.tb) ->
      let k0 = first_step fp ~gpu ~tb:ti in
      Array.iteri
        (fun si st ->
          for a = fp.fp_step_acc.(k0 + si) to fp.fp_step_acc.(k0 + si + 1) - 1 do
            f tb st a
          done)
        tb.Ir.steps)
    g.Ir.tbs

let build_hb (ir : Ir.t) =
  Hbgraph.build ~fifo_slots:(Msccl_topology.Protocol.num_slots ir.Ir.proto) ir

(* One GPU's accesses, numbered 0 .. m - 1 from its last table entry
   [a1 - 1] down (access j is table entry a1 - 1 - j), the order the
   list-based detector numbered them in: the certificate then asks its
   reachability queries in the same order, and [Hbgraph.stats] (which
   [msccl analyze --json] prints) counts the same. [node], [tb] and
   [step] hold each one's happens-before node and coordinates. *)
type gpu_accesses = {
  fp : footprints;
  a1 : int;
  m : int;
  node : int array;
  tb : int array;
  step : int array;
}

let[@inline] write acc j = is_write acc.fp (acc.a1 - 1 - j)
let[@inline] buf acc j = buffer acc.fp (acc.a1 - 1 - j)
let[@inline] index acc j = acc.fp.fp_index.(acc.a1 - 1 - j)
let[@inline] count acc j = acc.fp.fp_count.(acc.a1 - 1 - j)

(* Records the race between two overlapping accesses of one GPU in
   [seen], keyed by step pair, hazard and buffer. A step pair can overlap
   through several location pairs; the least record per key survives, so
   the result does not depend on enumeration order. *)
let add_race seen gpu acc x y =
  let x, y =
    if
      acc.tb.(x) < acc.tb.(y)
      || (acc.tb.(x) = acc.tb.(y) && acc.step.(x) <= acc.step.(y))
    then (x, y)
    else (y, x)
  in
  let hazard =
    match (write acc x, write acc y) with
    | true, true -> Waw
    | true, false -> Raw
    | false, true -> War
    | false, false -> assert false
  in
  let r_buf = bufs.(buf acc x) in
  let key =
    (acc.tb.(x), acc.step.(x), acc.tb.(y), acc.step.(y), hazard, r_buf)
  in
  let race =
    {
      r_gpu = gpu;
      r_tb1 = acc.tb.(x);
      r_step1 = acc.step.(x);
      r_tb2 = acc.tb.(y);
      r_step2 = acc.step.(y);
      r_hazard = hazard;
      r_buf;
      r_lo = max (index acc x) (index acc y);
      r_hi = min (index acc x + count acc x) (index acc y + count acc y) - 1;
    }
  in
  match Hashtbl.find_opt seen key with
  | Some prev -> if compare race prev < 0 then Hashtbl.replace seen key race
  | None -> Hashtbl.replace seen key race

(* Sorts a.(lo) .. a.(hi - 1) without duplicates, in place; returns the
   new end. Values spanning at most [Bytes.length mark] are marked there
   and read back in order, others merge sorted. (Ir.sort_by, which sorts
   a permutation by keys into fresh arrays, made Races.find about 40%
   slower at allpairs@96.) *)
let sort_uniq mark a lo hi =
  let mn = ref max_int and mx = ref min_int in
  for i = lo to hi - 1 do
    mn := Int.min !mn a.(i);
    mx := Int.max !mx a.(i)
  done;
  let span = !mx - !mn + 1 and d = ref lo in
  if hi <= lo then ()
  else if span > 0 && span <= Bytes.length mark then begin
    Bytes.fill mark 0 span '\000';
    for i = lo to hi - 1 do
      Bytes.unsafe_set mark (a.(i) - !mn) '\001'
    done;
    for x = 0 to span - 1 do
      if Bytes.unsafe_get mark x <> '\000' then begin
        a.(!d) <- x + !mn;
        incr d
      end
    done
  end
  else begin
    let run = Array.sub a lo (hi - lo) in
    Array.stable_sort Int.compare run;
    Array.iteri
      (fun i x ->
        if i = 0 || x <> run.(i - 1) then begin
          a.(!d) <- x;
          incr d
        end)
      run
  end;
  !d

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
let certified hb gpu acc =
  let m = acc.m and pts = Array.make (2 * acc.m) 0 in
  let rec sound j =
    j = m || (count acc j >= 1 && index acc j >= 0 && sound (j + 1))
  in
  sound 0
  && begin
       (* The distinct segment boundaries [index] and [index + count] of
          buffer b are pts.(lo.(b)) .. pts.(lo.(b + 1) - 1), sorted;
          segment ids are global, buffer b's starting at seg0.(b). *)
       let lo = Array.make 4 0 and seg0 = Array.make 4 0 in
       let mark = Bytes.create ((4 * m) + 256) in
       for b = 0 to 2 do
         let k = ref lo.(b) in
         for j = 0 to m - 1 do
           if buf acc j = b then begin
             pts.(!k) <- index acc j;
             pts.(!k + 1) <- index acc j + count acc j;
             k := !k + 2
           end
         done;
         lo.(b + 1) <- sort_uniq mark pts lo.(b) !k;
         seg0.(b + 1) <- seg0.(b) + Int.max 0 (lo.(b + 1) - lo.(b) - 1)
       done;
       (* The global id of the segment starting at boundary [x]. *)
       let seg b x =
         let l = ref lo.(b) and h = ref (lo.(b + 1) - 1) in
         while !l < !h do
           let mid = (!l + !h) / 2 in
           if pts.(mid) < x then l := mid + 1 else h := mid
         done;
         seg0.(b) + !l - lo.(b)
       in
       (* Accesses per node, as lists threaded through [next]. *)
       let order = Hbgraph.local_order hb gpu in
       let base = Array.fold_left Int.min max_int order in
       let span =
         Array.fold_left (fun s v -> Int.max s (v - base + 1)) 0 order
       in
       let head = Array.make span (-1) and next = Array.make m (-1) in
       for i = m - 1 downto 0 do
         let v = acc.node.(i) - base in
         next.(i) <- head.(v);
         head.(v) <- i
       done;
       (* Per segment its last write, or -1, and the reads since, newest
          first, as a list threaded through the pool: entry e is read
          [pool.(2e)], followed by entry [pool.(2e + 1)]. *)
       let last = Array.make seg0.(3) (-1) in
       let reads = Array.make seg0.(3) (-1) in
       let pool = ref (Array.make (2 * m) 0) and used = ref 0 in
       let stamp = Array.make m (-1) in
       (* [x] before [y]: same node, same thread block or a path. Each
          earlier access is asked about once per [y]. *)
       let before x y =
         stamp.(x) = y
         ||
         (stamp.(x) <- y;
          acc.node.(x) = acc.node.(y)
          || acc.tb.(x) = acc.tb.(y)
          || Hbgraph.reaches hb acc.node.(x) acc.node.(y))
       in
       let rec reads_before e y =
         e < 0
         || (before !pool.(2 * e) y && reads_before !pool.((2 * e) + 1) y)
       in
       let ok = ref true in
       let visit y =
         let b = buf acc y and x = index acc y in
         for s = seg b x to seg b (x + count acc y) - 1 do
           if !ok then begin
             if last.(s) >= 0 && not (before last.(s) y) then ok := false;
             if write acc y then begin
               if not (reads_before reads.(s) y) then ok := false;
               last.(s) <- y;
               reads.(s) <- -1
             end
             else begin
               if 2 * (!used + 1) > Array.length !pool then begin
                 let bigger = Array.make (4 * (!used + 1)) 0 in
                 Array.blit !pool 0 bigger 0 (2 * !used);
                 pool := bigger
               end;
               !pool.(2 * !used) <- y;
               !pool.((2 * !used) + 1) <- reads.(s);
               reads.(s) <- !used;
               incr used
             end
           end
         done
       in
       let k = ref 0 in
       while !ok && !k < Array.length order do
         let v = order.(!k) - base in
         (* A step's reads before its writes. *)
         for pass = 0 to 1 do
           let i = ref head.(v) in
           while !i >= 0 do
             if write acc !i = (pass = 1) then visit !i;
             i := next.(!i)
           done
         done;
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
let sweep hb gpu acc =
  let seen = Hashtbl.create 16 in
  let check x y =
    if
      acc.tb.(x) <> acc.tb.(y)
      && (write acc x || write acc y)
      && not (Hbgraph.ordered hb acc.node.(x) acc.node.(y))
    then add_race seen gpu acc x y
  in
  for b = 0 to 2 do
    let ids = List.filter (fun j -> buf acc j = b) (List.init acc.m Fun.id) in
    let ids = Array.of_list ids in
    Array.sort (fun x y -> Int.compare (index acc x) (index acc y)) ids;
    let active = ref [] in
    Array.iter
      (fun y ->
        active :=
          List.filter (fun x -> index acc x + count acc x > index acc y) !active;
        List.iter (fun x -> check x y) !active;
        active := y :: !active)
      ids
  done;
  seen

let find ?hb ?fp (ir : Ir.t) =
  let hb = match hb with Some h -> h | None -> build_hb ir in
  let fp = match fp with Some f -> f | None -> footprints ir in
  let races = ref [] in
  Array.iteri
    (fun gi (g : Ir.gpu) ->
      let a1 = first_access fp ~gpu:(gi + 1) and m = num_accesses fp ~gpu:gi in
      let ints () = Array.make m 0 in
      let acc = { fp; a1; m; node = ints (); tb = ints (); step = ints () } in
      iter_gpu_accesses fp ~gpu:gi g (fun b st e ->
          let j = a1 - 1 - e in
          acc.node.(j) <-
            Hbgraph.node hb ~gpu:g.Ir.gpu_id ~tb:b.Ir.tb_id ~step:st.Ir.s;
          acc.tb.(j) <- b.Ir.tb_id;
          acc.step.(j) <- st.Ir.s);
      if not (Hbgraph.cycle_size hb = 0 && certified hb g.Ir.gpu_id acc) then
        Hashtbl.iter
          (fun _key r -> races := r :: !races)
          (sweep hb g.Ir.gpu_id acc))
    ir.Ir.gpus;
  List.sort compare !races

let pp_race fmt r =
  Format.fprintf fmt
    "gpu %d: %s hazard on %s[%d..%d] between tb %d step %d and tb %d step %d \
     (no happens-before edge orders them)"
    r.r_gpu (hazard_name r.r_hazard)
    (Buffer_id.long_name r.r_buf)
    r.r_lo r.r_hi r.r_tb1 r.r_step1 r.r_tb2 r.r_step2

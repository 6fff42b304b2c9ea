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

let footprint (ir : Ir.t) (st : Ir.step) =
  let canon (l : Loc.t) =
    if
      ir.Ir.collective.Collective.inplace
      && Buffer_id.equal l.Loc.buf Buffer_id.Output
    then { l with Loc.buf = Buffer_id.Input }
    else l
  in
  let reads =
    (if Instr.reads_local st.Ir.op then Option.to_list st.Ir.src else [])
    @
    (* Reduce accumulates into dst, so it reads it too. *)
    match st.Ir.op with
    | Instr.Reduce -> Option.to_list st.Ir.dst
    | _ -> []
  in
  let writes =
    if Instr.writes_local st.Ir.op then Option.to_list st.Ir.dst else []
  in
  List.map (fun l -> (false, canon l)) reads
  @ List.map (fun l -> (true, canon l)) writes

let build_hb (ir : Ir.t) =
  Hbgraph.build ~fifo_slots:(Msccl_topology.Protocol.num_slots ir.Ir.proto) ir

(* Records the race between two overlapping accesses [(tb, step,
   is_write, loc)] of one GPU in [seen], keyed by step pair, hazard and
   buffer. A step pair can overlap through several location pairs; the
   least record per key survives, so the result does not depend on
   enumeration order. *)
let add_race seen gpu a b =
  let (tb1, s1, w1, (l1 : Loc.t)), (tb2, s2, w2, (l2 : Loc.t)) =
    let tb_a, s_a, _, _ = a and tb_b, s_b, _, _ = b in
    if (tb_a, s_a) <= (tb_b, s_b) then (a, b) else (b, a)
  in
  let hazard =
    match (w1, w2) with
    | true, true -> Waw
    | true, false -> Raw
    | false, true -> War
    | false, false -> assert false
  in
  let key = (tb1, s1, tb2, s2, hazard, l1.Loc.buf) in
  let race =
    {
      r_gpu = gpu;
      r_tb1 = tb1;
      r_step1 = s1;
      r_tb2 = tb2;
      r_step2 = s2;
      r_hazard = hazard;
      r_buf = l1.Loc.buf;
      r_lo = max l1.Loc.index l2.Loc.index;
      r_hi = min (l1.Loc.index + l1.Loc.count) (l2.Loc.index + l2.Loc.count) - 1;
    }
  in
  match Hashtbl.find_opt seen key with
  | Some prev -> if compare race prev < 0 then Hashtbl.replace seen key race
  | None -> Hashtbl.replace seen key race

(* Race records for one GPU, as the dedup table's contents. *)
let find_gpu hb (ir : Ir.t) (g : Ir.gpu) =
  let accs = ref [] in
  Array.iter
    (fun (tb : Ir.tb) ->
      Array.iter
        (fun (st : Ir.step) ->
          let id =
            Hbgraph.node hb ~gpu:g.Ir.gpu_id ~tb:tb.Ir.tb_id ~step:st.Ir.s
          in
          List.iter
            (fun (w, l) -> accs := (id, (tb.Ir.tb_id, st.Ir.s, w, l)) :: !accs)
            (footprint ir st))
        tb.Ir.steps)
    g.Ir.tbs;
  (* Candidate pairs must touch the same buffer with overlapping index
     intervals, so instead of testing all O(m^2) access pairs, accesses
     are bucketed per buffer and swept in interval order: at each
     access only the still-open intervals (hi > current lo) are
     candidates. Only those pairs reach the happens-before query. The
     emitted set is exactly the overlapping same-buffer pairs the
     pairwise loop found; dedup and the final sort make the output
     independent of sweep order. *)
  let seen = Hashtbl.create 16 in
  let check (n1, ((tb1, _, w1, _) as a)) (n2, ((tb2, _, w2, _) as b)) =
    if tb1 <> tb2 && (w1 || w2) && not (Hbgraph.ordered hb n1 n2) then
      add_race seen g.Ir.gpu_id a b
  in
  let loc (_, (_, _, _, l)) = l in
  let by_buf = Hashtbl.create 8 in
  List.iter
    (fun acc ->
      let buf = (loc acc).Loc.buf in
      let prev =
        match Hashtbl.find_opt by_buf buf with Some accs -> accs | None -> []
      in
      Hashtbl.replace by_buf buf (acc :: prev))
    !accs;
  Hashtbl.iter
    (fun _buf accs ->
      let accs = Array.of_list accs in
      Array.sort
        (fun a b -> compare (loc a).Loc.index (loc b).Loc.index)
        accs;
      let active = ref [] in
      Array.iter
        (fun acc ->
          let l = loc acc in
          active :=
            List.filter
              (fun a -> (loc a).Loc.index + (loc a).Loc.count > l.Loc.index)
              !active;
          List.iter (fun open_acc -> check open_acc acc) !active;
          active := acc :: !active)
        accs)
    by_buf;
  seen

(* Expansion of a representative's racy step pair to an orbit member:
   the member's corresponding steps are racy iff the representative's are
   (the certified automorphism preserves happens-before both ways and its
   per-buffer chunk bijection preserves overlap), so no reachability
   query is needed — only the member's own footprints, whose overlapping
   location pairs rebuild exactly the records the direct sweep would
   have kept. *)
let expand_pair (ir : Ir.t) (gm : Ir.gpu) (tb1, s1) (tb2, s2) seen =
  let accesses tb s =
    List.map
      (fun (w, l) -> (tb, s, w, l))
      (footprint ir gm.Ir.tbs.(tb).Ir.steps.(s))
  in
  let f2 = accesses tb2 s2 in
  List.iter
    (fun ((_, _, w1, (l1 : Loc.t)) as a) ->
      List.iter
        (fun ((_, _, w2, (l2 : Loc.t)) as b) ->
          if
            (w1 || w2)
            && Buffer_id.equal l1.Loc.buf l2.Loc.buf
            && l1.Loc.index < l2.Loc.index + l2.Loc.count
            && l2.Loc.index < l1.Loc.index + l1.Loc.count
          then add_race seen gm.Ir.gpu_id a b)
        f2)
    (accesses tb1 s1)

let find ?hb ?orbit (ir : Ir.t) =
  let hb = match hb with Some h -> h | None -> build_hb ir in
  let races = ref [] in
  let keep seen = Hashtbl.iter (fun _key r -> races := r :: !races) seen in
  (match orbit with
  | None -> Array.iter (fun g -> keep (find_gpu hb ir g)) ir.Ir.gpus
  | Some (o : Orbit.t) ->
      (* Non-representative members per representative, in one pass. *)
      let members = Array.make (Array.length o.Orbit.rep) [] in
      Array.iteri
        (fun m rep -> if m <> rep then members.(rep) <- m :: members.(rep))
        o.Orbit.rep;
      Array.iteri
        (fun rep ms ->
          if o.Orbit.rep.(rep) = rep then begin
            let seen = find_gpu hb ir ir.Ir.gpus.(rep) in
            keep seen;
            (* Distinct racy step pairs at the representative (a pair can
               carry several hazard keys; expand it once). *)
            let pairs = Hashtbl.create 16 in
            Hashtbl.iter
              (fun _ r ->
                Hashtbl.replace pairs (r.r_tb1, r.r_step1, r.r_tb2, r.r_step2) ())
              seen;
            List.iter
              (fun m ->
                let tb_of = o.Orbit.tb_of_rep.(m) in
                let mseen = Hashtbl.create 16 in
                Hashtbl.iter
                  (fun (tb1, s1, tb2, s2) () ->
                    expand_pair ir ir.Ir.gpus.(m)
                      (tb_of.(tb1), s1) (tb_of.(tb2), s2) mseen)
                  pairs;
                keep mseen)
              ms
          end)
        members);
  List.sort compare !races

let pp_race fmt r =
  Format.fprintf fmt
    "gpu %d: %s hazard on %s[%d..%d] between tb %d step %d and tb %d step %d \
     (no happens-before edge orders them)"
    r.r_gpu (hazard_name r.r_hazard)
    (Buffer_id.long_name r.r_buf)
    r.r_lo r.r_hi r.r_tb1 r.r_step1 r.r_tb2 r.r_step2

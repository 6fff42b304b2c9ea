(* The static passes' references: the list footprint of a step and the
   string fingerprint of a rank, with the symmetry inference and
   certification built on them. [Races.footprints] and [Symmetry.infer]
   must agree with these on every IR (test_races, test_symmetry). *)

open Msccl_core
open Msccl_analysis.Symmetry

exception Reject of violation

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

(* The step's local accesses as [(is_write, loc)], the buffer
   canonicalized for in-place aliasing. *)
let footprint (ir : Ir.t) (st : Ir.step) =
  let acc = ref [] in
  iter_footprint ir st (fun w l -> acc := (w, l) :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* String fingerprints                                                 *)
(* ------------------------------------------------------------------ *)

let rel_peer ~rank ~num_ranks p =
  if p < 0 then p (* absent: verbatim, distinct from every offset *)
  else if p >= num_ranks then num_ranks + p (* malformed: verbatim *)
  else (p - rank + num_ranks) mod num_ranks

(* [depends] entries (block, step) in lexicographic order. *)
let compare_dep (t1, s1) (t2, s2) =
  match Int.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c

let canon_order (g : Ir.gpu) ~num_ranks =
  let nt = Array.length g.Ir.tbs in
  let rel = rel_peer ~rank:g.Ir.gpu_id ~num_ranks in
  let idx = Array.init nt (fun i -> i) in
  (* (channel, relative send, relative recv, block index) *)
  let compare_tb a b =
    let ta = g.Ir.tbs.(a) and tb = g.Ir.tbs.(b) in
    match Int.compare ta.Ir.chan tb.Ir.chan with
    | 0 -> (
        match Int.compare (rel ta.Ir.send) (rel tb.Ir.send) with
        | 0 -> (
            match Int.compare (rel ta.Ir.recv) (rel tb.Ir.recv) with
            | 0 -> Int.compare a b
            | c -> c)
        | c -> c)
    | c -> c
  in
  Array.sort compare_tb idx;
  idx

let fingerprint (ir : Ir.t) (g : Ir.gpu) =
  let num_ranks = Array.length ir.Ir.gpus in
  let rel = rel_peer ~rank:g.Ir.gpu_id ~num_ranks in
  let nt = Array.length g.Ir.tbs in
  let order = canon_order g ~num_ranks in
  let pos = Array.make nt 0 in
  Array.iteri (fun p i -> pos.(i) <- p) order;
  let b = Buffer.create 256 in
  (* [tag] followed by [n] in decimal. *)
  let add_int tag n =
    Buffer.add_string b tag;
    Buffer.add_string b (string_of_int n)
  in
  add_int "i" g.Ir.input_chunks;
  add_int " o" g.Ir.output_chunks;
  add_int " s" g.Ir.scratch_chunks;
  add_int " t" nt;
  Buffer.add_char b ';';
  let add_loc = function
    | None -> Buffer.add_string b "-"
    | Some (l : Loc.t) ->
        Buffer.add_string b (Buffer_id.name l.Loc.buf);
        add_int "+" l.Loc.count
  in
  Array.iter
    (fun i ->
      let tb = g.Ir.tbs.(i) in
      add_int "T" tb.Ir.chan;
      add_int "," (rel tb.Ir.send);
      add_int "," (rel tb.Ir.recv);
      Buffer.add_char b ':';
      Array.iter
        (fun (st : Ir.step) ->
          Buffer.add_string b (Instr.opcode_name st.Ir.op);
          add_int " " st.Ir.count;
          add_loc st.Ir.src;
          add_loc st.Ir.dst;
          if st.Ir.has_dep then Buffer.add_char b '!';
          let deps =
            List.sort compare_dep
              (List.map
                 (fun (dt, ds) ->
                   ((if dt >= 0 && dt < nt then pos.(dt) else -1 - dt), ds))
                 st.Ir.depends)
          in
          List.iter
            (fun (dt, ds) ->
              add_int "d" dt;
              add_int "," ds)
            deps;
          Buffer.add_char b ';')
        tb.Ir.steps)
    order;
  Buffer.contents b

let divisors n =
  let rec go d acc = if d > n then List.rev acc
    else go (d + 1) (if n mod d = 0 then d :: acc else acc)
  in
  go 1 []

let fingerprint_period fps =
  let p = Array.length fps in
  let rotation_ok k =
    let ok = ref true in
    for i = 0 to p - 1 do
      if not (String.equal fps.(i) fps.((i + k) mod p)) then ok := false
    done;
    !ok
  in
  let rec first = function
    | [] -> p
    | d :: rest -> if rotation_ok d then d else first rest
  in
  if p = 0 then 0 else first (divisors p)

(* ------------------------------------------------------------------ *)
(* Certification                                                       *)
(* ------------------------------------------------------------------ *)

let buf_tag = function
  | Buffer_id.Input -> 0
  | Buffer_id.Output -> 1
  | Buffer_id.Scratch -> 2

let verify_candidate (ir : Ir.t) ~name perm =
  let p = Array.length ir.Ir.gpus in
  let viol ~rank ~image ?(tb = -1) ?(step = -1) ?loc fmt =
    Format.kasprintf
      (fun s ->
        raise
          (Reject
             {
               v_candidate = name;
               v_rank = rank;
               v_image = image;
               v_tb = tb;
               v_step = step;
               v_loc = loc;
               v_reason = s;
             }))
      fmt
  in
  (* Merged-over-ranks chunk bijection per buffer tag. Certification only
     needs the per-rank tables below; quotient passes additionally want to
     know when the bijection is the SAME map at every rank (it is for the
     shift symmetries real collectives exhibit), because then applying the
     automorphism m times to a chunk id is a cached array lookup instead
     of an m-fold composition of per-rank maps. [-1] = unconstrained;
     [g_psi] keeps the merged map unless two ranks disagree. *)
  let max_size tag =
    Array.fold_left
      (fun acc (g : Ir.gpu) ->
        max acc
          (match tag with
          | 0 -> g.Ir.input_chunks
          | 1 -> g.Ir.output_chunks
          | _ -> g.Ir.scratch_chunks))
      0 ir.Ir.gpus
  in
  let uni = Array.init 3 (fun tag -> Array.make (max_size tag) (-1)) in
  let uni_ok = Array.make 3 true in
  let uni_bind tag a b =
    if uni_ok.(tag) && a < Array.length uni.(tag) then
      if uni.(tag).(a) = -1 then uni.(tag).(a) <- b
      else if uni.(tag).(a) <> b then uni_ok.(tag) <- false
  in
  try
    if Array.length perm <> p then
      viol ~rank:(-1) ~image:(-1) "permutation covers %d of %d ranks"
        (Array.length perm) p;
    let seen = Array.make p false in
    Array.iteri
      (fun r h ->
        if h < 0 || h >= p || seen.(h) then
          viol ~rank:r ~image:h "candidate is not a rank bijection";
        seen.(h) <- true)
      perm;
    let map_peer q = if q >= 0 && q < p then perm.(q) else q in
    for r = 0 to p - 1 do
      let h = perm.(r) in
      let gr = ir.Ir.gpus.(r) and gh = ir.Ir.gpus.(h) in
      if
        gr.Ir.input_chunks <> gh.Ir.input_chunks
        || gr.Ir.output_chunks <> gh.Ir.output_chunks
        || gr.Ir.scratch_chunks <> gh.Ir.scratch_chunks
      then viol ~rank:r ~image:h "ranks %d and %d have different buffer sizes" r h;
      let nt = Array.length gr.Ir.tbs in
      if Array.length gh.Ir.tbs <> nt then
        viol ~rank:r ~image:h "ranks %d and %d have different block counts" r h;
      (* Match thread blocks: block (chan, s, v) of rank r must pair with
         the block (chan, perm s, perm v) of rank h. Duplicate connection
         triples (only possible for connectionless blocks) pair in block
         order. *)
      let pool : (int * int * int, int list ref) Hashtbl.t =
        Hashtbl.create (2 * nt)
      in
      for j = nt - 1 downto 0 do
        let tb = gh.Ir.tbs.(j) in
        let key = (tb.Ir.chan, tb.Ir.send, tb.Ir.recv) in
        match Hashtbl.find_opt pool key with
        | Some l -> l := j :: !l
        | None -> Hashtbl.add pool key (ref [ j ])
      done;
      let sigma = Array.make nt (-1) in
      Array.iteri
        (fun i (tb : Ir.tb) ->
          let key = (tb.Ir.chan, map_peer tb.Ir.send, map_peer tb.Ir.recv) in
          match Hashtbl.find_opt pool key with
          | Some ({ contents = j :: rest } as l) ->
              l := rest;
              sigma.(i) <- j
          | Some { contents = [] } | None ->
              viol ~rank:r ~image:h ~tb:i
                "rank %d has no unmatched block with channel %d, send %d, \
                 recv %d (image of rank %d block %d)"
                h tb.Ir.chan (map_peer tb.Ir.send) (map_peer tb.Ir.recv) r i)
        gr.Ir.tbs;
      (* Step-by-step structural equality under sigma, discovering the
         per-buffer chunk bijection as we go. *)
      let fwd = Array.init 3 (fun _ -> Hashtbl.create 64) in
      let bwd = Array.init 3 (fun _ -> Hashtbl.create 64) in
      let bind ~tbi ~si ~loc tbl a b =
        match Hashtbl.find_opt tbl a with
        | Some b' when b' <> b ->
            viol ~rank:r ~image:h ~tb:tbi ~step:si ~loc
              "chunk %d of %s maps to both %d and %d at rank %d"
              a (Buffer_id.long_name loc.Loc.buf) b' b h
        | Some _ -> ()
        | None -> Hashtbl.add tbl a b
      in
      Array.iteri
        (fun i (tb : Ir.tb) ->
          let u = gh.Ir.tbs.(sigma.(i)) in
          if Array.length u.Ir.steps <> Array.length tb.Ir.steps then
            viol ~rank:r ~image:h ~tb:i
              "rank %d block %d and rank %d block %d disagree on step count" r
              i h sigma.(i);
          Array.iteri
            (fun si (st : Ir.step) ->
              let su = u.Ir.steps.(si) in
              if st.Ir.op <> su.Ir.op then
                viol ~rank:r ~image:h ~tb:i ~step:si
                  "opcode %s vs %s at the image"
                  (Instr.opcode_name st.Ir.op)
                  (Instr.opcode_name su.Ir.op);
              if st.Ir.count <> su.Ir.count then
                viol ~rank:r ~image:h ~tb:i ~step:si "count %d vs %d"
                  st.Ir.count su.Ir.count;
              if st.Ir.has_dep <> su.Ir.has_dep then
                viol ~rank:r ~image:h ~tb:i ~step:si "has_dep differs";
              let remap (dt, ds) =
                ((if dt >= 0 && dt < nt then sigma.(dt) else dt), ds)
              in
              if
                not
                  (List.equal
                     (fun x y -> compare_dep x y = 0)
                     (List.sort compare_dep (List.map remap st.Ir.depends))
                     (List.sort compare_dep su.Ir.depends))
              then
                viol ~rank:r ~image:h ~tb:i ~step:si
                  "cross-block depends do not map";
              let check_raw (a : Loc.t option) (b : Loc.t option) =
                match (a, b) with
                | None, None -> ()
                | Some l, Some l' ->
                    if
                      (not (Buffer_id.equal l.Loc.buf l'.Loc.buf))
                      || l.Loc.count <> l'.Loc.count
                      || l'.Loc.rank <> map_peer l.Loc.rank
                    then
                      viol ~rank:r ~image:h ~tb:i ~step:si ~loc:l
                        "operand buffer/count/rank differs at the image"
                | Some l, None | None, Some l ->
                    viol ~rank:r ~image:h ~tb:i ~step:si ~loc:l
                      "operand present on one side only"
              in
              check_raw st.Ir.src su.Ir.src;
              check_raw st.Ir.dst su.Ir.dst;
              let f1 = footprint ir st and f2 = footprint ir su in
              List.iter2
                (fun (w1, (l1 : Loc.t)) (w2, (l2 : Loc.t)) ->
                  if w1 <> w2 || not (Buffer_id.equal l1.Loc.buf l2.Loc.buf)
                  then
                    viol ~rank:r ~image:h ~tb:i ~step:si ~loc:l1
                      "footprint structure differs at the image";
                  let tag = buf_tag l1.Loc.buf in
                  for j = 0 to min l1.Loc.count l2.Loc.count - 1 do
                    bind ~tbi:i ~si ~loc:l1 fwd.(tag) (l1.Loc.index + j)
                      (l2.Loc.index + j);
                    bind ~tbi:i ~si ~loc:l2 bwd.(tag) (l2.Loc.index + j)
                      (l1.Loc.index + j);
                    uni_bind tag (l1.Loc.index + j) (l2.Loc.index + j)
                  done)
                f1 f2)
            tb.Ir.steps)
        gr.Ir.tbs
    done;
    Ok
      {
        g_name = name;
        g_perm = Array.copy perm;
        g_psi =
          Array.init 3 (fun tag ->
              if uni_ok.(tag) then Some uni.(tag) else None);
      }
  with
  | Reject v -> Error v
  | Invalid_argument _ ->
      (* List.iter2 on footprints of equal ops cannot differ in length,
         but malformed IR is never worth a crash: reject the candidate. *)
      Error
        {
          v_candidate = name;
          v_rank = -1;
          v_image = -1;
          v_tb = -1;
          v_step = -1;
          v_loc = None;
          v_reason = "footprint arity mismatch";
        }

(* ------------------------------------------------------------------ *)
(* Candidates and inference                                            *)
(* ------------------------------------------------------------------ *)

let shift_perm p k = Array.init p (fun r -> (r + k) mod p)

let intra_perm p g =
  Array.init p (fun r -> (r / g * g) + (((r mod g) + 1) mod g))

let orbit_of_generators (ir : Ir.t) gens =
  let p = Array.length ir.Ir.gpus in
  let parent = Array.init p (fun r -> r) in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
  in
  List.iter (fun gen -> Array.iteri (fun r h -> union r h) gen.g_perm) gens;
  { Orbit.rep = Array.init p find }

let infer (ir : Ir.t) =
  let p = Array.length ir.Ir.gpus in
  if p <= 1 then
    {
      s_num_ranks = p;
      s_period = p;
      s_generators = [];
      s_rejected = [];
      s_orbit = Orbit.identity ir;
    }
  else begin
    let fps = Array.map (fingerprint ir) ir.Ir.gpus in
    let period = fingerprint_period fps in
    let candidates =
      (* One shift generator suffices: every fingerprint-preserving shift
         is a multiple of the period. When the period is the full rank
         count the shift-by-1 attempt documents why (first violation). *)
      (if period < p then
         [ (Printf.sprintf "shift+%d" period, shift_perm p period) ]
       else [ ("shift+1", shift_perm p 1) ])
      @ List.filter_map
          (fun g ->
            if g >= 2 && g < p then
              Some (Printf.sprintf "intra+1/%d" g, intra_perm p g)
            else None)
          (divisors p)
    in
    let gens, rejected =
      List.fold_left
        (fun (gens, rej) (name, perm) ->
          match verify_candidate ir ~name perm with
          | Ok g -> (g :: gens, rej)
          | Error v -> (gens, v :: rej))
        ([], []) candidates
    in
    let gens = List.rev gens and rejected = List.rev rejected in
    {
      s_num_ranks = p;
      s_period = period;
      s_generators = gens;
      s_rejected = rejected;
      s_orbit = orbit_of_generators ir gens;
    }
  end


(* ------------------------------------------------------------------ *)
(* The footprint table against the list footprint                     *)
(* ------------------------------------------------------------------ *)

(* [Races.footprints ir] numbers every block and step in IR order and
   holds each step's [footprint], in order; [Races.access_loc] gives its
   locations. *)
let table_matches (ir : Ir.t) =
  let fp = Races.footprints ir in
  let k = ref 0 and ok = ref true in
  Array.iteri
    (fun gi (g : Ir.gpu) ->
      Array.iteri
        (fun ti (tb : Ir.tb) ->
          if Races.first_step fp ~gpu:gi ~tb:ti <> !k then ok := false;
          Array.iter
            (fun st ->
              let a0 = fp.Races.fp_step_acc.(!k) in
              let got =
                List.init
                  (fp.Races.fp_step_acc.(!k + 1) - a0)
                  (fun q ->
                    ( Races.is_write fp (a0 + q),
                      Races.bufs.(Races.buffer fp (a0 + q)),
                      fp.Races.fp_index.(a0 + q),
                      fp.Races.fp_count.(a0 + q) ))
              in
              let want =
                List.map
                  (fun (w, (l : Loc.t)) -> (w, l.Loc.buf, l.Loc.index, l.Loc.count))
                  (footprint ir st)
              in
              if got <> want then ok := false;
              List.iteri
                (fun q (_, l) -> if Races.access_loc ir st q <> l then ok := false)
                (footprint ir st);
              incr k)
            tb.Ir.steps)
        g.Ir.tbs)
    ir.Ir.gpus;
  !ok
  && Races.first_step fp ~gpu:(Array.length ir.Ir.gpus) ~tb:0 = !k
  && Array.length fp.Races.fp_step_acc = !k + 1

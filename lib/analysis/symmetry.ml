open Msccl_core

type violation = {
  v_candidate : string;
  v_rank : int;
  v_image : int;
  v_tb : int;
  v_step : int;
  v_loc : Loc.t option;
  v_reason : string;
}

type generator = {
  g_name : string;
  g_perm : int array;
  g_psi : int array option array;
}

type t = {
  s_num_ranks : int;
  s_period : int;
  s_generators : generator list;
  s_rejected : violation list;
  s_orbit : Orbit.t;
}

exception Reject of violation

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

(* Canonical per-rank fingerprint: thread blocks ordered by (channel,
   relative send offset, relative recv offset); steps by opcode, count,
   buffers and counts (no chunk indices — those may legitimately differ
   per rank and are handled by the certification's chunk bijection),
   has_dep and depends retargeted to canonical block positions. Equal
   fingerprints are a necessary condition for two ranks to be related by
   a rotation, so the minimal rotation period of the fingerprint array
   prunes the shift candidates.

   A fingerprint is a sequence of ints that states every count before
   the items it counts (blocks, steps, depends) and tags an absent
   operand -1, a present one by its buffer: it can be read back
   unambiguously, so two are equal exactly when their fields are. *)

let rel_peer ~rank ~num_ranks p =
  if p < 0 then p (* absent: verbatim, distinct from every offset *)
  else if p >= num_ranks then num_ranks + p (* malformed: verbatim *)
  else (p - rank + num_ranks) mod num_ranks

(* [depends] entries (block, step) in lexicographic order. *)
let compare_dep (t1, s1) (t2, s2) =
  match Int.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c

(* [g]'s block indices sorted by (channel, f send, f recv, index), and
   the keys: block i's are key.(3i) .. key.(3i + 2). *)
let sort_blocks (g : Ir.gpu) f =
  let nt = Array.length g.Ir.tbs in
  let key = Array.make (3 * nt) 0 in
  Array.iteri
    (fun i (tb : Ir.tb) ->
      key.(3 * i) <- tb.Ir.chan;
      key.((3 * i) + 1) <- f tb.Ir.send;
      key.((3 * i) + 2) <- f tb.Ir.recv)
    g.Ir.tbs;
  let rec cmp a b k =
    if k = 3 then Int.compare a b
    else
      match Int.compare key.((3 * a) + k) key.((3 * b) + k) with
      | 0 -> cmp a b (k + 1)
      | c -> c
  in
  let idx = Array.init nt Fun.id in
  Array.stable_sort (fun a b -> cmp a b 0) idx;
  (idx, key)

let canon_order (g : Ir.gpu) ~num_ranks =
  fst (sort_blocks g (rel_peer ~rank:g.Ir.gpu_id ~num_ranks))

let op_code = function
  | Instr.Send -> 0 | Instr.Recv -> 1 | Instr.Copy -> 2 | Instr.Reduce -> 3
  | Instr.Recv_reduce_copy -> 4 | Instr.Recv_copy_send -> 5
  | Instr.Recv_reduce_send -> 6 | Instr.Recv_reduce_copy_send -> 7
  | Instr.Nop -> 8

(* A growable int array. *)
type ints = { mutable a : int array; mutable len : int }

let[@inline] push v x =
  if v.len = Array.length v.a then begin
    let b = Array.make (2 * v.len + 16) 0 in
    Array.blit v.a 0 b 0 v.len;
    v.a <- b
  end;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

(* Appends rank [g]'s fingerprint to [v]. *)
let fingerprint v (ir : Ir.t) (g : Ir.gpu) =
  let num_ranks = Array.length ir.Ir.gpus in
  let rel = rel_peer ~rank:g.Ir.gpu_id ~num_ranks in
  let nt = Array.length g.Ir.tbs in
  let order = canon_order g ~num_ranks in
  let pos = Array.make nt 0 in
  Array.iteri (fun p i -> pos.(i) <- p) order;
  List.iter (push v)
    [ g.Ir.input_chunks; g.Ir.output_chunks; g.Ir.scratch_chunks; nt ];
  let loc = function
    | None -> push v (-1)
    | Some (l : Loc.t) ->
        push v (Races.buf_ix l.Loc.buf);
        push v l.Loc.count
  in
  let canon (dt, ds) =
    ((if dt >= 0 && dt < nt then pos.(dt) else -1 - dt), ds)
  in
  let push_dep (dt, ds) =
    push v dt;
    push v ds
  in
  Array.iter
    (fun i ->
      let tb = g.Ir.tbs.(i) in
      push v tb.Ir.chan;
      push v (rel tb.Ir.send);
      push v (rel tb.Ir.recv);
      push v (Array.length tb.Ir.steps);
      Array.iter
        (fun (st : Ir.step) ->
          push v (op_code st.Ir.op);
          push v st.Ir.count;
          loc st.Ir.src;
          loc st.Ir.dst;
          push v (Bool.to_int st.Ir.has_dep);
          push v (List.length st.Ir.depends);
          match st.Ir.depends with
          | [] -> ()
          | [ d ] -> push_dep (canon d)
          | ds ->
              List.iter push_dep (List.sort compare_dep (List.map canon ds)))
        tb.Ir.steps)
    order

let divisors n =
  let rec go d acc = if d > n then List.rev acc
    else go (d + 1) (if n mod d = 0 then d :: acc else acc)
  in
  go 1 []

(* Every rank's fingerprint class: the least rank with an equal
   fingerprint. Each fingerprint is built in [v], hashed, and compared
   with the kept fingerprints of its hash; only a class's first is
   kept, so a symmetric program keeps one per orbit. *)
let fingerprint_classes (ir : Ir.t) =
  let p = Array.length ir.Ir.gpus in
  let cls = Array.make p 0 and kept = Hashtbl.create 16 in
  let v = { a = Array.make 1024 0; len = 0 } in
  Array.iteri
    (fun r g ->
      v.len <- 0;
      fingerprint v ir g;
      let h = ref 0 in
      for i = 0 to v.len - 1 do
        h := (!h * 1_000_003) + v.a.(i)
      done;
      let same (_, a) =
        Array.length a = v.len
        &&
        let rec from i = i = v.len || (a.(i) = v.a.(i) && from (i + 1)) in
        from 0
      in
      match List.find_opt same (Hashtbl.find_all kept !h) with
      | Some (q, _) -> cls.(r) <- q
      | None ->
          cls.(r) <- r;
          Hashtbl.add kept !h (r, Array.sub v.a 0 v.len))
    ir.Ir.gpus;
  cls

(* The least rotation period of the fingerprints, given their classes. *)
let fingerprint_period cls =
  let p = Array.length cls in
  let rotation_ok k =
    let rec from i = i = p || (cls.(i) = cls.((i + k) mod p) && from (i + 1)) in
    from 0
  in
  let rec first = function
    | [] -> p
    | d :: rest -> if rotation_ok d then d else first rest
  in
  if p = 0 then 0 else first (divisors p)

(* ------------------------------------------------------------------ *)
(* Certification                                                       *)
(* ------------------------------------------------------------------ *)

let verify_candidate ?fp (ir : Ir.t) ~name perm =
  let p = Array.length ir.Ir.gpus in
  let fp = match fp with Some f -> f | None -> Races.footprints ir in
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
     needs the per-rank maps below; quotient passes additionally want to
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
  (* The per-rank chunk bijection, both ways, per buffer tag: chunk [c]
     at [c - lo.(tag)], spanning every index the table names; an entry is
     bound for rank r when its stamp is r. *)
  let lo = Array.make 3 0 and hi = Array.make 3 0 in
  for a = 0 to Array.length fp.Races.fp_index - 1 do
    let b = Races.buffer fp a in
    lo.(b) <- Int.min lo.(b) fp.Races.fp_index.(a);
    hi.(b) <- Int.max hi.(b) (fp.Races.fp_index.(a) + fp.Races.fp_count.(a))
  done;
  let maps v = Array.init 3 (fun b -> Array.make (hi.(b) - lo.(b)) v) in
  try
    let fwd = maps 0 and fwd_at = maps (-1) in
    let bwd = maps 0 and bwd_at = maps (-1) in
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
         a block (chan, perm s, perm v) of rank h, the k-th such block of
         r (in block order) with the k-th of h. Both sides sorted by key,
         a merge pairs them; duplicate connection triples are only
         possible for connectionless blocks. *)
      let rs, rkey = sort_blocks gr map_peer in
      let hs, hkey = sort_blocks gh Fun.id in
      let rec same j i k =
        k = 3 || (hkey.((3 * j) + k) = rkey.((3 * i) + k) && same j i (k + 1))
      in
      let rec less j i k =
        k < 3
        && (hkey.((3 * j) + k) < rkey.((3 * i) + k)
           || (hkey.((3 * j) + k) = rkey.((3 * i) + k) && less j i (k + 1)))
      in
      let sigma = Array.make nt (-1) and unmatched = ref nt and k = ref 0 in
      Array.iter
        (fun i ->
          while !k < nt && less hs.(!k) i 0 do incr k done;
          if !k < nt && same hs.(!k) i 0 then begin
            sigma.(i) <- hs.(!k);
            incr k
          end
          else unmatched := min !unmatched i)
        rs;
      if !unmatched < nt then begin
        let i = !unmatched in
        viol ~rank:r ~image:h ~tb:i
          "rank %d has no unmatched block with channel %d, send %d, recv %d \
           (image of rank %d block %d)"
          h rkey.(3 * i) rkey.((3 * i) + 1) rkey.((3 * i) + 2) r i
      end;
      (* Step-by-step structural equality under sigma, discovering the
         per-buffer chunk bijection as we go. *)
      let bound (map : int array array) at tag a b =
        let c = a - lo.(tag) in
        if at.(tag).(c) = r then map.(tag).(c) = b
        else begin
          at.(tag).(c) <- r;
          map.(tag).(c) <- b;
          true
        end
      in
      let conflict ~tbi ~si ~loc map tag a b =
        viol ~rank:r ~image:h ~tb:tbi ~step:si ~loc
          "chunk %d of %s maps to both %d and %d at rank %d" a
          (Buffer_id.long_name loc.Loc.buf)
          map.(tag).(a - lo.(tag))
          b h
      in
      let check_raw ~i ~si (a : Loc.t option) (b : Loc.t option) =
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
      let remap dt = if dt >= 0 && dt < nt then sigma.(dt) else dt in
      let same_deps (st : Ir.step) (su : Ir.step) =
        match (st.Ir.depends, su.Ir.depends) with
        | [], [] -> true
        | [ (dt, ds) ], [ (du, dv) ] -> remap dt = du && ds = dv
        | d1, d2 ->
            List.equal
              (fun x y -> compare_dep x y = 0)
              (List.sort compare_dep
                 (List.map (fun (dt, ds) -> (remap dt, ds)) d1))
              (List.sort compare_dep d2)
      in
      Array.iteri
        (fun i (tb : Ir.tb) ->
          let u = gh.Ir.tbs.(sigma.(i)) in
          if Array.length u.Ir.steps <> Array.length tb.Ir.steps then
            viol ~rank:r ~image:h ~tb:i
              "rank %d block %d and rank %d block %d disagree on step count" r
              i h sigma.(i);
          let kr = Races.first_step fp ~gpu:r ~tb:i in
          let kh = Races.first_step fp ~gpu:h ~tb:sigma.(i) in
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
              if not (same_deps st su) then
                viol ~rank:r ~image:h ~tb:i ~step:si
                  "cross-block depends do not map";
              check_raw ~i ~si st.Ir.src su.Ir.src;
              check_raw ~i ~si st.Ir.dst su.Ir.dst;
              (* Equal opcodes and operand buffers give both steps the
                 same accesses, write flags and buffers. *)
              let a0 = fp.Races.fp_step_acc.(kr + si) in
              let b0 = fp.Races.fp_step_acc.(kh + si) in
              for q = 0 to fp.Races.fp_step_acc.(kr + si + 1) - a0 - 1 do
                let a = a0 + q and b = b0 + q in
                let tag = Races.buffer fp a in
                let ia = fp.Races.fp_index.(a) and ib = fp.Races.fp_index.(b) in
                let n = min fp.Races.fp_count.(a) fp.Races.fp_count.(b) in
                for j = 0 to n - 1 do
                  if not (bound fwd fwd_at tag (ia + j) (ib + j)) then
                    conflict ~tbi:i ~si ~loc:(Races.access_loc ir st q) fwd tag
                      (ia + j) (ib + j);
                  if not (bound bwd bwd_at tag (ib + j) (ia + j)) then
                    conflict ~tbi:i ~si ~loc:(Races.access_loc ir su q) bwd tag
                      (ib + j) (ia + j);
                  uni_bind tag (ia + j) (ib + j)
                done
              done)
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
      (* Only malformed IR gets here: a negative chunk index (which no
         Loc.make builds) indexes [uni] below 0, or an index near
         [max_int] overflows a map's size. Never worth a crash: reject
         the candidate. *)
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
(* Candidates and orbits                                               *)
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
    let period = fingerprint_period (fingerprint_classes ir) in
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
    let fp = Races.footprints ir in
    let gens, rejected =
      List.fold_left
        (fun (gens, rej) (name, perm) ->
          match verify_candidate ~fp ir ~name perm with
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

let certified t = not (Orbit.is_identity t.s_orbit)

let of_generator (ir : Ir.t) gen =
  let p = Array.length ir.Ir.gpus in
  let period =
    (* The orbit rotation step of the (already certified) generator; only
       reports read this. *)
    match gen.g_perm with [||] -> p | perm -> (perm.(0) - 0 + p) mod p
  in
  {
    s_num_ranks = p;
    s_period = (if period = 0 then p else period);
    s_generators = [ gen ];
    s_rejected = [];
    s_orbit = orbit_of_generators ir [ gen ];
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let violation_message v =
  let loc =
    match v.v_loc with
    | None -> ""
    | Some l ->
        Printf.sprintf " at %s[%d+%d]"
          (Buffer_id.long_name l.Loc.buf)
          l.Loc.index l.Loc.count
  in
  let where =
    if v.v_tb >= 0 && v.v_step >= 0 then
      Printf.sprintf " (rank %d tb %d step %d%s)" v.v_rank v.v_tb v.v_step loc
    else if v.v_rank >= 0 then Printf.sprintf " (rank %d%s)" v.v_rank loc
    else loc
  in
  Printf.sprintf "%s rejected: %s%s" v.v_candidate v.v_reason where

let members_string members =
  let n = List.length members in
  let shown = if n <= 16 then members else List.filteri (fun i _ -> i < 8) members in
  let s = String.concat "," (List.map string_of_int shown) in
  if n <= 16 then s else s ^ ",..."

let report t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "symmetry: %d ranks, fingerprint period %d\n"
       t.s_num_ranks t.s_period);
  (match t.s_generators with
  | [] -> Buffer.add_string b "certified generators: none (asymmetric)\n"
  | gens ->
      Buffer.add_string b
        (Printf.sprintf "certified generators: %s\n"
           (String.concat ", " (List.map (fun g -> g.g_name) gens))));
  let reps = Orbit.reps t.s_orbit in
  Buffer.add_string b
    (Printf.sprintf "orbits: %d (of %d ranks)\n" (List.length reps)
       t.s_num_ranks);
  List.iter
    (fun r ->
      let ms = Orbit.members t.s_orbit r in
      Buffer.add_string b
        (Printf.sprintf "  rank %d x%d: %s\n" r (List.length ms)
           (members_string ms)))
    reps;
  List.iter
    (fun v -> Buffer.add_string b ("  " ^ violation_message v ^ "\n"))
    t.s_rejected;
  Buffer.contents b

let report_json t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"ranks\":%d,\"period\":%d,\"certified\":%b,"
       t.s_num_ranks t.s_period (certified t));
  Buffer.add_string b "\"generators\":[";
  Buffer.add_string b
    (String.concat ","
       (List.map
          (fun g -> Printf.sprintf "\"%s\"" (Lint.json_escape g.g_name))
          t.s_generators));
  Buffer.add_string b "],\"orbits\":[";
  Buffer.add_string b
    (String.concat ","
       (List.map
          (fun r ->
            let ms = Orbit.members t.s_orbit r in
            Printf.sprintf "{\"rep\":%d,\"size\":%d,\"members\":[%s]}" r
              (List.length ms)
              (String.concat "," (List.map string_of_int ms)))
          (Orbit.reps t.s_orbit)));
  Buffer.add_string b "],\"rejected\":[";
  Buffer.add_string b
    (String.concat ","
       (List.map
          (fun v ->
            Printf.sprintf "\"%s\"" (Lint.json_escape (violation_message v)))
          t.s_rejected));
  Buffer.add_string b "]}";
  Buffer.contents b

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
  g_tb : int array array;
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
   has_dep, buffer names and counts (no chunk indices — those may
   legitimately differ per rank and are handled by the certification's
   chunk bijection) and depends retargeted to canonical block positions.
   Equal fingerprints are a necessary condition for two ranks to be
   related by a rotation, so the minimal rotation period of the
   fingerprint array prunes the shift candidates. *)

let rel_peer ~rank ~num_ranks p =
  if p < 0 then p (* absent: verbatim, distinct from every offset *)
  else if p >= num_ranks then num_ranks + p (* malformed: verbatim *)
  else (p - rank + num_ranks) mod num_ranks

let canon_order (g : Ir.gpu) ~num_ranks =
  let nt = Array.length g.Ir.tbs in
  let rel = rel_peer ~rank:g.Ir.gpu_id ~num_ranks in
  let idx = Array.init nt (fun i -> i) in
  let key i =
    let tb = g.Ir.tbs.(i) in
    (tb.Ir.chan, rel tb.Ir.send, rel tb.Ir.recv, i)
  in
  Array.sort (fun a b -> compare (key a) (key b)) idx;
  idx

let fingerprint (ir : Ir.t) (g : Ir.gpu) =
  let num_ranks = Array.length ir.Ir.gpus in
  let rel = rel_peer ~rank:g.Ir.gpu_id ~num_ranks in
  let nt = Array.length g.Ir.tbs in
  let order = canon_order g ~num_ranks in
  let pos = Array.make nt 0 in
  Array.iteri (fun p i -> pos.(i) <- p) order;
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "i%d o%d s%d t%d;" g.Ir.input_chunks g.Ir.output_chunks
       g.Ir.scratch_chunks nt);
  let add_loc = function
    | None -> Buffer.add_string b "-"
    | Some (l : Loc.t) ->
        Buffer.add_string b (Buffer_id.name l.Loc.buf);
        Buffer.add_char b '+';
        Buffer.add_string b (string_of_int l.Loc.count)
  in
  Array.iter
    (fun i ->
      let tb = g.Ir.tbs.(i) in
      Buffer.add_string b
        (Printf.sprintf "T%d,%d,%d:" tb.Ir.chan (rel tb.Ir.send)
           (rel tb.Ir.recv));
      Array.iter
        (fun (st : Ir.step) ->
          Buffer.add_string b (Instr.opcode_name st.Ir.op);
          Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int st.Ir.count);
          add_loc st.Ir.src;
          add_loc st.Ir.dst;
          if st.Ir.has_dep then Buffer.add_char b '!';
          let deps =
            List.sort compare
              (List.map
                 (fun (dt, ds) ->
                   ((if dt >= 0 && dt < nt then pos.(dt) else -1 - dt), ds))
                 st.Ir.depends)
          in
          List.iter
            (fun (dt, ds) ->
              Buffer.add_string b (Printf.sprintf "d%d,%d" dt ds))
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
  let g_tb = Array.make (max p 1) [||] in
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
                List.sort compare (List.map remap st.Ir.depends)
                <> List.sort compare su.Ir.depends
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
              let f1 = Races.footprint ir st and f2 = Races.footprint ir su in
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
        gr.Ir.tbs;
      g_tb.(r) <- sigma
    done;
    Ok
      {
        g_name = name;
        g_perm = Array.copy perm;
        g_tb;
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
(* Candidates and orbits                                               *)
(* ------------------------------------------------------------------ *)

let shift_perm p k = Array.init p (fun r -> (r + k) mod p)

let intra_perm p g =
  Array.init p (fun r -> (r / g * g) + (((r mod g) + 1) mod g))

let orbit_of_generators (ir : Ir.t) gens =
  let p = Array.length ir.Ir.gpus in
  match gens with
  | [] -> Orbit.identity ir
  | _ ->
      let parent = Array.init p (fun r -> r) in
      let rec find x = if parent.(x) = x then x else find parent.(x) in
      let union a b =
        let ra = find a and rb = find b in
        if ra <> rb then
          if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
      in
      List.iter
        (fun gen -> Array.iteri (fun r h -> union r h) gen.g_perm)
        gens;
      let rep = Array.init p find in
      (* Compose thread-block maps from each representative outward along
         the generators (the group is finite, so forward applications
         reach the whole orbit). *)
      let tb_of_rep = Array.make p [||] in
      let built = Array.make p false in
      List.iter
        (fun r ->
          tb_of_rep.(r) <-
            Array.init (Array.length ir.Ir.gpus.(r).Ir.tbs) (fun i -> i);
          built.(r) <- true)
        (List.filter (fun r -> rep.(r) = r) (List.init p (fun r -> r)));
      let queue = Queue.create () in
      List.iter
        (fun r -> if rep.(r) = r then Queue.add r queue)
        (List.init p (fun r -> r));
      while not (Queue.is_empty queue) do
        let x = Queue.pop queue in
        List.iter
          (fun gen ->
            let y = gen.g_perm.(x) in
            if not built.(y) then begin
              tb_of_rep.(y) <-
                Array.map (fun t -> gen.g_tb.(x).(t)) tb_of_rep.(x);
              built.(y) <- true;
              Queue.add y queue
            end)
          gens
      done;
      let tb_to_rep =
        Array.map
          (fun m ->
            let inv = Array.make (Array.length m) 0 in
            Array.iteri (fun i j -> inv.(j) <- i) m;
            inv)
          tb_of_rep
      in
      { Orbit.rep; tb_of_rep; tb_to_rep }

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

(* Deterministic fault plans: plain data resolved against a topology.
   Everything here is pure; the simulator applies the resolved plan by
   scheduling capacity events on the engine and by scaling its cost model
   per rank. See plan.mli for the semantics. *)

module T = Msccl_topology.Topology

type target =
  | Resource of int
  | Resource_named of string
  | Route of { src : int; dst : int }

type fault =
  | Degrade of {
      target : target;
      factor : float;
      from_s : float;
      until_s : float option;
    }
  | Straggler of { rank : int; alpha : float; beta : float; gamma : float }
  | Slot_stall of { src : int; dst : int; chan : int option; delay_s : float }
  | Sem_delay of { rank : int; tb : int option; delay_s : float }

type t = { pname : string; pfaults : fault list }

let pp_target ppf = function
  | Resource rid -> Format.fprintf ppf "resource %d" rid
  | Resource_named n -> Format.fprintf ppf "resource %S" n
  | Route { src; dst } -> Format.fprintf ppf "route %d->%d" src dst

let pp_until ppf = function
  | None -> Format.pp_print_string ppf "forever"
  | Some u -> Format.fprintf ppf "until %gs" u

let pp_fault ppf = function
  | Degrade { target; factor; from_s; until_s } ->
      Format.fprintf ppf "degrade %a x%g from %gs %a" pp_target target factor from_s
        pp_until until_s
  | Straggler { rank; alpha; beta; gamma } ->
      Format.fprintf ppf "straggler rank %d (alpha x%g, beta /%g, gamma x%g)" rank
        alpha beta gamma
  | Slot_stall { src; dst; chan; delay_s } ->
      Format.fprintf ppf "slot-stall %d->%d%a +%gs" src dst
        (fun ppf -> function
          | None -> ()
          | Some c -> Format.fprintf ppf " ch%d" c)
        chan delay_s
  | Sem_delay { rank; tb; delay_s } ->
      Format.fprintf ppf "sem-delay rank %d%a +%gs" rank
        (fun ppf -> function None -> () | Some tb -> Format.fprintf ppf " tb%d" tb)
        tb delay_s

let pp ppf t =
  Format.fprintf ppf "@[<v>plan %S:%a@]" t.pname
    (fun ppf fs -> List.iter (Format.fprintf ppf "@,  %a" pp_fault) fs)
    t.pfaults

let bad fault fmt =
  Format.kasprintf
    (fun msg ->
      invalid_arg
        (Format.asprintf "Plan.make: %s in [%a]" msg pp_fault fault))
    fmt

let finite x = Float.is_finite x

let validate fault =
  match fault with
  | Degrade { factor; from_s; until_s; _ } -> (
      if (not (finite factor)) || factor < 0. then
        bad fault "factor %g must be finite and >= 0" factor;
      if (not (finite from_s)) || from_s < 0. then
        bad fault "window start %g must be finite and >= 0" from_s;
      match until_s with
      | Some u when (not (finite u)) || u <= from_s ->
          bad fault "window end %g must be finite and > start %g" u from_s
      | _ -> ())
  | Straggler { alpha; beta; gamma; rank } ->
      if rank < 0 then bad fault "rank %d must be >= 0" rank;
      List.iter
        (fun (name, m) ->
          if (not (finite m)) || m <= 0. then
            bad fault "%s multiplier %g must be finite and > 0" name m)
        [ ("alpha", alpha); ("beta", beta); ("gamma", gamma) ]
  | Slot_stall { delay_s; _ } | Sem_delay { delay_s; _ } ->
      if (not (finite delay_s)) || delay_s < 0. then
        bad fault "delay %g must be finite and >= 0" delay_s

let make ?(name = "faults") faults =
  List.iter validate faults;
  { pname = name; pfaults = faults }

let is_benign t =
  List.for_all
    (function
      | Degrade { factor; until_s; _ } ->
          (factor > 0. && factor <= 1.) || (factor = 0. && until_s <> None)
      | Straggler { alpha; beta; gamma; _ } ->
          alpha >= 1. && beta >= 1. && gamma >= 1.
      | Slot_stall _ | Sem_delay _ -> true)
    t.pfaults

(* Resolution *)

type window = {
  w_rid : int;
  w_rname : string;
  w_factor : float;
  w_from_s : float;
  w_until_s : float option;
}

type resolved = {
  r_windows : window list;
  r_alpha : float array;
  r_beta : float array;
  r_gamma : float array;
  r_slot_stalls : ((int * int * int option) * float) list;
  r_sem_delays : ((int * int option) * float) list;
}

let check_rank topo what rank =
  if rank < 0 || rank >= T.num_ranks topo then
    invalid_arg
      (Printf.sprintf "Plan.resolve: %s rank %d out of range (have %d)" what
         rank (T.num_ranks topo))

let resolve ~topo t =
  let nres = Array.length (T.resources topo) in
  let nranks = T.num_ranks topo in
  let rids_of_target fault = function
    | Resource rid ->
        if rid < 0 || rid >= nres then
          bad fault "resource id %d out of range (have %d)" rid nres;
        [ rid ]
    | Resource_named name -> (
        match T.find_resource topo name with
        | Some r -> [ r.T.rid ]
        | None -> bad fault "unknown resource name %S" name)
    | Route { src; dst } ->
        check_rank topo "route src" src;
        check_rank topo "route dst" dst;
        if src = dst then bad fault "route src = dst = %d" src;
        (T.route topo ~src ~dst).T.hops
  in
  let windows = ref [] in
  let alpha = Array.make nranks 1.0
  and beta = Array.make nranks 1.0
  and gamma = Array.make nranks 1.0 in
  let stalls = ref [] and delays = ref [] in
  List.iter
    (fun fault ->
      match fault with
      | Degrade { target; factor; from_s; until_s } ->
          let names = T.resources topo in
          List.iter
            (fun rid ->
              windows :=
                {
                  w_rid = rid;
                  w_rname = names.(rid).T.rname;
                  w_factor = factor;
                  w_from_s = from_s;
                  w_until_s = until_s;
                }
                :: !windows)
            (rids_of_target fault target)
      | Straggler { rank; alpha = a; beta = b; gamma = g } ->
          check_rank topo "straggler" rank;
          alpha.(rank) <- alpha.(rank) *. a;
          beta.(rank) <- beta.(rank) *. b;
          gamma.(rank) <- gamma.(rank) *. g
      | Slot_stall { src; dst; chan; delay_s } ->
          check_rank topo "slot-stall src" src;
          check_rank topo "slot-stall dst" dst;
          if src = dst then bad fault "slot-stall src = dst = %d" src;
          stalls := ((src, dst, chan), delay_s) :: !stalls
      | Sem_delay { rank; tb; delay_s } ->
          check_rank topo "sem-delay" rank;
          (match tb with
          | Some tb when tb < 0 -> bad fault "tb %d must be >= 0" tb
          | _ -> ());
          delays := ((rank, tb), delay_s) :: !delays)
    t.pfaults;
  {
    r_windows = List.rev !windows;
    r_alpha = alpha;
    r_beta = beta;
    r_gamma = gamma;
    r_slot_stalls = List.rev !stalls;
    r_sem_delays = List.rev !delays;
  }

let capacity_events ~topo r =
  (* Per resource: the capacity at time t is base × Π factors of windows
     containing t (half-open [from, until)). Emit one event per boundary
     where the value actually changes, then order globally by (time, rid)
     so the engine application order — and therefore the simulated
     schedule — is independent of plan declaration order. *)
  let by_rid = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun w ->
      if not (Hashtbl.mem by_rid w.w_rid) then order := w.w_rid :: !order;
      Hashtbl.replace by_rid w.w_rid
        (w :: (try Hashtbl.find by_rid w.w_rid with Not_found -> [])))
    r.r_windows;
  let events = ref [] in
  List.iter
    (fun rid ->
      let ws = List.rev (Hashtbl.find by_rid rid) in
      let base = T.resource_capacity topo rid in
      let bounds =
        List.concat_map
          (fun w ->
            w.w_from_s
            :: (match w.w_until_s with Some u -> [ u ] | None -> []))
          ws
        |> List.sort_uniq compare
      in
      let cap_at time =
        base
        *. List.fold_left
             (fun p w ->
               let inside =
                 w.w_from_s <= time
                 &&
                 match w.w_until_s with None -> true | Some u -> time < u
               in
               if inside then p *. w.w_factor else p)
             1.0 ws
      in
      let prev = ref base in
      List.iter
        (fun b ->
          let c = cap_at b in
          if c <> !prev then begin
            events := (b, rid, c) :: !events;
            prev := c
          end)
        bounds)
    (List.rev !order);
  List.stable_sort
    (fun (t1, r1, _) (t2, r2, _) ->
      match Float.compare t1 t2 with 0 -> Int.compare r1 r2 | c -> c)
    (List.rev !events)

let slot_stall r ~src ~dst ~chan =
  List.fold_left
    (fun acc ((s, d, c), delay) ->
      if s = src && d = dst && (c = None || c = Some chan) then acc +. delay
      else acc)
    0. r.r_slot_stalls

let sem_delay r ~rank ~tb =
  List.fold_left
    (fun acc ((rk, t), delay) ->
      if rk = rank && (t = None || t = Some tb) then acc +. delay else acc)
    0. r.r_sem_delays

(* Seeded generation: a self-contained splitmix64 stream (lib/fuzz has its
   own Rng, but faults must stay independent of it — the fuzzer depends on
   this library, not the other way round). *)

let sm64 st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unit_float st =
  (* 53 high bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical (sm64 st) 11)
  *. (1. /. 9007199254740992.)

let below st n =
  if n <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (sm64 st) 1) (Int64.of_int n))

let random ~seed ~severity ~topo =
  let sev = Float.max 0. (Float.min 1. severity) in
  let st = ref (Int64.of_int seed) in
  let n = T.num_ranks topo in
  let faults = ref [] in
  let push f = faults := f :: !faults in
  if n >= 2 then begin
    let pick_route () =
      let src = below st n in
      let dst = (src + 1 + below st (n - 1)) mod n in
      (src, dst)
    in
    let src, dst = pick_route () in
    (* Worst case 0.9 × severity degradation: never a kill, so the plan
       stays benign (is_benign = true) at any severity. *)
    let factor = 1. -. (0.9 *. sev *. (0.5 +. (0.5 *. unit_float st))) in
    push (Degrade { target = Route { src; dst }; factor; from_s = 0.; until_s = None });
    let ssrc, sdst = pick_route () in
    push
      (Slot_stall
         { src = ssrc; dst = sdst; chan = None; delay_s = sev *. 2e-6 *. unit_float st })
  end;
  push
    (Straggler
       {
         rank = below st n;
         alpha = 1. +. (2. *. sev *. unit_float st);
         beta = 1. +. (1.5 *. sev *. unit_float st);
         gamma = 1. +. (sev *. unit_float st);
       });
  push
    (Sem_delay
       { rank = below st n; tb = None; delay_s = sev *. 1e-6 *. unit_float st });
  make
    ~name:(Printf.sprintf "random(seed=%d,severity=%g)" seed sev)
    (List.rev !faults)

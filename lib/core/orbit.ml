type t = {
  rep : int array;
  tb_of_rep : int array array;
  tb_to_rep : int array array;
}

let identity (ir : Ir.t) =
  let n = Array.length ir.Ir.gpus in
  let idmap g = Array.init (Array.length ir.Ir.gpus.(g).Ir.tbs) (fun i -> i) in
  {
    rep = Array.init n (fun r -> r);
    tb_of_rep = Array.init n idmap;
    tb_to_rep = Array.init n idmap;
  }

let is_identity t =
  let ok = ref true in
  Array.iteri (fun r v -> if v <> r then ok := false) t.rep;
  !ok

let num_ranks t = Array.length t.rep

let num_orbits t =
  let n = ref 0 in
  Array.iteri (fun r v -> if v = r then incr n) t.rep;
  !n

let reps t =
  let acc = ref [] in
  for r = Array.length t.rep - 1 downto 0 do
    if t.rep.(r) = r then acc := r :: !acc
  done;
  !acc

let members t rep =
  let acc = ref [] in
  for r = Array.length t.rep - 1 downto 0 do
    if t.rep.(r) = rep then acc := r :: !acc
  done;
  !acc

let orbit_size t rank =
  let rep = t.rep.(rank) in
  Array.fold_left (fun n v -> if v = rep then n + 1 else n) 0 t.rep

let symmetric_suffix n =
  if n <= 0 then ""
  else Printf.sprintf " (and %d symmetric rank%s)" n (if n = 1 then "" else "s")

let check_shape (ir : Ir.t) t =
  let n = Array.length ir.Ir.gpus in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if Array.length t.rep <> n then
    fail "orbit covers %d ranks but the program has %d" (Array.length t.rep) n
  else if Array.length t.tb_of_rep <> n || Array.length t.tb_to_rep <> n then
    fail "orbit thread-block maps do not cover every rank"
  else begin
    let bad = ref None in
    for r = 0 to n - 1 do
      if !bad = None then begin
        let rep = t.rep.(r) in
        if rep < 0 || rep >= n then
          bad := Some (Printf.sprintf "rank %d maps to rank %d" r rep)
        else if t.rep.(rep) <> rep then
          bad :=
            Some
              (Printf.sprintf "representative %d of rank %d is not fixed" rep r)
        else begin
          let tbs_r = ir.Ir.gpus.(r).Ir.tbs
          and tbs_rep = ir.Ir.gpus.(rep).Ir.tbs in
          let k = Array.length tbs_rep in
          if Array.length tbs_r <> k then
            bad :=
              Some
                (Printf.sprintf "ranks %d and %d have different tb counts" r
                   rep)
          else if
            Array.length t.tb_of_rep.(r) <> k
            || Array.length t.tb_to_rep.(r) <> k
          then bad := Some (Printf.sprintf "rank %d tb map has wrong size" r)
          else
            Array.iteri
              (fun i j ->
                if !bad = None then
                  if j < 0 || j >= k || t.tb_to_rep.(r).(j) <> i then
                    bad :=
                      Some
                        (Printf.sprintf "rank %d tb map is not a bijection" r)
                  else if
                    Array.length tbs_rep.(i).Ir.steps
                    <> Array.length tbs_r.(j).Ir.steps
                  then
                    bad :=
                      Some
                        (Printf.sprintf
                           "rank %d tb %d and rank %d tb %d disagree on step \
                            count"
                           rep i r j))
              t.tb_of_rep.(r)
        end
      end
    done;
    match !bad with None -> Ok () | Some m -> Error m
  end

type t = { rep : int array }

let identity (ir : Ir.t) =
  { rep = Array.init (Array.length ir.Ir.gpus) (fun r -> r) }

let is_identity t =
  let ok = ref true in
  Array.iteri (fun r v -> if v <> r then ok := false) t.rep;
  !ok

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

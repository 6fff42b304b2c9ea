(* Order statistics over samples. [quartiles] follows Python's
   [statistics.quantiles(data, n=4)] (the "exclusive" method) exactly, so
   spreads computed here and by a Python reader of the result lines
   agree. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let n = 4 and m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)

(* (q3 - q1) / median: the run-to-run spread as a share of the median. *)
let spread xs =
  let q1, med, q3 = quartiles xs in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(* The highest whole percentile that still has at least ten samples
   strictly beyond it, with its value; [None] below 11 samples. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = n - 10 in
  if k < 1 then None else Some (100 * k / n, a.(k - 1))

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

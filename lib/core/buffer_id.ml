type t =
  | Input
  | Output
  | Scratch

let all = [ Input; Output; Scratch ]

let name = function
  | Input -> "i"
  | Output -> "o"
  | Scratch -> "s"

let long_name = function
  | Input -> "input"
  | Output -> "output"
  | Scratch -> "scratch"

let rec has_upper s i =
  i < String.length s
  && match String.unsafe_get s i with 'A' .. 'Z' -> true | _ -> has_upper s (i + 1)

let of_name s =
  (* a lowercase name, the usual case, is matched without a copy *)
  match if has_upper s 0 then String.lowercase_ascii s else s with
  | "i" | "in" | "input" -> Some Input
  | "o" | "out" | "output" -> Some Output
  | "s" | "sc" | "scratch" -> Some Scratch
  | _ -> None

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

let pp fmt t = Format.pp_print_string fmt (long_name t)

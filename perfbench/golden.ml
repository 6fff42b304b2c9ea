(* Golden outputs: one file per (workload, seed) holding the first
   iteration's facts as "<op>\t<fact>" lines. Written only by --bless,
   compared on every run of the golden seeds. *)

let seeds = [ 1; 2 ]

let path ~dir ~workload ~seed =
  Filename.concat dir (Printf.sprintf "%s-seed%d.txt" workload seed)

let lines_of facts =
  List.concat_map
    (fun (op, fs) -> List.map (fun f -> op ^ "\t" ^ f) fs)
    facts

let write path facts =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc (l ^ "\n")) (lines_of facts);
  close_out oc

let read path =
  if not (Sys.file_exists path) then None
  else
    Some
      (String.split_on_char '\n' (Spec.read_file path)
      |> List.filter (fun l -> l <> ""))

(* Ops whose facts differ from the golden lines, each with a message. *)
let mismatches ~expected facts =
  let by_op = Hashtbl.create 64 in
  List.iter
    (fun l ->
      match String.index_opt l '\t' with
      | Some i ->
          let op = String.sub l 0 i in
          let fact = String.sub l (i + 1) (String.length l - i - 1) in
          Hashtbl.replace by_op op
            (fact :: Option.value ~default:[] (Hashtbl.find_opt by_op op))
      | None -> ())
    expected;
  let seen = Hashtbl.create 64 in
  let diffs =
    List.filter_map
      (fun (op, got) ->
        Hashtbl.replace seen op ();
        let want =
          List.rev (Option.value ~default:[] (Hashtbl.find_opt by_op op))
        in
        if want = got then None
        else
          let rec first = function
            | w :: ws, g :: gs -> if w = g then first (ws, gs) else (w, g)
            | w :: _, [] -> (w, "(nothing)")
            | [], g :: _ -> ("(nothing)", g)
            | [], [] -> ("", "")
          in
          let w, g = first (want, got) in
          Some (op, Printf.sprintf "golden %S, got %S" w g))
      facts
  in
  let missing =
    Hashtbl.fold
      (fun op _ acc ->
        if Hashtbl.mem seen op then acc
        else (op, "op in the golden file was not run") :: acc)
      by_op []
  in
  diffs @ List.sort compare missing

(* Writes the hostile-size documents of Hostile_docs into DIR:

     dune exec test/gen_hostile.exe -- DIR *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  List.iter
    (fun (name, doc) ->
      let oc = open_out_bin (Filename.concat dir name) in
      output_string oc (doc ());
      close_out oc)
    Hostile_docs.all

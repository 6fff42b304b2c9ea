(* The connection index the table way: one hash table keyed on the
   (src, dst, chan) tuple, each connection's sending and receiving blocks
   kept in lists, the keys sorted at the end. A block (numbered in IR
   order) has a send (receive) endpoint when it names a send (receive)
   peer or has a sending (receiving) step; [canon] maps each endpoint's
   (src, dst) first. *)

open Msccl_core

type conn = {
  key : int * int * int;
  senders : int list;  (** blocks, ascending *)
  receivers : int list;
  sends : int;  (** sending steps over the senders *)
  recvs : int;
}

let connections ?(canon = fun ~src ~dst -> (src, dst)) (gpus : Ir.gpu array) =
  let tbl = Hashtbl.create 16 in
  let add key side b n =
    let c =
      match Hashtbl.find_opt tbl key with
      | Some c -> c
      | None -> { key; senders = []; receivers = []; sends = 0; recvs = 0 }
    in
    Hashtbl.replace tbl key
      (if side = `Send then
         { c with senders = c.senders @ [ b ]; sends = c.sends + n }
       else { c with receivers = c.receivers @ [ b ]; recvs = c.recvs + n })
  in
  let b = ref 0 in
  Array.iter
    (fun (g : Ir.gpu) ->
      Array.iter
        (fun (tb : Ir.tb) ->
          let count f =
            Array.fold_left
              (fun n (st : Ir.step) -> if f st.Ir.op then n + 1 else n)
              0 tb.Ir.steps
          in
          let ns = count Instr.sends and nr = count Instr.receives in
          if tb.Ir.send >= 0 || ns > 0 then begin
            let s, d = canon ~src:g.Ir.gpu_id ~dst:tb.Ir.send in
            add (s, d, tb.Ir.chan) `Send !b ns
          end;
          if tb.Ir.recv >= 0 || nr > 0 then begin
            let s, d = canon ~src:tb.Ir.recv ~dst:g.Ir.gpu_id in
            add (s, d, tb.Ir.chan) `Recv !b nr
          end;
          incr b)
        g.Ir.tbs)
    gpus;
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
  |> List.sort (fun a b -> compare a.key b.key)

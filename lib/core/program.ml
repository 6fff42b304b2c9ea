exception Trace_error of string

let error fmt = Format.kasprintf (fun s -> raise (Trace_error s)) fmt

type cell = {
  mutable chunk : Chunk.t;
  mutable version : int;
  mutable last_writer : int;  (* node id, -1 for none *)
  mutable readers : int list;  (* node ids reading since last write *)
}

let fresh_cell () =
  { chunk = Chunk.uninit; version = 0; last_writer = -1; readers = [] }

(* Cells live either in dense per-buffer arrays (the default: O(1) access,
   eager precondition initialization) or in a sparse on-demand table (used
   by the symmetry-aware path, whose representative slice touches O(P) of
   the O(P^2) cells a dense allocation would pay for). Both views have
   identical semantics: a cell springs into existence holding its
   precondition chunk (input) or uninitialized (output/scratch). *)
type buf_store =
  | Dense of cell array
  | Sparse of {
      size : int;  (* declared buffer size, -1 = growable (scratch) *)
      tbl : (int, cell) Hashtbl.t;
      init : int -> Chunk.t;
    }

type rank_state = {
  input : buf_store;
  output : buf_store;  (* == input when in-place *)
  mutable scratch : buf_store;
  mutable scratch_used : int;
}

type t = {
  prog_name : string;
  coll : Collective.t;
  ranks : rank_state array;
  mutable nodes : Chunk_dag.node array;  (* the first [next_id] are set *)
  mutable next_id : int;
  mutable frozen : bool;
  mutable stamp : int array;
      (* node id -> the id of the last node that listed it as a
         dependency; dedups a node's dependency set without a list scan *)
  mutable dep_buf : int array;  (* the dependencies being collected *)
  mutable ndeps : int;  (* how many *)
}

type xref = {
  prog : t;
  loc : Loc.t;
  versions : int array;  (* snapshot per covered cell *)
}

let name t = t.prog_name
let collective t = t.coll
let num_ranks t = t.coll.Collective.num_ranks

let create ?(name = "program") ?(sparse = false) coll =
  let in_size = Collective.input_buffer_size coll in
  let out_size = Collective.output_buffer_size coll in
  let make_rank rank =
    if sparse then begin
      let input =
        Sparse
          {
            size = in_size;
            tbl = Hashtbl.create 16;
            init = (fun index -> Collective.precondition coll ~rank ~index);
          }
      in
      let output =
        if coll.Collective.inplace then input
        else
          Sparse
            {
              size = out_size;
              tbl = Hashtbl.create 16;
              init = (fun _ -> Chunk.uninit);
            }
      in
      let scratch =
        Sparse
          { size = -1; tbl = Hashtbl.create 16; init = (fun _ -> Chunk.uninit) }
      in
      { input; output; scratch; scratch_used = 0 }
    end
    else begin
      let input = Array.init in_size (fun _ -> fresh_cell ()) in
      Array.iteri
        (fun index cell ->
          cell.chunk <- Collective.precondition coll ~rank ~index)
        input;
      let output =
        if coll.Collective.inplace then input
        else Array.init out_size (fun _ -> fresh_cell ())
      in
      {
        input = Dense input;
        output = Dense output;
        scratch = Dense [||];
        scratch_used = 0;
      }
    end
  in
  {
    prog_name = name;
    coll;
    ranks = Array.init coll.Collective.num_ranks make_rank;
    nodes = [||];
    next_id = 0;
    frozen = false;
    stamp = [||];
    dep_buf = Array.make 8 0;
    ndeps = 0;
  }

let check_live t = if t.frozen then error "program already finished"

(* Resolve a buffer name to its canonical identity (Output aliases Input
   when the collective is in-place). *)
let canon t buf =
  match buf with
  | Buffer_id.Output when t.coll.Collective.inplace -> Buffer_id.Input
  | Buffer_id.Input | Buffer_id.Output | Buffer_id.Scratch -> buf

let rank_state t rank =
  if rank < 0 || rank >= num_ranks t then error "rank %d out of range" rank;
  t.ranks.(rank)

(* Grow the (dense) scratch buffer so that [n] cells exist. *)
let ensure_scratch rs n =
  (match rs.scratch with
  | Dense arr when n > Array.length arr ->
      let cap = max 8 (max n (2 * Array.length arr)) in
      let bigger =
        Array.init cap (fun i ->
            if i < Array.length arr then arr.(i) else fresh_cell ())
      in
      rs.scratch <- Dense bigger
  | Dense _ | Sparse _ -> ());
  if n > rs.scratch_used then rs.scratch_used <- n

(* The store a location's cells live in, after its bounds check. *)
let checked_store store (l : Loc.t) what =
  let last = l.Loc.index + l.Loc.count in
  (match store with
  | Dense arr ->
      if last > Array.length arr then
        error "%a exceeds %s buffer of %d chunk(s)" Loc.pp l what
          (Array.length arr)
  | Sparse { size; _ } ->
      if size >= 0 && last > size then
        error "%a exceeds %s buffer of %d chunk(s)" Loc.pp l what size);
  store

(* The cell at [index] of a checked store, read in place (a sparse store
   creates it on first touch). *)
let cell_at store index =
  match store with
  | Dense arr -> arr.(index)
  | Sparse { tbl; init; _ } -> (
      match Hashtbl.find_opt tbl index with
      | Some c -> c
      | None ->
          let c = fresh_cell () in
          c.chunk <- init index;
          Hashtbl.add tbl index c;
          c)

(* The store holding a location's cells, for reading ([grow=false]) or
   writing; its cells are [cell_at store (l.index + i)]. *)
let store_of t (l : Loc.t) ~grow =
  let rs = rank_state t l.Loc.rank in
  let last = l.Loc.index + l.Loc.count in
  match canon t l.Loc.buf with
  | Buffer_id.Input -> checked_store rs.input l "input"
  | Buffer_id.Output -> checked_store rs.output l "output"
  | Buffer_id.Scratch ->
      if grow then ensure_scratch rs last
      else if last > rs.scratch_used then
        error "%a reads past the scratch buffer (%d chunk(s) used)" Loc.pp l
          rs.scratch_used;
      checked_store rs.scratch l "scratch"

let make_loc t ~rank ~buf ~index ~count =
  if count <= 0 then error "nonpositive count %d" count;
  if index < 0 then error "negative index %d" index;
  if rank < 0 || rank >= num_ranks t then error "rank %d out of range" rank;
  Loc.make ~rank ~buf ~index ~count

let snapshot store (l : Loc.t) =
  let versions = Array.make l.Loc.count 0 in
  for i = 0 to l.Loc.count - 1 do
    versions.(i) <- (cell_at store (l.Loc.index + i)).version
  done;
  versions

let check_fresh r ~what =
  let store = store_of r.prog r.loc ~grow:false in
  for i = 0 to r.loc.Loc.count - 1 do
    if (cell_at store (r.loc.Loc.index + i)).version <> r.versions.(i) then
      error "stale reference used as %s: %a was overwritten after the \
             reference was created"
        what Loc.pp r.loc
  done;
  store

let check_initialized r store =
  for i = 0 to r.loc.Loc.count - 1 do
    if Chunk.is_uninit (cell_at store (r.loc.Loc.index + i)).chunk then
      error "reading uninitialized chunk at %s[%d] of rank %d"
        (Buffer_id.long_name r.loc.Loc.buf)
        (r.loc.Loc.index + i) r.loc.Loc.rank
  done

let chunk t ~rank buf ~index ?(count = 1) () =
  check_live t;
  let loc = make_loc t ~rank ~buf ~index ~count in
  let store = store_of t loc ~grow:false in
  let r = { prog = t; loc; versions = snapshot store loc } in
  check_initialized r store;
  r

let sub r ~offset ~count =
  if offset < 0 || count <= 0 || offset + count > r.loc.Loc.count then
    error "sub: span [%d,%d) outside reference of count %d" offset
      (offset + count) r.loc.Loc.count;
  {
    prog = r.prog;
    loc =
      Loc.make ~rank:r.loc.Loc.rank ~buf:r.loc.Loc.buf
        ~index:(r.loc.Loc.index + offset) ~count;
    versions = Array.sub r.versions offset count;
  }

let rank_of r = r.loc.Loc.rank
let buffer_of r = r.loc.Loc.buf
let index_of r = r.loc.Loc.index
let count_of r = r.loc.Loc.count

let locs_alias t a b =
  a.Loc.rank = b.Loc.rank
  && Buffer_id.equal (canon t a.Loc.buf) (canon t b.Loc.buf)
  && a.Loc.index < b.Loc.index + b.Loc.count
  && b.Loc.index < a.Loc.index + a.Loc.count

(* Add node [w] to node [t.next_id]'s dependency set (-1: none). *)
let dep t w =
  let id = t.next_id in
  if w >= 0 && t.stamp.(w) <> id then begin
    t.stamp.(w) <- id;
    if t.ndeps = Array.length t.dep_buf then begin
      let bigger = Array.make (2 * t.ndeps) 0 in
      Array.blit t.dep_buf 0 bigger 0 t.ndeps;
      t.dep_buf <- bigger
    end;
    t.dep_buf.(t.ndeps) <- w;
    t.ndeps <- t.ndeps + 1
  end

let rec dep_all t = function
  | [] -> ()
  | w :: rest ->
      dep t w;
      dep_all t rest

(* Append a node computing [dst := src] or [dst := dst ⊕ src]; dependency
   edges are the classic last-writer (true), write-after-read (anti) and
   write-after-write (output) dependencies on the covered cells. The
   source and destination never alias (both callers reject overlapping
   operands). *)
let add_node t ~op ~src_store ~dst_store ~src ~dst ~ch =
  let id = t.next_id in
  if id >= Array.length t.stamp then begin
    let cap = max 64 (2 * Array.length t.stamp) in
    let stamp = Array.make cap (-1) in
    Array.blit t.stamp 0 stamp 0 (Array.length t.stamp);
    t.stamp <- stamp
  end;
  t.stamp.(id) <- id;
  t.ndeps <- 0;
  for i = 0 to src.Loc.count - 1 do
    let c = cell_at src_store (src.Loc.index + i) in
    dep t c.last_writer;
    c.readers <- id :: c.readers
  done;
  for i = 0 to dst.Loc.count - 1 do
    let c = cell_at dst_store (dst.Loc.index + i) in
    dep t c.last_writer;
    dep_all t c.readers;
    let v = (cell_at src_store (src.Loc.index + i)).chunk in
    c.chunk <-
      (match op with
      | Chunk_dag.Copy_op -> v
      | Chunk_dag.Reduce_op -> Chunk.reduce c.chunk v);
    c.version <- c.version + 1;
    c.last_writer <- id;
    c.readers <- []
  done;
  let buf = t.dep_buf and n = t.ndeps in
  (* Insertion sort: dependency sets are a handful of ids. *)
  for i = 1 to n - 1 do
    let x = buf.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && buf.(!j) > x do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- x
  done;
  let deps = ref [] in
  for i = n - 1 downto 0 do
    deps := buf.(i) :: !deps
  done;
  let node = { Chunk_dag.id; op; src; dst; ch; deps = !deps } in
  if id = Array.length t.nodes then begin
    let bigger = Array.make (max 64 (2 * id)) node in
    Array.blit t.nodes 0 bigger 0 id;
    t.nodes <- bigger
  end;
  t.nodes.(id) <- node;
  t.next_id <- id + 1

let copy r ~rank buf ~index ?ch () =
  let t = r.prog in
  check_live t;
  let src_store = check_fresh r ~what:"copy source" in
  check_initialized r src_store;
  let dst = make_loc t ~rank ~buf ~index ~count:r.loc.Loc.count in
  if locs_alias t r.loc dst then
    error "copy source %a overlaps destination %a" Loc.pp r.loc Loc.pp dst;
  let dst_store = store_of t dst ~grow:true in
  add_node t ~op:Chunk_dag.Copy_op ~src_store ~dst_store ~src:r.loc ~dst ~ch;
  { prog = t; loc = dst; versions = snapshot dst_store dst }

let reduce r1 r2 ?ch () =
  let t = r1.prog in
  check_live t;
  if r2.prog != t then error "reduce: references from different programs";
  if r1.loc.Loc.count <> r2.loc.Loc.count then
    error "reduce: count mismatch (%d vs %d)" r1.loc.Loc.count
      r2.loc.Loc.count;
  if locs_alias t r1.loc r2.loc then
    error "reduce operands %a and %a overlap" Loc.pp r1.loc Loc.pp r2.loc;
  let dst_store = check_fresh r1 ~what:"reduce destination" in
  check_initialized r1 dst_store;
  let src_store = check_fresh r2 ~what:"reduce source" in
  check_initialized r2 src_store;
  add_node t ~op:Chunk_dag.Reduce_op ~src_store ~dst_store ~src:r2.loc
    ~dst:r1.loc ~ch;
  { prog = t; loc = r1.loc; versions = snapshot dst_store r1.loc }

let finish t =
  check_live t;
  t.frozen <- true;
  let dag =
    {
      Chunk_dag.name = t.prog_name;
      collective = t.coll;
      nodes = Array.sub t.nodes 0 t.next_id;
      scratch_sizes = Array.map (fun rs -> rs.scratch_used) t.ranks;
    }
  in
  Chunk_dag.validate dag;
  dag

let trace ?name ?sparse coll f =
  let t = create ?name ?sparse coll in
  f t;
  finish t
